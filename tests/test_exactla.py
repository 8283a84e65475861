import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liberatrix.exactla import (
    RatMatrix,
    _column_echelon,
    _eliminate,
    _int_rows,
    _kernel_vectors,
    _reduce_row,
    charpoly,
    col_space_contains,
    column_echelon,
    commutator,
    direct_sum,
    format_matrix_text,
    kernel_basis,
    left_kernel_basis,
    parse_matrix_text,
    poly_gcd,
    rank,
    rref,
)
from oracles import (eliminate_dense, kernel_basis_rref,
                     left_kernel_basis_rref, solve)

# Verification matrix of the rank-1-plus-point instance, frozen:
# rows indexed by the four bridge nonedges.
PSI_K4K1 = [
    [0, 0, 0, -3, 0, 0, 1, 0, 1, 1],
    [0, 0, 0, 1, 0, 0, -3, 0, 1, 1],
    [0, 0, 0, 1, 0, 0, 1, 0, -3, 1],
    [0, 0, 0, 1, 0, 0, 1, 0, 1, -3],
]


def rand_matrix(rng, rows, cols, span=9):
    return RatMatrix(rows, cols,
                     [[Fraction(rng.randint(-span, span), rng.randint(1, 4))
                       for _ in range(cols)] for _ in range(rows)])


def det_minor(m: RatMatrix) -> Fraction:
    """Cofactor-expansion determinant, used only as a test oracle."""
    n = m.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        if m[0, j] != 0:
            sub = m.submatrix(row_idx=range(1, n),
                              col_idx=[c for c in range(n) if c != j])
            total += sign * m[0, j] * det_minor(sub)
        sign = -sign
    return total


def rank_by_minors(m: RatMatrix) -> int:
    """Largest k with a nonvanishing k x k minor. Brute-force oracle."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for ri in combinations(range(m.rows), k):
            for ci in combinations(range(m.cols), k):
                if det_minor(m.submatrix(ri, ci)) != 0:
                    return k
    return 0


def test_psi_k4k1_rank_three_vs_minors_oracle():
    psi = RatMatrix.from_rows(PSI_K4K1)
    assert rank_by_minors(psi) == 3
    assert rank(psi) == 3
    assert rank(psi) < psi.rows


def test_rank_transpose_invariant_500_random():
    rng = random.Random(20260816)
    for _ in range(500):
        r = rng.randint(1, 8)
        c = rng.randint(1, 12)
        m = rand_matrix(rng, r, c, span=6)
        # sprinkle zeros so ranks vary
        for _ in range(r * c // 3):
            m[rng.randrange(r), rng.randrange(c)] = 0
        assert rank(m) == rank(m.transpose())


def test_rref_idempotent_and_pivots():
    rng = random.Random(7)
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 8))
        rr = rref(m)
        again = rref(rr.matrix)
        assert again.matrix == rr.matrix
        assert again.pivot_cols == rr.pivot_cols
        assert rr.rank == rank(m)
        for r, c in enumerate(rr.pivot_cols):
            col = rr.matrix.col(c)
            assert col[r] == 1 and all(x == 0 for i, x in enumerate(col) if i != r)


def test_column_echelon_matches_quoted_reduction():
    psi = RatMatrix.from_rows(PSI_K4K1)
    res = column_echelon(psi, bottom_rows=[2, 3])
    assert res.top_independent
    expected = RatMatrix.from_rows([
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [-1, -1, -1, 0, 0, 0, 0, 0, 0, 0],
    ])
    assert res.matrix == expected
    assert res.block.rows == 2 and res.block.cols == 8
    assert res.bottom_zero_rows == ()
    # dependent top rows are a structured outcome
    dep = RatMatrix.from_rows([[1, 2], [2, 4], [0, 1]])
    out = column_echelon(dep, bottom_rows=[2])
    assert not out.top_independent and out.block is None


def test_row_subset_independence_equals_echelon_block_criterion():
    # For M with independent rows on alpha: every alpha+{i} independent
    # iff the column echelon block over the complement has no zero row.
    rng = random.Random(99)
    done = 0
    while done < 40:
        m = rand_matrix(rng, rng.randint(2, 6), rng.randint(2, 8))
        k = rng.randint(1, m.rows - 1)
        alpha = sorted(rng.sample(range(m.rows), k))
        if rank(m.submatrix(row_idx=alpha)) != k:
            continue
        rest = [i for i in range(m.rows) if i not in alpha]
        one_by_one = all(rank(m.submatrix(row_idx=alpha + [i])) == k + 1
                         for i in rest)
        res = column_echelon(m, bottom_rows=rest)
        assert res.top_independent
        assert one_by_one == (res.bottom_zero_rows == ())
        done += 1


def test_kernel_basis_annihilates():
    rng = random.Random(3)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 8))
        ker = kernel_basis(m)
        assert ker.cols == m.cols - rank(m)
        if ker.cols:
            assert (m @ ker).is_zero()
        lk = left_kernel_basis(m)
        if lk.rows:
            assert (lk @ m).is_zero()


def test_col_space_contains_vs_solver_oracle():
    rng = random.Random(11)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(2, 6), rng.randint(1, 5))
        y = [Fraction(rng.randint(-5, 5)) for _ in range(m.cols)]
        x = m @ RatMatrix.column(y)
        assert col_space_contains(m, x)
        sol = solve(m, x)
        assert sol is not None
        assert (m @ RatMatrix.column(sol)) == x
        z = RatMatrix.column([Fraction(rng.randint(-5, 5)) for _ in range(m.rows)])
        assert col_space_contains(m, z) == (solve(m, z) is not None)


def test_charpoly_against_determinant_oracle():
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n, span=4)
        p = charpoly(m)
        assert p[-1] == 1 and len(p) == n + 1
        for t in range(-3, 4):
            ti = RatMatrix.identity(n).scale(t)
            lhs = det_minor(ti - m)
            rhs = sum(c * Fraction(t) ** k for k, c in enumerate(p))
            assert lhs == rhs


def test_charpoly_diagonal_product_formula():
    d = RatMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    assert charpoly(d) == [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]


def test_poly_gcd():
    x_minus = lambda a: [Fraction(-a), Fraction(1)]
    p = [2, -3, 1]  # (x-1)(x-2)
    q = [6, -5, 1]  # (x-2)(x-3)
    assert poly_gcd(p, q) == x_minus(2)
    assert poly_gcd(x_minus(1), x_minus(5)) == [Fraction(1)]
    r = [-6, 11, -6, 1]  # (x-1)(x-2)(x-3)
    s = [-12, 16, -7, 1]  # (x-2)^2 (x-3)
    assert poly_gcd(r, s) == q


def test_commutator_and_symmetry_helpers():
    a = RatMatrix.from_rows([[0, 1], [1, 0]])
    b = RatMatrix.from_rows([[1, 0], [0, 2]])
    c = commutator(a, b)
    assert c == RatMatrix.from_rows([[0, 1], [-1, 0]])
    assert a.is_symmetric() and not c.is_symmetric()


def test_entries_from_numpy_scalars_and_refusals():
    # numpy integers are numbers.Rational, so they convert like ints; a
    # float array converts to the exact binary values of its entries
    m = RatMatrix.from_rows(np.array([[1, 2], [2, 1]]))
    assert m == RatMatrix.from_rows([[1, 2], [2, 1]])
    assert all(type(x) is Fraction for row in m.data for x in row)
    m[0, 0] = np.int64(3)
    assert m[0, 0] == 3 and type(m[0, 0]) is Fraction
    f = RatMatrix.from_rows(np.array([[0.1, -2.5]]))
    assert f.data == [[Fraction(0.1), Fraction(-5, 2)]]
    assert RatMatrix.from_rows([["7/3", True]]).data == [[Fraction(7, 3), 1]]
    for bad, err in ((object(), TypeError), (None, TypeError),
                     (1 + 0j, TypeError), (float("nan"), ValueError),
                     (np.nan, ValueError), (float("inf"), OverflowError),
                     (-np.inf, OverflowError)):
        with pytest.raises(err):
            RatMatrix.from_rows([[bad]])
        with pytest.raises(err):
            m[1, 1] = bad
    assert m[1, 1] == 1


def test_matrix_text_round_trip():
    m = RatMatrix.from_rows([[Fraction(1, 2), 3], [Fraction(-7, 3), 0]])
    text = format_matrix_text(m)
    assert text.splitlines()[0] == "2 2"
    assert parse_matrix_text(text) == m
    dec = parse_matrix_text("1 2\n0.5 -2\n")
    assert dec[0, 0] == Fraction(1, 2) and dec[0, 1] == -2
    with pytest.raises(ValueError):
        parse_matrix_text("2 2\n1 2\n")
    # float arrays are written entry by entry with str and read back exactly
    arr = np.array([[0.1, -0.0], [1e-20, 3.0]])
    text = format_matrix_text(arr)
    assert text == "2 2\n0.1 -0.0\n1e-20 3.0\n"
    assert np.array_equal(parse_matrix_text(text).to_float(), arr)


def test_zero_by_k_matrices_allowed():
    m = RatMatrix.zeros(0, 5)
    assert rank(m) == 0 == m.rows
    rr = rref(m)
    assert rr.rank == 0 and rr.pivot_cols == ()


def _low_rank(rng, rows, cols, k=None):
    k = rng.randint(1, min(rows, cols)) if k is None else k
    return rand_matrix(rng, rows, k, span=4) @ rand_matrix(rng, k, cols, span=4)


def _sparse_rows(rng, rows, cols, span=5):
    """Rows with at most four nonzeros, like verification matrix rows."""
    data = [[Fraction(0)] * cols for _ in range(rows)]
    for row in data:
        for j in rng.sample(range(cols), min(cols, rng.randint(0, 4))):
            row[j] = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    return RatMatrix(rows, cols, data)


def _big_entries(rng, rows, cols):
    return RatMatrix(rows, cols, [[Fraction(rng.randint(-10**6, 10**6),
                                            rng.randint(1, 10**6))
                                   for _ in range(cols)] for _ in range(rows)])


def _to_sympy(sympy, m: RatMatrix):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.data for x in row])


def _check_against_sympy(sympy, m: RatMatrix):
    sm = _to_sympy(sympy, m)
    assert rank(m) == sm.rank()
    rr, (want, want_pivots) = rref(m), sm.rref()
    assert _to_sympy(sympy, rr.matrix) == want
    assert rr.pivot_cols == tuple(want_pivots) and rr.rank == len(want_pivots)
    ns = sm.nullspace()
    kb = kernel_basis(m)
    assert kb.cols == len(ns)
    if ns:  # same span: ours is independent and adds nothing to sympy's
        # DomainMatrix ranks over QQ; Matrix.rank takes seconds on 24 x 14
        assert _to_sympy(sympy, kb).to_DM().rank() == len(ns)
        both = sympy.Matrix.hstack(_to_sympy(sympy, kb), *ns)
        assert both.to_DM().rank() == len(ns)


def test_rank_kernel_charpoly_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    for t in range(80):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = _low_rank(rng, r, c) if t % 2 else rand_matrix(rng, r, c, span=4)
        _check_against_sympy(sympy, m)

        n = rng.randint(1, 6)
        sq = _low_rank(rng, n, n) if t % 2 else rand_matrix(rng, n, n, span=4)
        want = _to_sympy(sympy, sq).charpoly(sympy.Symbol("x")).all_coeffs()
        assert charpoly(sq) == [Fraction(int(q.p), int(q.q)) for q in reversed(want)]
    for k in range(4):
        _check_against_sympy(sympy, RatMatrix.zeros(0, k))
        _check_against_sympy(sympy, RatMatrix.zeros(k, 0))
    for _ in range(6):
        # rank-deficient products B C, inner dimension below both outer ones
        r, c = rng.randint(6, 20), rng.randint(6, 24)
        _check_against_sympy(sympy, _low_rank(rng, r, c,
                                              k=rng.randint(1, min(r, c) - 1)))
        _check_against_sympy(sympy, _sparse_rows(rng, rng.randint(4, 16),
                                                 rng.randint(4, 20)))
        _check_against_sympy(sympy, _big_entries(rng, rng.randint(1, 7),
                                                 rng.randint(1, 7)))


def test_eliminate_entries_within_hadamard_bound():
    # every entry divides a minor of the integer-scaled input, so it is at
    # most the product of the Euclidean norms of the nonzero input rows
    rng = random.Random(5)
    makers = (lambda: rand_matrix(rng, rng.randint(1, 8), rng.randint(1, 10)),
              lambda: _low_rank(rng, rng.randint(2, 10), rng.randint(2, 12)),
              lambda: _sparse_rows(rng, rng.randint(1, 12), rng.randint(1, 14)),
              lambda: _big_entries(rng, rng.randint(1, 6), rng.randint(1, 6)))
    for t in range(200):
        m = makers[t % len(makers)]()
        ints = _int_rows(m)
        bound_sq = 1
        for row in ints:
            if any(row):
                bound_sq *= sum(v * v for v in row)
        for reduced in (False, True):
            rows, pivots = _eliminate([r[:] for r in ints], m.cols, reduced)
            assert len(pivots) == rank(m)
            assert all(x * x <= bound_sq for row in rows for x in row)


def _mixed_matrix(rng, n):
    # denominators with distinct prime factors, so D A has a large D
    dens = (1, 2, 3, 5, 7, 8, 9, 11)
    return RatMatrix(n, n, [[Fraction(rng.randint(-9, 9), rng.choice(dens))
                             if rng.random() < 0.8 else Fraction(0)
                             for _ in range(n)] for _ in range(n)])


def test_charpoly_mixed_denominators_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261019)
    x = sympy.Symbol("x")
    for n in range(1, 9):
        for _ in range(3):
            m = _mixed_matrix(rng, n)
            want = _to_sympy(sympy, m).charpoly(x).all_coeffs()
            assert charpoly(m) == [Fraction(int(q.p), int(q.q))
                                   for q in reversed(want)]


def test_charpoly_of_empty_and_scalar_matrices():
    assert charpoly(RatMatrix.zeros(0, 0)) == [Fraction(1)]
    assert charpoly(RatMatrix.from_rows([[Fraction(-7, 3)]])) == [
        Fraction(7, 3), Fraction(1)]
    assert charpoly(RatMatrix.zeros(1, 1)) == [Fraction(0), Fraction(1)]
    with pytest.raises(ValueError):
        charpoly(RatMatrix.zeros(2, 3))


def test_charpoly_cayley_hamilton():
    # p(A) = 0 exactly, by Horner's rule over RatMatrix products
    rng = random.Random(20261020)
    for n in range(1, 11):
        m = _mixed_matrix(rng, n)
        p = charpoly(m)
        assert p[-1] == 1 and len(p) == n + 1
        acc = RatMatrix.zeros(n, n)
        for c in reversed(p):
            acc = acc @ m + RatMatrix.identity(n).scale(c)
        assert acc.is_zero()


@st.composite
def echelon_cases(draw):
    """(m, bottom): small rational matrices whose rows are often zero,
    repeated or combinations of earlier rows, so that top rows are
    dependent and block rows vanish, with any set of bottom rows."""
    cols = draw(st.integers(0, 6))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            c = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                              max_size=len(rows)))
            rows.append([sum((k * r[j] for k, r in zip(c, rows)), Fraction(0))
                         for j in range(cols)])
        else:
            rows.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    m = RatMatrix(len(rows), cols, rows)
    bottom = draw(st.lists(st.integers(0, max(m.rows - 1, 0)), unique=True,
                           max_size=m.rows)) if m.rows else []
    return m, bottom


@settings(max_examples=200, deadline=None)
@given(echelon_cases())
def test_column_echelon_matches_fraction_route_oracle(case):
    # the integer echelon against the transpose of the rref of the
    # row-permuted transpose, with its block and zero rows read off
    m, bottom = case
    top = [i for i in range(m.rows) if i not in bottom]
    k = len(top)
    rr = rref(m.submatrix(row_idx=top + bottom).transpose())
    want = rr.matrix.transpose()
    ok = all(i in rr.pivot_cols for i in range(k))
    got = column_echelon(m, bottom)
    assert got.matrix == want and got.top_independent == ok
    if ok:
        block = want.submatrix(row_idx=range(k, m.rows), col_idx=range(k, m.cols))
        assert got.block == block
        assert got.bottom_zero_rows == tuple(
            b for i, b in enumerate(bottom) if not any(block.data[i]))
    else:
        assert got.block is None and got.bottom_zero_rows == ()


@settings(max_examples=200, deadline=None)
@given(echelon_cases())
def test_tail_reduction_gives_the_full_block(case):
    # reducing only the vectors past the top pivots leaves them on the
    # lines of the fully reduced ones, so the block, its zero rows and the
    # top test are the same
    m, bottom = case
    cols = _int_rows(m.transpose())
    k = m.rows - len(bottom)
    full = _column_echelon(cols, m.rows, bottom, 0)
    tail = _column_echelon(cols, m.rows, bottom, k)
    assert (tail.pivots, tail.k, tail.top_independent, tail.bottom_zero_rows) \
        == (full.pivots, full.k, full.top_independent, full.bottom_zero_rows)
    r = len(full.pivots)
    for u, v in zip(tail.vectors[k:r], full.vectors[k:r]):
        assert u == v or u == [-x for x in v]
    assert _int_rows(m.transpose()) == cols  # inputs are left alone


def _entries_are_fractions(m):
    assert all(type(x) is Fraction for row in m.data for x in row)
    assert len({id(row) for row in m.data}) == m.rows


def test_constructors_give_fraction_entries_in_own_rows():
    rng = random.Random(7)
    a, b = rand_matrix(rng, 3, 4), rand_matrix(rng, 3, 4)
    sq = rand_matrix(rng, 4, 4)
    made = [RatMatrix.zeros(3, 4), RatMatrix.identity(4), a.copy(),
            a.transpose(), a.submatrix([2, 0], [1, 3]), a.submatrix(),
            a.hstack(b), a + b, a - b, -a, a.scale(3), a.scale("1/2"),
            a @ sq, rref(a).matrix, rref(RatMatrix.zeros(2, 3)).matrix,
            direct_sum(a, sq), RatMatrix.from_rows([[1, 2], [3, "4/5"]])]
    for m in made:
        _entries_are_fractions(m)
    # copies and transposes own their rows: changing one leaves a alone
    before = [row[:] for row in a.data]
    c, t, s = a.copy(), a.transpose(), a.submatrix()
    c[0, 0] = 99
    t[1, 2] = 99
    s[2, 3] = 99
    z = RatMatrix.zeros(2, 2)
    z[0, 0] = 5
    with pytest.raises(ValueError):
        RatMatrix.zeros(-1, 2)
    assert a.data == before and z.data == [[5, 0], [0, 0]]
    assert all(type(x) is Fraction for row in z.data for x in row)


@st.composite
def elimination_cases(draw):
    """(rows, cols, reduce_from): integer rows, often zero or repeated in
    part, as lists or tuples, pivoting in the first cols entries with up to
    three augmented entries after them; reduce_from None, 0 or a row
    index."""
    cols = draw(st.integers(0, 6))
    width = cols + draw(st.integers(0, 3))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.booleans()):
            base = draw(st.sampled_from(rows))
            k = draw(st.integers(-3, 3))
            row = [k * x + (y if draw(st.booleans()) else 0)
                   for x, y in zip(base, draw(st.lists(
                       entry, min_size=width, max_size=width)))]
        else:
            row = draw(st.lists(entry, min_size=width, max_size=width))
        rows.append(tuple(row) if draw(st.booleans()) else row)
    reduce_from = draw(st.one_of(st.none(), st.just(0),
                                 st.integers(0, len(rows))))
    return rows, cols, reduce_from


@settings(max_examples=300, deadline=None)
@given(elimination_cases())
def test_eliminate_matches_dense_oracle(case):
    # combinations formed from the pivot column on give the same rows,
    # row types and pivots as combinations over every entry
    rows, cols, reduce_from = case
    before = [r[:] for r in rows]
    got = _eliminate(list(rows), cols, reduce_from)
    assert got == eliminate_dense(list(rows), cols, reduce_from)
    assert rows == before


@settings(max_examples=200, deadline=None)
@given(echelon_cases())
def test_kernel_bases_match_fraction_rref_oracle(case):
    # kernels read off the integer elimination equal those read off the
    # Fraction rref, shapes included
    m, _ = case
    assert kernel_basis(m) == kernel_basis_rref(m)
    assert left_kernel_basis(m) == left_kernel_basis_rref(m)


def _int_block(ech, nrows):
    """The block B of an integer column echelon as Fractions: entry (i, j)
    is vectors[k + j][k + i] over that vector's pivot entry."""
    k = ech.k
    tail = ech.vectors[k:len(ech.pivots)]
    return [[Fraction(v[k + i], v[c]) for v, c in zip(tail, ech.pivots[k:])]
            for i in range(nrows - k)]


@settings(max_examples=200, deadline=None)
@given(echelon_cases(), st.data())
def test_outputs_do_not_depend_on_row_order(case, data):
    # the pivot of a column is its smallest entry in the first row that has
    # it, so shuffling the rows changes which rows become pivots; every
    # output is a reduced form, which is unique, so none of them changes
    m, bottom = case
    row_perm = data.draw(st.permutations(range(m.rows)))
    col_perm = data.draw(st.permutations(range(m.cols)))
    shuffled = m.submatrix(row_idx=row_perm)
    assert rref(shuffled) == rref(m)
    assert kernel_basis(shuffled) == kernel_basis(m)
    assert rank(shuffled) == rank(m)
    assert _kernel_vectors(_int_rows(shuffled), m.cols) \
        == _kernel_vectors(_int_rows(m), m.cols)
    # _column_echelon eliminates the columns of m: shuffle those
    cols = _int_rows(m.transpose())
    k = m.rows - len(bottom)
    for reduce_from in (0, k):
        want = _column_echelon(cols, m.rows, bottom, reduce_from)
        got = _column_echelon([cols[j] for j in col_perm], m.rows, bottom,
                              reduce_from)
        assert (got.pivots, got.top_independent, got.bottom_zero_rows) \
            == (want.pivots, want.top_independent, want.bottom_zero_rows)
        if want.top_independent:
            assert _int_block(got, m.rows) == _int_block(want, m.rows)


@st.composite
def reduction_cases(draw):
    """(rows, cols, row, how): integer rows with entries up to 1e6 and a row
    that is zero, inside their span or drawn freely."""
    cols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-9, 9),
                      st.integers(-10**6, 10**6))
    rows = [draw(st.lists(entry, min_size=cols, max_size=cols))
            for _ in range(draw(st.integers(0, 6)))]
    how = draw(st.sampled_from(("zero", "span", "free")))
    if how == "zero":
        row = [0] * cols
    elif how == "span":
        c = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                          max_size=len(rows)))
        row = [sum(k * r[j] for k, r in zip(c, rows)) for j in range(cols)]
    else:
        row = draw(st.lists(entry, min_size=cols, max_size=cols))
    return rows, cols, row, how


@settings(max_examples=300, deadline=None)
@given(reduction_cases())
def test_reduce_row_agrees_with_a_second_elimination(case):
    # the one-row pass against an echelon form is nonzero exactly when a
    # second elimination of the echelon rows with the row appended gains a
    # pivot, and its entries stay within the Hadamard bound of those rows
    rows, cols, row, how = case
    ech, pivots = _eliminate([r[:] for r in rows], cols)
    ech = ech[:len(pivots)]
    before = row[:]
    got = _reduce_row(ech, pivots, row)
    grows = len(_eliminate(ech + [row], cols)[1]) == len(pivots) + 1
    assert bool(any(got)) == grows
    if how != "free":
        assert not grows
    bound_sq = 1
    for r in ech + [row]:
        if any(r):
            bound_sq *= sum(v * v for v in r)
    assert all(x * x <= bound_sq for x in got)
    assert row == before
