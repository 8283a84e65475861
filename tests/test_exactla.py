import random
from fractions import Fraction
from itertools import combinations

import pytest

from liberatrix.exactla import (
    RatMatrix,
    _eliminate,
    _int_rows,
    charpoly,
    col_space_contains,
    column_echelon,
    commutator,
    format_matrix_text,
    full_row_rank,
    kernel_basis,
    left_kernel_basis,
    parse_matrix_text,
    poly_gcd,
    poly_mul,
    rank,
    rref,
    solve,
)

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
    assert not full_row_rank(psi)


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
        one_by_one = all(full_row_rank(m.submatrix(row_idx=alpha + [i])) for i in rest)
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
    p = poly_mul(x_minus(1), x_minus(2))
    q = poly_mul(x_minus(2), x_minus(3))
    assert poly_gcd(p, q) == x_minus(2)
    assert poly_gcd(x_minus(1), x_minus(5)) == [Fraction(1)]
    r = poly_mul(p, x_minus(3))
    g = poly_gcd(r, poly_mul(q, x_minus(2)))
    assert g == poly_mul(x_minus(2), x_minus(3)) or g == poly_mul(x_minus(3), x_minus(2))


def test_commutator_and_symmetry_helpers():
    a = RatMatrix.from_rows([[0, 1], [1, 0]])
    b = RatMatrix.from_rows([[1, 0], [0, 2]])
    c = commutator(a, b)
    assert c == RatMatrix.from_rows([[0, 1], [-1, 0]])
    assert a.is_symmetric() and not c.is_symmetric()


def test_matrix_text_round_trip():
    m = RatMatrix.from_rows([[Fraction(1, 2), 3], [Fraction(-7, 3), 0]])
    text = format_matrix_text(m)
    assert text.splitlines()[0] == "2 2"
    assert parse_matrix_text(text) == m
    dec = parse_matrix_text("1 2\n0.5 -2\n")
    assert dec[0, 0] == Fraction(1, 2) and dec[0, 1] == -2
    with pytest.raises(ValueError):
        parse_matrix_text("2 2\n1 2\n")


def test_zero_by_k_matrices_allowed():
    m = RatMatrix.zeros(0, 5)
    assert rank(m) == 0 and full_row_rank(m)
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
