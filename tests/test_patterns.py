import hashlib
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liberatrix.continuation import (complete_pattern_low_rank,
                                    realize_in_pattern, realize_spectrum)
from liberatrix.directsum import directsum_liberation, sylvester_space
from liberatrix.exactla import RatMatrix, commutator
from liberatrix.graphs import build_graph, catalog
from liberatrix.numla import (SymMatrix, is_generic, multiplicity_list,
                              numeric_rank, sym_eigen)
from liberatrix.zeroforcing import zf_liberation
from liberatrix.patterns import (
    CLASS_TAGS,
    SAMPLE_MODES,
    _any_rational,
    _nonzero_rational,
    _pattern_flags,
    in_class,
    pair_position,
    pattern_of,
    sample_S,
)
from oracles import basis_X, vec_square, vec_wedge

SEED = 20260816


def diag_matrix(values):
    n = len(values)
    m = RatMatrix.zeros(n, n)
    for i, v in enumerate(values):
        m[i, i] = Fraction(v)
    return m


def ones_block_plus(lam):
    # 4x4 all-ones block direct-summed with the 1x1 block [lam]
    m = RatMatrix.zeros(5, 5)
    for i in range(4):
        for j in range(4):
            m[i, j] = Fraction(1)
    m[4, 4] = Fraction(lam)
    return m


def test_in_class_basic_memberships():
    d = diag_matrix([1, 2])
    assert in_class(d, build_graph(2, []), "S")
    assert in_class(d, build_graph(2, [(1, 2)]), "S_cl")
    assert not in_class(d, build_graph(2, [(1, 2)]), "S")
    assert not in_class(d, build_graph(2, []), "S_cl0")
    assert in_class(RatMatrix.zeros(2, 2), build_graph(2, []), "S_cl0")

    a = ones_block_plus(4)
    assert in_class(a, catalog("K4uK1"), "S")
    assert in_class(a, catalog("K5"), "S_cl")
    assert not in_class(a, catalog("K5"), "S")


def test_in_class_float_tol():
    arr = np.array([[0.0, 1.0], [1.0, 3e-9]])
    g2 = build_graph(2, [(1, 2)])
    assert in_class(arr, g2, "S_cl0", tol=1e-8)
    assert not in_class(arr, g2, "S_cl0", tol=1e-10)
    assert in_class(np.array([[0.0, 1e-12], [1e-12, 0.0]]), build_graph(2, []), "S")


def test_in_class_errors():
    with pytest.raises(ValueError):
        in_class(diag_matrix([1, 2]), build_graph(3, []), "S")
    with pytest.raises(ValueError):
        in_class(diag_matrix([1, 2]), build_graph(2, []), "weird")
    lopsided = RatMatrix.from_rows([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="not symmetric"):
        in_class(lopsided, build_graph(2, [(1, 2)]), "S")
    g = build_graph(3, [(1, 2), (2, 3)])
    floats = np.array([[1.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0 + 1e-6, 5.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        in_class(floats, g, "S_cl", tol=1e-8)
    # an asymmetry below tol is float noise, not a different matrix
    assert in_class(floats, g, "S", tol=1e-5)


def _flags_oracle(a, g, tol):
    """Entry-by-entry reference for _pattern_flags."""
    exact = isinstance(a, RatMatrix)
    n = g.n

    def hit(x):
        return x != 0 if exact else abs(x) > tol
    for i, j in combinations(range(n), 2):
        x, y = a[i, j], a[j, i]
        if (x != y) if exact else abs(x - y) > tol:
            raise ValueError("matrix is not symmetric")
    inside = all(not hit(a[i - 1, j - 1]) for i, j in g.nonedges())
    alive = all(hit(a[i - 1, j - 1]) for i, j in g.edges)
    return inside, alive, not any(hit(a[i, i]) for i in range(n))


def _pattern_oracle(a, n, tol):
    """Entry-by-entry reference for pattern_of: a pair is an edge when either
    of its entries is nonzero."""
    exact = isinstance(a, RatMatrix)

    def hit(x):
        return x != 0 if exact else abs(x) > tol
    return build_graph(n, [(i + 1, j + 1) for i, j in combinations(range(n), 2)
                           if hit(a[i, j]) or hit(a[j, i])])


TOL = 1e-3
# zero, entries below, at and above tol, and clear nonzeros
LEVELS = (0.0, TOL, -TOL, TOL / 2, 2 * TOL, 1.0, -3.5)


@st.composite
def symmetric_draws(draw):
    n = draw(st.integers(1, 6))
    pairs = list(combinations(range(1, n + 1), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = build_graph(n, [e for e, keep in zip(pairs, mask) if keep])
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = draw(st.sampled_from(LEVELS))
    if draw(st.booleans()):  # make some pair asymmetric, beyond tol or not
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i, j] += draw(st.sampled_from((TOL / 2, 3 * TOL)))
    return g, a


@settings(max_examples=150, deadline=None)
@given(symmetric_draws(), st.booleans())
def test_pattern_flags_match_loop_oracle(case, exact):
    g, a = case
    if exact:
        a = RatMatrix.from_rows(a.tolist())
    # pattern_of reads both mirror entries, so asymmetric draws count too
    assert pattern_of(a, TOL) == _pattern_oracle(a, g.n, TOL)
    try:
        want = _flags_oracle(a, g, TOL)
    except ValueError:
        with pytest.raises(ValueError, match="not symmetric"):
            _pattern_flags(a, g, TOL)
        for cls in CLASS_TAGS:
            with pytest.raises(ValueError, match="not symmetric"):
                in_class(a, g, cls, TOL)
        return
    assert _pattern_flags(a, g, TOL) == want
    inside, alive, zero_diag = want
    assert in_class(a, g, "S", TOL) == (inside and alive)
    assert in_class(a, g, "S_cl", TOL) == inside
    assert in_class(a, g, "S_cl0", TOL) == (inside and zero_diag)


def test_pattern_flags_entry_at_tol_counts_as_zero():
    g = build_graph(2, [(1, 2)])
    at = np.array([[TOL, TOL], [TOL, 0.0]])
    assert _pattern_flags(at, g, TOL) == (True, False, True)
    past = np.nextafter(at, 1.0)
    assert _pattern_flags(past, g, TOL) == (True, True, False)


def test_pattern_of():
    a = ones_block_plus(4)
    assert pattern_of(a) == catalog("K4uK1")
    arr = np.array([[1.0, 2e-9], [2e-9, 5.0]])
    assert pattern_of(arr, tol=1e-8).edges == ()
    assert pattern_of(arr, tol=1e-10).edges == ((1, 2),)


def test_pattern_of_non_finite_raises():
    g = build_graph(3, [(1, 2)])
    for bad in (np.nan, np.inf, -np.inf):
        for slot in ((0, 1), (0, 2), (1, 1)):
            a = np.zeros((3, 3))
            a[slot] = a[slot[::-1]] = bad
            for call in (lambda: pattern_of(a), lambda: in_class(a, g, "S_cl"),
                         lambda: complete_pattern_low_rank(a, g),
                         lambda: sylvester_space(a, np.eye(2)),
                         lambda: directsum_liberation(a, np.eye(2), [(1, 4)]),
                         lambda: sym_eigen(a), lambda: numeric_rank(a),
                         lambda: SymMatrix(a), lambda: is_generic(a[:, :2])):
                with pytest.raises(ValueError, match="non-finite"):
                    call()
    for spectrum in ([1.0, np.nan, 2.0], [np.inf, 0.0, 1.0]):
        for call in (lambda: realize_spectrum(spectrum, "diagonal"),
                     lambda: realize_in_pattern(g, spectrum),
                     lambda: multiplicity_list(spectrum)):
            with pytest.raises(ValueError, match="non-finite"):
                call()


ASYMMETRIC = np.array([[0.0, 1.0], [3.0, 0.0]])


@pytest.mark.parametrize("call", [
    lambda a: SymMatrix(a),
    lambda a: sym_eigen(a),
    lambda a: sylvester_space(a, np.eye(1)),
    lambda a: directsum_liberation(a, np.eye(1), [(1, 3)]),
    lambda a: zf_liberation(a, np.eye(1), [(1, 1)]),
    lambda a: complete_pattern_low_rank(a, catalog("K2")),
], ids=["SymMatrix", "sym_eigen", "sylvester_space", "directsum_liberation",
        "zf_liberation", "complete_pattern_low_rank"])
def test_float_entry_points_refuse_an_asymmetric_matrix(call):
    # read by its lower triangle this is [[0, 3], [3, 0]], eigenvalues +-3;
    # the matrix itself has eigenvalues +-sqrt(3)
    with pytest.raises(ValueError,
                       match="^input is not symmetric within tolerance$"):
        call(ASYMMETRIC)


def test_vec_orderings():
    k = RatMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert vec_wedge(k) == [Fraction(1), Fraction(0), Fraction(0)]
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    sq = vec_square(m)
    assert sq == [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    assert sq[2] == m[1, 0]  # entry (2,1) lands at slot 3 of the flattening

    arr = np.arange(9.0).reshape(3, 3)
    assert vec_wedge(arr) == [1.0, 2.0, 5.0]
    assert len(vec_square(arr)) == 9


def test_pair_position_matches_lex_enumeration():
    n = 6
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for pos, (i, j) in enumerate(pairs):
        assert pair_position(n, i, j) == pos
        v = vec_wedge(basis_X(n, i, j))
        assert v[pos] == 1 and sum(1 for x in v if x != 0) == 1
    with pytest.raises(ValueError):
        pair_position(n, 3, 3)


def test_basis_matrices():
    x = basis_X(4, 2, 4)
    assert x[1, 3] == 1 and x[3, 1] == 1 and x.is_symmetric()
    with pytest.raises(ValueError):
        basis_X(4, 4, 2)
    with pytest.raises(ValueError):
        basis_X(4, 3, 3)


def test_commutator_row_of_verification_matrix():
    # the first nonedge row for the all-ones-plus-[4] matrix, fixed by hand
    a = ones_block_plus(4)
    row = vec_wedge(commutator(a, basis_X(5, 1, 5)))
    assert row == [Fraction(v) for v in (0, 0, 0, -3, 0, 0, 1, 0, 1, 1)]


def test_wedge_vs_square_routing():
    # [A, X] is skew-symmetric; A X usually is not, so it needs the full
    # row-major flattening
    a = ones_block_plus(4)
    x = basis_X(5, 1, 5)
    k = commutator(a, x)
    assert (k + k.transpose()).is_zero()
    ax = a @ x
    assert not (ax - ax.transpose()).is_zero()


def test_sample_unit_mode():
    m = sample_S(build_graph(2, [(1, 2)]), seed=1, mode="unit-off-diagonal")
    assert m.to_float().tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_sample_modes_properties():
    g = catalog("K1,4")
    m = sample_S(g, seed=SEED, mode="random-diagonal-collisions")
    diag = [m[i, i] for i in range(g.n)]
    assert any(diag[i] == diag[j] for i in range(g.n) for j in range(i + 1, g.n))
    assert in_class(m, g, "S")

    g151 = catalog("G151")
    for trial in range(100):
        mode = ("random-rational", "random-diagonal-collisions")[trial % 2]
        m = sample_S(g151, seed=SEED + trial, mode=mode)
        assert in_class(m, g151, "S")

    same = sample_S(g151, seed=42), sample_S(g151, seed=42)
    assert same[0] == same[1]
    with pytest.raises(ValueError):
        sample_S(g, seed=0, mode="nope")
    with pytest.raises(ValueError):
        sample_S(build_graph(1, []), seed=0, mode="random-diagonal-collisions")


def test_sample_seed_policy():
    # an int seed draws exactly what random.Random(int) draws: the edge
    # entries in edge order, then the diagonal
    g = catalog("C5")
    rng = random.Random(SEED)
    a = sample_S(g, seed=SEED)
    assert [a[i - 1, j - 1] for i, j in g.edges] == [
        _nonzero_rational(rng) for _ in g.edges]
    assert [a[i, i] for i in range(g.n)] == [
        _any_rational(rng) for _ in range(g.n)]
    # a tuple seed, as liberate takes, is reproducible and keys its draws
    t = sample_S(g, seed=(1, 2))
    assert t == sample_S(g, seed=(1, 2)) and t != sample_S(g, seed=(1, 3))


# sha256 prefixes of 200 seeded samples per mode, cycling over five graphs;
# the edge numerators are drawn from a fixed tuple, and these pin the draws
SAMPLE_DIGESTS = {
    "unit-off-diagonal": "29fd9833a5eac67d",
    "random-rational": "4564359667cc4be0",
    "random-diagonal-collisions": "460da9bd93ee7374",
}


@pytest.mark.parametrize("mode", SAMPLE_MODES)
def test_sample_draws_are_pinned(mode):
    names = ("P4", "C5", "K1,3", "K4uK1", "C6")
    h = hashlib.sha256()
    for k in range(200):
        a = sample_S(catalog(names[k % len(names)]), seed=k, mode=mode)
        h.update(repr([[str(x) for x in row] for row in a.data]).encode())
    assert h.hexdigest()[:16] == SAMPLE_DIGESTS[mode]
