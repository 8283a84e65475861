import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liberatrix.directsum import (
    directsum_liberation,
    is_generic,
    sylvester_space,
)
from liberatrix.exactla import RatMatrix, direct_sum
from liberatrix.graphs import (EdgeSet, bridge_set, catalog, catalog_entry,
                               disjoint_union)
from liberatrix.liberation import is_liberation_set
from liberatrix.numla import random_orthogonal, sym_eigen
from liberatrix.patterns import pattern_of
from liberatrix.strongprops import has_strong_property
from liberatrix.zeroforcing import zf_liberation
from oracles import is_generic_per_subset

SEED = 20260816


def bordered_star(b, t, leaves=3):
    m = RatMatrix.zeros(leaves + 1, leaves + 1)
    m[0, 0] = Fraction(b)
    for i in range(1, leaves + 1):
        m[0, i] = Fraction(t)
        m[i, 0] = Fraction(t)
    return m


def all_ones(k, a=1):
    m = RatMatrix.zeros(k, k)
    for i in range(k):
        for j in range(k):
            m[i, j] = Fraction(a)
    return m


def c6_matrix():
    a = np.zeros((6, 6))
    for i in range(5):
        a[i, i + 1] = a[i + 1, i] = 1.0
    a[0, 5] = a[5, 0] = -1.0
    return a


def c8_matrix():
    r = math.sqrt(5.0 / 3.0)
    b = np.zeros((8, 8))
    for i in range(7):
        b[i, i + 1] = b[i + 1, i] = 1.0
    b[3, 4] = b[4, 3] = r
    b[0, 7] = b[7, 0] = -r
    return b


def planted(values, seed):
    q = random_orthogonal(len(values), seed)
    return q @ np.diag(values) @ q.T


def test_sylvester_disjoint_and_identity():
    s = sylvester_space(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert s.dimension == 0 and s.common == ()
    s = sylvester_space(np.eye(2), np.eye(2))
    assert s.dimension == 4
    assert s.common == ((1.0, 2, 2),)


def test_sylvester_dimension_counts_products():
    a = planted([0.0, 0.0, 1.0, 2.0], SEED)
    b = planted([0.0, 1.0, 1.0, 5.0, 7.0], SEED + 1)
    s = sylvester_space(a, b)
    assert s.dimension == 2 * 1 + 1 * 2
    assert [(ka, kb) for _, ka, kb in s.common] == [(2, 1), (1, 2)]
    for y in s.basis:
        assert np.max(np.abs(a @ y - y @ b)) <= 1e-9


def test_sylvester_basis_is_built_on_first_read():
    a = planted([0.0, 0.0, 1.0, 2.0], SEED)
    b = planted([0.0, 1.0, 1.0, 5.0, 7.0], SEED + 1)
    s = sylvester_space(a, b)
    assert "basis" not in vars(s)
    assert len(s.basis) == s.dimension and s.basis is s.basis
    # block by block, i then j: the outer products of the blocks' columns
    expect = [np.outer(ua[:, i], ub[:, j]) for ua, ub in s.eigvec_blocks
              for i in range(ua.shape[1]) for j in range(ub.shape[1])]
    assert all(np.array_equal(y, e) for y, e in zip(s.basis, expect))


def test_sylvester_ambiguous_gap_warns():
    a = np.diag([0.0, 5e-8])
    b = np.diag([0.0])
    with pytest.warns(UserWarning):
        s = sylvester_space(a, b, tol=1e-8)
    assert s.ambiguous


def test_ambiguity_warning_points_at_the_caller():
    a, b = np.diag([0.0, 5e-8]), np.diag([0.0])
    for call in (lambda: sylvester_space(a, b, tol=1e-8),
                 lambda: directsum_liberation(a, b, [(1, 3)])):
        with pytest.warns(UserWarning) as rec:
            call()
        gap = [w for w in rec if "clustering tolerance" in str(w.message)]
        assert [w.filename for w in gap] == [__file__]


def test_sylvester_sap_kernel_products():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.zeros((1, 1))
    s = sylvester_space(a, b, kind="sap")
    assert s.dimension == 1
    y = s.basis[0]
    assert np.max(np.abs(a @ y)) <= 1e-9
    assert np.max(np.abs(y @ b)) <= 1e-9
    assert sylvester_space(np.diag([1.0, 2.0]), b, kind="sap").dimension == 0


def test_c6_c8_shared_eigenvalue_space():
    a = c6_matrix()
    b = c8_matrix()
    vals_a, _ = sym_eigen(a)
    vals_b, _ = sym_eigen(b)
    root3 = math.sqrt(3.0)
    root23 = math.sqrt(2.0 / 3.0)
    assert np.allclose(vals_a, [-root3, -root3, 0, 0, root3, root3], atol=1e-9)
    assert np.allclose(
        vals_b, [-2, -2, -root23, -root23, root23, root23, 2, 2], atol=1e-9)
    shifted = a + (root3 - 2.0) * np.eye(6)
    s = sylvester_space(shifted, b)
    assert s.common == ((-2.0, 2, 2),) or (
        len(s.common) == 1 and s.common[0][1:] == (2, 2))
    assert s.dimension == 4
    for y in s.basis:
        assert np.max(np.abs(shifted @ y - y @ b)) <= 1e-9


def test_c6_c8_eigenspace_genericity():
    for mat, special in ((c6_matrix(), 0.0), (c8_matrix(), None)):
        vals, q = sym_eigen(mat)
        start = 0
        while start < len(vals):
            stop = start
            while stop + 1 < len(vals) and vals[stop + 1] - vals[start] < 1e-8:
                stop += 1
            block = q[:, start:stop + 1]
            expected = not (special is not None and abs(vals[start] - special) < 1e-8)
            assert is_generic(block) == expected
            start = stop + 1


def test_is_generic_small_cases():
    assert is_generic(np.array([[1.0], [2.0], [-0.5]]))
    assert not is_generic(np.array([[1.0], [0.0], [2.0]]))
    assert not is_generic(np.vstack([np.eye(2), np.zeros((1, 2))]))
    with pytest.raises(ValueError):
        is_generic(np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))
    assert is_generic(RatMatrix.from_rows([[1], [2], [3]]))
    assert is_generic(RatMatrix.from_rows([[1, 0], [0, 1], [1, 1]]))
    assert not is_generic(RatMatrix.from_rows([[1, 0], [0, 1], [1, 0]]))


def test_is_generic_basis_invariant():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        w = rng.standard_normal((5, 2))
        q = rng.standard_normal((2, 2))
        while abs(np.linalg.det(q)) < 0.2:
            q = rng.standard_normal((2, 2))
        assert is_generic(w) == is_generic(w @ q)


@st.composite
def basis_matrices(draw):
    """n x d matrices, d <= n <= 7, with entries rounded to one decimal, so
    that zero entries and equal rows are common; on request a zero row, two
    proportional rows (every minor holding both is singular), nudged off
    proportional by about the tolerance, or a repeated column
    (rank-deficient)."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(0, n))
    entry = st.floats(-2.0, 2.0).map(lambda v: round(v, 1))
    w = np.array(draw(st.lists(entry, min_size=n * d, max_size=n * d)),
                 dtype=float).reshape(n, d)
    if d >= 1 and draw(st.booleans()):
        w[draw(st.integers(0, n - 1))] = 0.0
    if d >= 2 and draw(st.booleans()):
        r, s = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        w[s] = draw(st.sampled_from((-2.0, 0.5, 1.0, 3.0))) * w[r]
        w[s, draw(st.integers(0, d - 1))] += draw(
            st.sampled_from((0.0, 3e-9, 1e-8, 3e-8)))
    if d >= 2 and draw(st.integers(0, 3)) == 0:
        w[:, d - 1] = w[:, 0]
    return w * draw(st.sampled_from((1e-3, 1.0, 1e3)))


@settings(max_examples=300, deadline=None)
@given(basis_matrices())
# a minor of rows 1 and 2 at 0.7 and 1.2 times the tolerance
@example(np.array([[1.0, 0.0], [1.0, 7e-9], [0.0, 1.0]]))
@example(np.array([[1.0, 0.0], [1.0, 1.2e-8], [0.0, 1.0]]))
def test_is_generic_matches_per_subset_oracle(w):
    try:
        expected = is_generic_per_subset(w)
    except ValueError as ex:
        with pytest.raises(ValueError, match=str(ex)):
            is_generic(w)
    else:
        assert is_generic(w) is expected


def test_directsum_wrt_rejects_weak_block():
    bad = direct_sum(all_ones(4), RatMatrix.from_rows([[4]]))  # lacks the property
    with pytest.raises(ValueError, match="first block lacks"):
        directsum_liberation(bad, RatMatrix.from_rows([[9]]), [(1, 6)])


def test_directsum_rejects_non_square_rational_block():
    wide = RatMatrix.from_rows([[1, 0, 2], [0, 1, 0]])
    with pytest.raises(ValueError, match="square"):
        directsum_liberation(wide, RatMatrix.from_rows([[1]]), [(1, 3)])


def test_float_blocks_run_without_warnings():
    # a float block's strong property is the caller's to establish, so a
    # well-separated float call has nothing to warn about
    a = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = directsum_liberation(np.diag([1.0, 2.0]), np.diag([3.0]),
                                    [(1, 3)])
        rep = zf_liberation(a, np.ones((2, 2)),
                            ((1, 1), (2, 1), (3, 2), (4, 2)), kind="sap")
    assert cert.dimension == 0 and cert.answer
    assert rep.combinatorial and rep.algebraic.answer


def test_exact_block_without_the_property_is_refused():
    # J4 + [4]: the 4 shared by the two components breaks SSP
    lacking = RatMatrix.from_rows([[1] * 4 + [0] for _ in range(4)]
                                  + [[0] * 4 + [4]])
    one = RatMatrix.from_rows([[4]])
    with pytest.raises(ValueError,
                       match="^first block lacks the strong property$"):
        directsum_liberation(lacking, one, [(1, 6)])
    with pytest.raises(ValueError,
                       match="^second block lacks the strong property$"):
        directsum_liberation(one, lacking, [(1, 2)])


def test_empty_bridge_list_is_refused():
    with pytest.raises(ValueError, match="liberation set must be nonempty"):
        directsum_liberation(np.diag([1.0, 2.0]), np.diag([1.0]), [])


def test_bridge_edge_set_is_checked_like_a_pair_list():
    one = RatMatrix.from_rows([[1]])
    # the one bridge {1-2} listed twice is not two bridges
    with pytest.raises(ValueError, match="duplicate pair"):
        directsum_liberation(one, one, EdgeSet(((1, 2), (1, 2)),
                                                "bridging", 1))
    with pytest.raises(ValueError, match="expected a bridging pair set"):
        directsum_liberation(one, one, EdgeSet(((1, 2),)))
    with pytest.raises(ValueError, match="built for block size 2, not 1"):
        directsum_liberation(one, all_ones(2), bridge_set(2, 1, [(1, 3)]))
    with pytest.raises(ValueError, match="does not bridge"):
        directsum_liberation(one, one, EdgeSet(((1, 3),), "bridging", 1))
    flipped = directsum_liberation(bordered_star(1, 1), all_ones(2),
                                   EdgeSet(((6, 4), (5, 1)), "bridging", 4))
    assert flipped.beta.pairs == ((1, 5), (4, 6))


def test_g151_directsum_matches_exact_route():
    entry = catalog_entry("G151")
    a1 = bordered_star(1, 1)
    a2 = all_ones(2)
    beta = bridge_set(4, 2, entry.beta)
    cert = directsum_liberation(a1, a2, beta)
    assert cert.answer
    exact = is_liberation_set(direct_sum(a1, a2), entry.base, entry.beta)
    assert exact.answer == cert.answer
    # the layout is none of the recognized sufficient shapes, yet certified
    ok, detail = cert.validator("beta-shape")
    assert not ok and "no recognized" in detail
    assert cert.validator("one-common-eigenvalue")[0]
    assert cert.common[0][1:] == (2, 1)


def test_g151_counterexample_blocks_agree():
    entry = catalog_entry("G151")
    a1 = RatMatrix.from_rows([
        [0, 1, 1, 1],
        [1, -1, 0, 0],
        [1, 0, 0, 0],
        [1, 0, 0, 0]])
    a2 = RatMatrix.from_rows([[0, 1], [1, 1]])
    cert = directsum_liberation(a1, a2, bridge_set(4, 2, entry.beta))
    assert not cert.answer
    per = dict(cert.per_beta_prime)
    assert per[(4, 6)] is False
    exact = is_liberation_set(direct_sum(a1, a2), entry.base, entry.beta)
    assert exact.answer == cert.answer
    assert dict(exact.per_beta_prime) == per


def test_two_stars_grid_despite_nongeneric_kernels():
    a = bordered_star(1, 1)
    b = bordered_star(2, 1)
    beta = [(u, v) for u in (2, 3) for v in (6, 7, 8)]
    cert = directsum_liberation(a, b, beta)
    assert cert.answer
    assert all(ok for _, ok in cert.per_beta_prime)
    assert cert.validator("beta-shape")[0]
    assert not cert.validator("generic-eigenspaces")[0]
    two_stars = disjoint_union(catalog("K1,3"), catalog("K1,3"))
    exact = is_liberation_set(direct_sum(a, b), two_stars, beta)
    assert exact.answer


def test_c6_c8_grid_liberation():
    shifted = c6_matrix() + (math.sqrt(3.0) - 2.0) * np.eye(6)
    beta = [(u, v) for u in (1, 2) for v in (7, 8, 9)]
    cert = directsum_liberation(shifted, c8_matrix(), beta)
    assert cert.answer
    assert cert.validator("generic-eigenspaces")[0]
    assert cert.validator("beta-shape")[0]
    assert cert.dimension == 4


def rank_one_update(c, s, u):
    """c I + s u u^T. With u nowhere zero its pattern is complete, so SSP
    holds vacuously, and c has multiplicity len(u) - 1."""
    k = len(u)
    return RatMatrix.from_rows([[(c if i == j else 0) + s * u[i] * u[j]
                                 for j in range(k)] for i in range(k)])


def weighted_laplacian(k, edges, weights):
    rows = [[Fraction(0)] * k for _ in range(k)]
    for (i, j), w in zip(edges, weights):
        rows[i - 1][j - 1] -= w
        rows[j - 1][i - 1] -= w
        rows[i - 1][i - 1] += w
        rows[j - 1][j - 1] += w
    return RatMatrix.from_rows(rows)


@st.composite
def bridged_blocks(draw):
    """(A, B, beta): exact SSP blocks on 2-4 vertices that share an
    eigenvalue, and a nonempty set of bridges between them. The blocks are
    either c I + s u u^T and c I + t w w^T, sharing c with multiplicities
    (m - 1, n - 1), or weighted Laplacians of connected graphs, sharing 0
    and kept when exact SSP holds."""
    nonzero = st.sampled_from([Fraction(k, d) for k in (-3, -2, -1, 1, 2, 3)
                               for d in (1, 2)])
    rank_one = draw(st.booleans())
    c = Fraction(draw(st.integers(-2, 2)))
    blocks = []
    for _ in range(2):
        k = draw(st.integers(2, 4))
        if rank_one:
            u = draw(st.lists(nonzero, min_size=k, max_size=k))
            blocks.append(rank_one_update(c, draw(nonzero), u))
            continue
        # a random spanning tree, then any of the other pairs
        edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, k + 1)]
        edges += [e for e in combinations(range(1, k + 1), 2)
                  if e not in edges and draw(st.booleans())]
        weights = draw(st.lists(st.integers(1, 3), min_size=len(edges),
                                max_size=len(edges)))
        lap = weighted_laplacian(k, edges, weights)
        assume(has_strong_property(lap, pattern_of(lap), "ssp").answer)
        blocks.append(lap)
    a, b = blocks
    m, n = a.rows, b.rows
    bridges = [(u, v) for u in range(1, m + 1)
               for v in range(m + 1, m + n + 1)]
    beta = draw(st.lists(st.sampled_from(bridges), min_size=1,
                         max_size=min(6, len(bridges)), unique=True))
    return a, b, sorted(beta)


@settings(max_examples=150, deadline=None)
@given(bridged_blocks())
def test_directsum_matches_exact_route_on_random_blocks(case):
    # the direct-sum theorem against the liberation criteria on A + B
    a, b, beta = case
    cert = directsum_liberation(a, b, beta)
    union = disjoint_union(pattern_of(a), pattern_of(b))
    exact = is_liberation_set(direct_sum(a, b), union, beta)
    assert cert.answer == exact.answer
    assert dict(cert.per_beta_prime) == dict(exact.per_beta_prime)


def permuted(a, perm):
    """Row and column i of a become perm[i]."""
    out = RatMatrix.zeros(a.rows, a.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            out[perm[i], perm[j]] = a[i, j]
    return out


@settings(max_examples=60, deadline=None)
@given(bridged_blocks(), st.data())
def test_directsum_relabeling_equivariance(case, data):
    # permuting within each block moves the bridges and nothing else
    a, b, beta = case
    m = a.rows
    sa = data.draw(st.permutations(range(m)))
    sb = data.draw(st.permutations(range(b.rows)))

    def move(e):
        return (sa[e[0] - 1] + 1, m + sb[e[1] - m - 1] + 1)
    cert = directsum_liberation(a, b, beta)
    moved = directsum_liberation(permuted(a, sa), permuted(b, sb),
                                 [move(e) for e in beta])
    assert (moved.answer, moved.dimension) == (cert.answer, cert.dimension)
    assert dict(moved.per_beta_prime) == {move(e): ok
                                          for e, ok in cert.per_beta_prime}
