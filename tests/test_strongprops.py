import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liberatrix.exactla import (RatMatrix, _int_rows, charpoly, commutator,
                                direct_sum, poly_gcd, rank)
from liberatrix.graphs import add_edges, build_graph, catalog, disjoint_union
from liberatrix.patterns import (SAMPLE_MODES, basis_X, sample_S, vec_square,
                                 vec_wedge)
from liberatrix.strongprops import (
    _selected_rank,
    has_strong_property,
    has_strong_property_wrt,
    numeric_strong_property,
    psi,
    spectra_disjoint,
    wrt_kernel_check,
)

SRC = Path(__file__).resolve().parents[1] / "src"

SEED = 20260816

PSI_K4K1 = [
    [0, 0, 0, -3, 0, 0, 1, 0, 1, 1],
    [0, 0, 0, 1, 0, 0, -3, 0, 1, 1],
    [0, 0, 0, 1, 0, 0, 1, 0, -3, 1],
    [0, 0, 0, 1, 0, 0, 1, 0, 1, -3],
]


def ones_block_plus(lam, n=4):
    m = RatMatrix.zeros(n + 1, n + 1)
    for i in range(n):
        for j in range(n):
            m[i, j] = Fraction(1)
    m[n, n] = Fraction(lam)
    return m


def k4k1():
    return ones_block_plus(4), catalog("K4uK1")


def test_psi_two_isolated_vertices():
    a = RatMatrix.from_rows([[1, 0], [0, 2]])
    g = build_graph(2, [])
    vm = psi(a, g, "ssp")
    assert vm.rows == ((1, 2),)
    assert vm.matrix == RatMatrix.from_rows([[-1]])
    vm = psi(a, g, "sap")
    assert vm.matrix == RatMatrix.from_rows([[0, 1, 2, 0]])


def test_psi_k4k1_matches_fixed_matrix():
    a, g = k4k1()
    vm = psi(a, g, "ssp")
    assert vm.rows == ((1, 5), (2, 5), (3, 5), (4, 5))
    assert vm.matrix == RatMatrix.from_rows(PSI_K4K1)
    assert vm.row_index((5, 2)) == 1


@st.composite
def patterned_matrices(draw):
    n = draw(st.integers(2, 8))
    pairs = list(combinations(range(1, n + 1), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = build_graph(n, [e for e, keep in zip(pairs, mask) if keep])
    mode = draw(st.sampled_from(SAMPLE_MODES))
    return g, sample_S(g, seed=draw(st.integers(0, 2**32)), mode=mode)


@settings(max_examples=80, deadline=None)
@given(patterned_matrices(), st.sampled_from(("ssp", "sap")), st.booleans())
def test_closed_form_rows_match_commutator_oracle(case, kind, exact):
    # the dense construction the closed form replaced, kept as the reference
    g, a = case
    if not exact:
        a = a.to_float()
    oracle = []
    for (i, j) in g.nonedges():
        x = basis_X(g.n, i, j)
        if not exact:
            x = x.to_float()
        oracle.append(vec_wedge(commutator(a, x)) if kind == "ssp"
                      else vec_square(a @ x))
    got = psi(a, g, kind).matrix
    if exact:
        ncols = g.n * (g.n - 1) // 2 if kind == "ssp" else g.n * g.n
        want = (RatMatrix.from_rows(oracle) if oracle
                else RatMatrix.zeros(0, ncols))
        assert got == want
    else:
        assert np.array_equal(got, np.array(oracle).reshape(got.shape))


@settings(max_examples=80, deadline=None)
@given(patterned_matrices(), st.sampled_from(("ssp", "sap")), st.data())
def test_selected_rank_matches_rank_of_submatrix(case, kind, data):
    # row subsets eliminated from the cached integer rows give the rank of
    # the rebuilt rational submatrix
    g, a = case
    vm = psi(a, g, kind)
    for _ in range(3):
        idx = sorted(data.draw(st.sets(st.integers(0, len(vm.rows) - 1))
                               if vm.rows else st.just(set())))
        assert _selected_rank(vm, idx) == rank(vm.matrix.submatrix(row_idx=idx))
    assert vm.int_rows == _int_rows(vm.matrix)  # the cache was not altered


def test_forged_obstruction_rejected_under_optimize():
    # the re-check must survive python -O, which strips assert statements
    code = textwrap.dedent("""
        import sys
        from liberatrix.graphs import path_graph
        from liberatrix.patterns import CertificateError, basis_X, sample_S
        from liberatrix.strongprops import _verify_certificate
        g = path_graph(3)
        a = sample_S(g, seed=1)
        x = basis_X(3, 1, 3)  # on the nonedge, but [a, x] has a21 at (2, 3)
        try:
            _verify_certificate(a, "ssp", x, g)
        except CertificateError:
            sys.exit(0 if sys.flags.optimize else 3)
        sys.exit(1)
    """)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_psi_validation():
    a = RatMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        psi(a, build_graph(2, []), "ssp")  # support outside edge set
    with pytest.raises(ValueError):
        psi(a, build_graph(3, [(1, 2)]), "ssp")  # order mismatch
    with pytest.warns(UserWarning):
        psi(RatMatrix.zeros(2, 2), build_graph(2, [(1, 2)]), "ssp")
    with pytest.raises(ValueError):
        psi(a, build_graph(2, [(1, 2)]), "strong")


def test_ones_block_threshold():
    # lam outside {0, n}: property holds; at 0 or n it fails
    for n in (2, 3, 4):
        g = disjoint_union(catalog("K%d" % n), catalog("K1"))
        assert has_strong_property(ones_block_plus(2 if n != 2 else 5, n), g, "ssp").answer
        assert not has_strong_property(ones_block_plus(0, n), g, "ssp").answer
        assert not has_strong_property(ones_block_plus(n, n), g, "ssp").answer


def test_k4k1_failure_certificate():
    a, g = k4k1()
    res = has_strong_property(a, g, "ssp")
    assert not res.answer
    assert res.rank == 3 and res.nullity == 1
    assert len(res.certificate) == 1
    x = res.certificate[0]
    # obstruction is supported on the bridging pairs, commutes with a
    assert not x.is_zero()
    assert (a @ x - x @ a).is_zero()


def test_complete_graph_vacuous():
    a = sample_S(catalog("K5"), seed=3)
    res = has_strong_property(a, catalog("K5"), "ssp")
    assert res.answer and res.rank == 0 and res.rows == ()


def test_wrt_examples():
    a, g = k4k1()
    h = add_edges(g, [(1, 5), (2, 5)])
    assert has_strong_property_wrt(a, g, h, "ssp").answer
    assert wrt_kernel_check(a, g, h, "ssp")
    # relative to g itself: same verdict as the absolute check
    assert has_strong_property_wrt(a, g, g, "ssp").answer is False
    # single bridge added to the lam = n matrix
    h1 = add_edges(g, [(1, 5)])
    assert has_strong_property_wrt(a, g, h1, "ssp").answer
    with pytest.raises(ValueError):
        has_strong_property_wrt(a, h1, g, "ssp")


def test_wrt_monotone_and_kernel_agreement():
    rng = random.Random(SEED)
    names = ["P4", "C5", "K1,3", "P5", "C4", "2K2"]
    for trial in range(40):
        g = catalog(rng.choice(names))
        a = sample_S(g, seed=rng.randrange(10**6),
                     mode=rng.choice(["random-rational", "random-diagonal-collisions"]))
        nonedges = list(g.nonedges())
        rng.shuffle(nonedges)
        cut = rng.randrange(0, len(nonedges) + 1)
        h = add_edges(g, nonedges[:cut]) if cut else g
        extra = [e for e in nonedges[cut:]]
        h2 = add_edges(h, extra[: rng.randrange(0, len(extra) + 1)]) if extra else h
        r1 = has_strong_property_wrt(a, g, h, "ssp")
        assert r1.answer == wrt_kernel_check(a, g, h, "ssp")
        r2 = has_strong_property_wrt(a, g, h2, "ssp")
        if r1.answer:
            assert r2.answer  # fewer rows to keep independent
        rs = has_strong_property_wrt(a, g, h, "sap")
        assert rs.answer == wrt_kernel_check(a, g, h, "sap")


def test_direct_sum_rule_small():
    rng = random.Random(SEED + 7)
    pool = ["P2", "P3", "K3", "K1,3"]
    checked_equal = 0
    for trial in range(24):
        ga = catalog(rng.choice(pool))
        gb = catalog(rng.choice(pool))
        a = sample_S(ga, seed=rng.randrange(10**6))
        b = sample_S(gb, seed=rng.randrange(10**6))
        if not (has_strong_property(a, ga, "ssp").answer
                and has_strong_property(b, gb, "ssp").answer):
            continue
        if trial % 3 == 2:
            b, gb = a, ga  # force a shared spectrum
        ab = direct_sum(a, b)
        gu = disjoint_union(ga, gb)
        expect = spectra_disjoint(a, b)
        assert has_strong_property(ab, gu, "ssp").answer == expect
        if not expect:
            checked_equal += 1
    assert checked_equal >= 3


def test_spectra_disjoint_gcd():
    a = RatMatrix.from_rows([[1, 0], [0, 2]])
    b = RatMatrix.from_rows([[2, 0], [0, 3]])
    assert not spectra_disjoint(a, b)
    assert spectra_disjoint(a, RatMatrix.from_rows([[5]]))
    g = poly_gcd(charpoly(a), charpoly(b))
    assert len(g) == 2  # shared root lambda = 2


def test_shift_leaves_commutator_rows_alone():
    a, g = k4k1()
    shifted = a + RatMatrix.identity(5).scale(Fraction(7, 3))
    assert psi(shifted, g, "ssp").matrix == psi(a, g, "ssp").matrix


def test_numeric_agrees_with_exact():
    rng = random.Random(SEED + 9)
    for trial in range(25):
        g = catalog(rng.choice(["P4", "K1,3", "C5", "K4uK1"]))
        a = sample_S(g, seed=rng.randrange(10**6))
        for kind in ("ssp", "sap"):
            exact = has_strong_property(a, g, kind).answer
            approx = numeric_strong_property(a.to_float(), g, kind).answer
            assert exact == approx
    a, g = k4k1()
    res = numeric_strong_property(a, g, "ssp")
    assert not res.answer and res.rank == 3
