import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liberatrix.continuation import (
    _cluster_pairs,
    _jacobian,
    _pattern_slots,
    charpoly_coeffs,
    complete_pattern_low_rank,
    liberate,
    realize_in_pattern,
    realize_spectrum,
)
from liberatrix.directsum import is_generic
from liberatrix.exactla import RatMatrix, charpoly, direct_sum
from liberatrix.graphs import Graph, add_edges, build_graph, catalog
from liberatrix.numla import multiplicity_list, sym_eigen
from liberatrix.patterns import in_class, pattern_of, sample_S
from liberatrix.strongprops import (has_strong_property,
                                    numeric_strong_property, psi)

SRC = Path(__file__).resolve().parents[1] / "src"

SEED = 20260816


def ones_block_plus(lam, n=4):
    rows = [[1] * n + [0] for _ in range(n)]
    rows.append([0] * n + [lam])
    return RatMatrix.from_rows(rows)


def bordered_star(b, t, leaves=3):
    n = leaves + 1
    m = np.zeros((n, n))
    m[0, 0] = b
    for i in range(1, n):
        m[0, i] = m[i, 0] = t
    return m


def block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    pos = 0
    for b in blocks:
        k = b.shape[0]
        out[pos:pos + k, pos:pos + k] = b
        pos += k
    return out


def test_charpoly_coeffs_match_exact():
    a = ones_block_plus(4)
    got = charpoly_coeffs(a)
    # exactla charpoly is ascending with leading coefficient last
    exact = [float(c) for c in charpoly(a)]
    exact_desc = exact[::-1]
    assert exact_desc[0] == 1.0
    assert np.allclose(got, exact_desc[1:], atol=1e-9)


def test_realize_path():
    values = [-2.0, -1.0, 0.0, 1.0, 3.0]
    out = realize_spectrum(values, "path").array
    n = len(values)
    for i in range(n):
        for j in range(i + 2, n):
            assert out[i, j] == 0.0
    for i in range(n - 1):
        assert out[i, i + 1] > 0
    assert np.allclose(sym_eigen(out)[0], values, atol=1e-9)
    with pytest.raises(ValueError):
        realize_spectrum([1.0, 1.0, 2.0], "path")


def test_realize_star():
    out = realize_spectrum([-1.0, 1.0, 1.0, 3.0], "star").array
    # hub value and border strength have closed forms
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] == pytest.approx(np.sqrt(4.0 / 3.0))
    assert in_class(out, catalog("K1,3"), "S")
    assert np.allclose(sym_eigen(out)[0], [-1, 1, 1, 3], atol=1e-9)
    # wrong multiplicity layout for a star
    with pytest.raises(ValueError):
        realize_spectrum([1.0, 2.0, 3.0, 3.0], "star")


def test_realize_complete_and_diagonal():
    vals = [1.0, 1.0, 4.0]
    out = realize_spectrum(vals, "complete", seed=SEED).array
    assert in_class(out, catalog("K3"), "S")
    assert np.allclose(sym_eigen(out)[0], vals, atol=1e-9)

    d = realize_spectrum([2.0, 5.0, 9.0], "diagonal").array
    assert np.allclose(d, np.diag([2.0, 5.0, 9.0]))
    with pytest.raises(ValueError):
        realize_spectrum([2.0, 2.0], "diagonal")
    with pytest.raises(ValueError):
        realize_spectrum([1.0], "hexagon")
    with pytest.raises(ValueError):
        realize_spectrum([], "path")


def test_realized_symmatrix_is_accepted_like_its_array():
    m = realize_spectrum([-1.0, 0.0, 0.0, 3.0], "star")
    arr = m.array
    g = catalog("K1,3")
    for kind in ("ssp", "sap"):
        got = has_strong_property(m, g, kind)
        want = has_strong_property(arr, g, kind)
        assert (got.answer, got.rank) == (want.answer, want.rank)
    assert np.array_equal(psi(m, g, "ssp").matrix, psi(arr, g, "ssp").matrix)
    assert in_class(m, g, "S") and pattern_of(m) == pattern_of(arr) == g
    beta = [(2, 3), (3, 4)]
    assert np.array_equal(liberate(m, g, beta, seed=SEED).matrix,
                          liberate(arr, g, beta, seed=SEED).matrix)
    c4 = catalog("C4")
    assert np.array_equal(complete_pattern_low_rank(m, c4, seed=SEED).matrix,
                          complete_pattern_low_rank(arr, c4, seed=SEED).matrix)
    k = realize_spectrum([1.0, 2.0, 4.0], "complete", seed=3)
    assert is_generic(k) == is_generic(k.array)


def test_liberate_block_star_plus_edge():
    a = ones_block_plus(4)
    g = catalog("K4uK1")
    beta = [(3, 5), (4, 5)]
    res = liberate(a, g, beta, seed=SEED)
    assert res.residual <= 1e-9
    assert res.strong_property_verified
    # entries off the grown pattern are exactly zero, not just small
    assert res.matrix[0, 4] == 0.0
    assert res.matrix[1, 4] == 0.0
    assert res.min_pattern_entry >= 1e-6
    assert in_class(res.matrix, add_edges(g, beta), "S")
    assert np.allclose(sym_eigen(res.matrix)[0], [0, 0, 0, 4, 4], atol=1e-7)


def test_liberate_zero_diagonal_is_not_a_collapsed_entry():
    # J_4 - I has a zero diagonal; the free diagonal may stay near zero
    a = block_diag(np.ones((4, 4)) - np.eye(4), np.array([[3.0]]))
    beta = [(3, 5), (4, 5)]
    res = liberate(a, catalog("K4uK1"), beta, seed=10)
    assert res.attempts == 1
    edge_min = min(abs(res.matrix[i - 1, j - 1]) for i, j in res.graph.edges)
    assert res.min_pattern_entry == edge_min >= 1e-6
    assert np.allclose(sym_eigen(res.matrix)[0], [-1, -1, -1, 3, 3], atol=1e-7)


def test_liberate_rejects_bad_set():
    a = ones_block_plus(4)
    g = catalog("K4uK1")
    with pytest.raises(ValueError):
        liberate(a, g, [(1, 5)])
    with pytest.raises(ValueError):
        liberate(a, g, [])
    with pytest.raises(ValueError):
        liberate(a, g, [(3, 5), (4, 5)], kind="sap")


def test_liberate_float_family():
    a = block_diag(bordered_star(1.0, 1.0), np.ones((2, 2)))
    base = catalog("G151-base")
    beta = [(3, 5), (4, 5), (2, 6), (4, 6)]
    res = liberate(a, base, beta, seed=SEED)
    assert in_class(res.matrix, catalog("G151"), "S")
    root = np.sqrt(13.0)
    want = sorted([(1 - root) / 2, 0, 0, 0, 2, (1 + root) / 2])
    assert np.allclose(sym_eigen(res.matrix)[0], want, atol=1e-7)


def test_liberate_deterministic():
    a = ones_block_plus(4)
    g = catalog("K4uK1")
    r1 = liberate(a, g, [(3, 5), (4, 5)], seed=3)
    r2 = liberate(a, g, [(3, 5), (4, 5)], seed=3)
    assert np.array_equal(r1.matrix, r2.matrix)


def test_realize_in_pattern_roundtrip():
    g30 = build_graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    probe = sample_S(g30, seed=SEED, mode="random-rational").to_float()
    target = sym_eigen(probe)[0]
    out = realize_in_pattern(g30, target, seed=7)
    assert in_class(out, g30, "S")
    assert np.allclose(sym_eigen(out)[0], target, atol=1e-8)


def test_realize_in_pattern_multiplicity():
    g30 = build_graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    target = [0.0, 2.0, 2.0, 3.0, 5.0]
    out = realize_in_pattern(g30, target, seed=SEED)
    assert in_class(out, g30, "S")
    assert np.allclose(sym_eigen(out)[0], target, atol=1e-8)
    with pytest.raises(ValueError):
        realize_in_pattern(g30, [1.0, 2.0], seed=0)


def test_complete_prism_low_rank():
    c4 = np.array([[0, 1, 0, 1],
                   [1, 0, 1, 0],
                   [0, 1, 0, 1],
                   [1, 0, 1, 0]], dtype=float)
    a0 = block_diag(c4, np.ones((2, 2)))
    h = catalog("prism")
    res = complete_pattern_low_rank(a0, h, seed=SEED)
    assert res.rank == 3
    assert res.inertia == (2, 1)
    assert res.off_pattern_residual <= 1e-10
    assert in_class(res.matrix, h, "S")
    vals = sym_eigen(res.matrix)[0]
    assert int(np.sum(np.abs(vals) <= 1e-8)) == 3
    assert numeric_strong_property(res.matrix, h, "sap", tol=1e-8).answer


def test_complete_rejects_mismatched_order():
    with pytest.raises(ValueError):
        complete_pattern_low_rank(np.eye(3), catalog("prism"))


def newton_step_is_onto(a, h):
    """Full row rank of the Newton step system at a over the slots of h."""
    vals, q = sym_eigen(a.to_float())
    scale = max(1.0, float(np.max(np.abs(vals))))
    pairs = _cluster_pairs(multiplicity_list(vals, 1e-6 * scale).multiplicities)
    jac = _jacobian(q, pairs, _pattern_slots(h))
    tol = 1e-8 * np.linalg.norm(jac, 2)
    return np.linalg.matrix_rank(jac, tol=tol) == jac.shape[0]


@st.composite
def block_sums(draw):
    """The direct sum of B and C over a supergraph of its pattern. C equal
    to B or shifted from it shares eigenvalues with B, so the draws come
    with and without the property."""
    blocks = []
    for _ in range(2):
        n = draw(st.integers(1, 4))
        pairs = list(combinations(range(1, n + 1), 2))
        mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                             max_size=len(pairs)))
        g = build_graph(n, [e for e, keep in zip(pairs, mask) if keep])
        mode = draw(st.sampled_from(("random-rational", "unit-off-diagonal")))
        blocks.append(sample_S(g, seed=draw(st.integers(0, 2**32)), mode=mode))
    b, c = blocks
    second = draw(st.sampled_from(("drawn", "repeat", "shift")))
    if second == "repeat":
        c = b
    elif second == "shift":
        shift = Fraction(draw(st.integers(-3, 3)))
        c = b + RatMatrix.identity(b.rows).scale(shift)
    a = direct_sum(b, c)
    g = pattern_of(a)
    extra = draw(st.lists(st.sampled_from(g.nonedges()), unique=True)
                 if g.nonedges() else st.just([]))
    return a, add_edges(g, extra)


@st.composite
def ones_block_sums(draw):
    lam = draw(st.sampled_from((0, 4, -1, 2)))
    extra = draw(st.lists(st.sampled_from(((1, 5), (2, 5), (3, 5), (4, 5))),
                          unique=True))
    return ones_block_plus(lam), add_edges(catalog("K4uK1"), extra)


@pytest.mark.filterwarnings("ignore:matrix has vanishing entries")
@settings(max_examples=120, deadline=None)
@given(st.one_of(block_sums(), ones_block_sums()))
@example((ones_block_plus(4), catalog("K4uK1")))
@example((ones_block_plus(4), add_edges(catalog("K4uK1"), [(3, 5), (4, 5)])))
def test_newton_step_onto_iff_strong_property(case):
    a, h = case
    assert newton_step_is_onto(a, h) == has_strong_property(a, h, "ssp").answer


def test_liberate_ones_block_takes_one_attempt():
    a = ones_block_plus(4)
    g = catalog("K4uK1")
    for seed in range(20):
        assert liberate(a, g, [(3, 5), (4, 5)], seed=seed).attempts == 1


def test_import_footprint_leaves_out_unused_modules():
    code = textwrap.dedent("""
        import contextlib, io, os, sys, tempfile
        import liberatrix, liberatrix.cli
        from liberatrix import catalog, liberate, realize_in_pattern
        from liberatrix.exactla import RatMatrix, write_matrix
        rows = [[1] * 4 + [0] for _ in range(4)] + [[0] * 4 + [4]]
        liberate(RatMatrix.from_rows(rows), catalog("K4uK1"), [(3, 5), (4, 5)])
        realize_in_pattern(catalog("C5"), [-2.0, -1.0, 0.0, 1.0, 2.5])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "a.txt")
            write_matrix(RatMatrix.from_rows(rows), path)
            with contextlib.redirect_stdout(io.StringIO()):
                codes = (
                    liberatrix.cli.main(["libset", "--check", "--graph",
                                         "catalog:K4uK1", "--matrix", path,
                                         "--beta", "3-5,4-5"]),
                    liberatrix.cli.main(["verify", "--kind", "ssp", "--graph",
                                         "catalog:K4uK1", "--matrix", path]))
        assert codes == (0, 1), codes
        print(" ".join(m for m in ("numpy.random", "concurrent.futures.process",
                                   "liberatrix.replays") if m in sys.modules))
    """)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
