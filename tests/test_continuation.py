import os
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liberatrix import continuation
from liberatrix.continuation import (
    COLLAPSE_STEP,
    MIN_ENTRY,
    _hole_system,
    _isospectral_system,
    _jacobian,
    _min_norm_newton,
    _min_norm_step,
    _pattern_slots,
    _read_target,
    complete_pattern_low_rank,
    liberate,
    realize_in_pattern,
    realize_spectrum,
)
from liberatrix.directsum import is_generic
from liberatrix.exactla import RatMatrix, direct_sum
from liberatrix.graphs import (Graph, add_edges, build_graph, catalog,
                               cycle_graph, path_graph)
from liberatrix.numla import sym_eigen
from liberatrix.liberation import is_liberation_set
from liberatrix.patterns import SAMPLE_MODES, in_class, pattern_of, sample_S
from liberatrix.replays import _subseed
from liberatrix.strongprops import has_strong_property, psi

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


def test_liberate_residual_is_the_eigenvalue_deviation():
    # the residual is the Newton loop's last measurement; it must equal, bit
    # for bit, the largest deviation of the output's eigenvalues from a's
    # over scale, recomputed here, and stay within tol
    cases = [(ones_block_plus(4), catalog("K4uK1"), [(3, 5), (4, 5)]),
             (block_diag(bordered_star(1.0, 1.0), np.ones((2, 2))),
              catalog("G151-base"), [(3, 5), (4, 5), (2, 6), (4, 6)])]
    for a, g, beta in cases:
        target = np.linalg.eigvalsh(np.asarray(a, dtype=float))
        scale = max(1.0, float(np.max(np.abs(target))))
        for seed, tol in product((0, 1, 2), (1e-10, 1e-6)):
            res = liberate(a, g, beta, tol=tol, seed=seed)
            got = np.linalg.eigh(res.matrix)[0]
            want = float(np.max(np.abs(got - target))) / scale
            assert res.residual == want <= tol


def system_of(residual, jacobian):
    """A Newton system: the residual, and its Jacobian built on demand."""
    return lambda x: (np.array(residual(x)), lambda: np.array(jacobian(x)))


# x^2 = 2, which Newton solves from x = 1
ROOT2 = system_of(lambda x: [x[0] ** 2 - 2.0], lambda x: [[2.0 * x[0]]])
# x = 1 and x = -1 at once: more equations than unknowns
SPLIT = system_of(lambda x: [x[0] - 1.0, x[0] + 1.0], lambda x: [[1.0], [1.0]])
# x0 + x1/3 = 1 and 3 x0 + x1 = 0 at once: a square Jacobian of rank one,
# whose J J^T rounds to an invertible matrix, so the solve succeeds and
# only the residual test sees that its step is wrong
RANK_ONE = system_of(lambda x: [x[0] + x[1] / 3.0 - 1.0, 3.0 * x[0] + x[1]],
                     lambda x: [[1.0, 1.0 / 3.0], [3.0, 1.0]])


def lstsq_newton(system, x, tol):
    """The Newton loop with every step lstsq's: the reference wherever the
    J J^T step is rejected."""
    x = np.array(x, dtype=float)
    for _ in range(40):
        res, jacobian = system(x)
        r = float(np.max(np.abs(res), initial=0.0))
        if r <= tol:
            return x, "converged", r
        x -= np.linalg.lstsq(jacobian(), res, rcond=None)[0]
        if not np.all(np.isfinite(x)):
            return x, "non-finite step", np.inf
    r = float(np.max(np.abs(system(x)[0]), initial=0.0))
    return x, "converged" if r <= tol else "not converged", r


def count_lstsq(monkeypatch):
    calls = [0]
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls[0] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls


def test_min_norm_newton_returns_the_residual_at_its_x():
    # converges, and r is |x^2 - 2| at the returned x
    x, reason, r, steps = _min_norm_newton(ROOT2, [1.0], 1e-12)
    assert reason == "converged"
    assert r == abs(x[0] ** 2 - 2.0) <= 1e-12
    assert 0 < steps < 40
    # the least-squares step of SPLIT lands on x = 0, up to rounding, so
    # after 40 steps r is max |r(x)|, about 1
    x, reason, r, steps = _min_norm_newton(SPLIT, [3.0], 1e-12)
    assert (reason, steps) == ("not converged", 40)
    assert r == float(np.max(np.abs(SPLIT(x)[0])))
    assert r == pytest.approx(1.0)
    # a step of 1e300 / 1e-300 overflows to infinity
    blowup = system_of(lambda x: [1e300], lambda x: [[1e-300]])
    x, reason, r, steps = _min_norm_newton(blowup, [0.0], 1e-12)
    assert (reason, steps) == ("non-finite step", 1)
    assert r == np.inf and not np.all(np.isfinite(x))


def test_min_norm_step_matches_lstsq_on_onto_systems():
    # a random onto J, m <= k, at a random scale with singular values
    # within a factor 100 of each other: J J^T is invertible, and its step
    # is the minimum-norm one that lstsq gives
    rng = np.random.default_rng(SEED)
    for m, k in [(1, 1), (1, 5), (3, 3), (6, 18), (9, 12), (20, 40)] * 20:
        u = np.linalg.qr(rng.normal(size=(m, m)))[0]
        v = np.linalg.qr(rng.normal(size=(k, m)))[0]
        sv = rng.uniform(0.1, 10.0, size=m) * 10.0 ** rng.uniform(-3, 3)
        jac = (u * sv) @ v.T
        res = rng.normal(size=m)
        got = _min_norm_step(jac, res, float(np.max(np.abs(res))))
        want = np.linalg.lstsq(jac, res, rcond=None)[0]
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("jac", [[[1e-160, 0.0]], [[1e-160, 0.0], [0.0, 1.0]],
                                 [[1e-300]], [[1.0, 1.0 / 3.0], [3.0, 1.0]]])
def test_min_norm_step_falls_back_without_warnings(jac):
    # J J^T is singular, or singular only to rounding: [1e-160, 0] gives
    # 1e-320 and an infinite solve. The step is lstsq's, and the rejected
    # candidate raises no overflow or invalid-value warning
    jac = np.array(jac)
    res = np.ones(len(jac))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _min_norm_step(jac, res, 1.0)
    assert np.array_equal(got, np.linalg.lstsq(jac, res, rcond=None)[0])


@pytest.mark.parametrize("system, x0", [(SPLIT, [3.0]), (RANK_ONE, [0.3, -2.0])],
                         ids=["split", "rank-one"])
def test_newton_takes_the_lstsq_step_where_the_solve_fails(system, x0,
                                                          monkeypatch):
    want = lstsq_newton(system, x0, 1e-12)
    calls = count_lstsq(monkeypatch)
    x, reason, r, steps = _min_norm_newton(system, x0, 1e-12)
    assert (reason, steps) == ("not converged", 40) == (want[1], calls[0])
    assert np.array_equal(x, want[0]) and r == want[2]


def test_newton_builds_one_jacobian_per_step():
    built = [0]

    def counting(x):
        res, jacobian = ROOT2(x)

        def counted():
            built[0] += 1
            return jacobian()
        return res, counted

    # from sqrt(2) the loop has converged at the start: no step, no Jacobian
    for x0, least in (([2.0 ** 0.5], 0), ([1.0], 1), ([30.0], 5)):
        built[0] = 0
        x, reason, r, steps = _min_norm_newton(counting, x0, 1e-12)
        assert reason == "converged"
        assert built[0] == steps >= least
        assert (steps == 0) == (least == 0)


def test_liberate_builds_one_jacobian_per_newton_step(monkeypatch):
    built, steps = [0], [0]
    jacobian, newton = continuation._jacobian, continuation._newton

    def counting_jacobian(*args):
        built[0] += 1
        return jacobian(*args)

    def counting_newton(*args):
        out = newton(*args)
        steps[0] += out[3]
        return out

    monkeypatch.setattr(continuation, "_jacobian", counting_jacobian)
    monkeypatch.setattr(continuation, "_newton", counting_newton)
    liberate(ones_block_plus(4), catalog("K4uK1"), [(3, 5), (4, 5)])
    assert built[0] == steps[0] > 0


@pytest.mark.parametrize("seed", range(3))
def test_k4k1_liberate_never_calls_lstsq(seed, monkeypatch):
    # every step system of this growth is onto and well conditioned, so
    # each step is one J J^T solve
    calls = count_lstsq(monkeypatch)
    res = liberate(ones_block_plus(4), catalog("K4uK1"), [(3, 5), (4, 5)],
                   seed=seed)
    assert res.residual <= 1e-10
    assert calls[0] == 0


def test_liberate_rejects_bad_set():
    a = ones_block_plus(4)
    g = catalog("K4uK1")
    with pytest.raises(ValueError):
        liberate(a, g, [(1, 5)])
    with pytest.raises(ValueError):
        liberate(a, g, [])
    with pytest.raises(ValueError):
        liberate(a, g, [(3, 5), (4, 5)], kind="sap")


# one call per solver on input it can solve, so only the parameter is wrong
SOLVER_CALLS = {
    "liberate": lambda **kw: liberate(ones_block_plus(4), catalog("K4uK1"),
                                      [(3, 5), (4, 5)], **kw),
    "realize_in_pattern": lambda **kw: realize_in_pattern(
        path_graph(3), [-1.0, 0.0, 1.0], **kw),
    "complete_pattern_low_rank": lambda **kw: complete_pattern_low_rank(
        block_diag(np.roll(np.eye(4), 1, 0) + np.roll(np.eye(4), -1, 0),
                   np.ones((2, 2))), catalog("prism"), seed=SEED, **kw),
}


def test_low_rank_refuses_a_zero_tol():
    # at tol = 0 every rounding-level eigenvalue of the rank-2 start would
    # count as nonzero, and the completion would come out at rank 5
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        complete_pattern_low_rank(block_diag(np.ones((4, 4)), np.ones((2, 2))),
                                  catalog("prism"), tol=0.0)


@pytest.mark.parametrize("solver", sorted(SOLVER_CALLS))
@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
def test_solvers_refuse_a_bad_tol(solver, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        SOLVER_CALLS[solver](tol=tol)


@pytest.mark.parametrize("solver", sorted(SOLVER_CALLS))
@pytest.mark.parametrize("max_iter", [0, -3])
def test_solvers_refuse_a_bad_max_iter(solver, max_iter):
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        SOLVER_CALLS[solver](max_iter=max_iter)


@pytest.mark.parametrize("solver", sorted(SOLVER_CALLS))
def test_solvers_run_at_one_attempt(solver):
    # max_iter = 1 is the smallest allowed; each call here succeeds at once
    SOLVER_CALLS[solver](max_iter=1)


@st.composite
def beta_draws(draw):
    """A sample_S matrix on 3 to 7 vertices with 1 to 4 of its nonedges."""
    n = draw(st.integers(3, 7))
    pairs = list(combinations(range(1, n + 1), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    if all(mask):
        mask[draw(st.integers(0, len(pairs) - 1))] = False
    g = build_graph(n, [e for e, keep in zip(pairs, mask) if keep])
    mode = draw(st.sampled_from(SAMPLE_MODES))
    a = sample_S(g, seed=draw(st.integers(0, 2**32)), mode=mode)
    beta = draw(st.lists(st.sampled_from(g.nonedges()), min_size=1,
                         max_size=4, unique=True))
    return a, g, beta


@settings(max_examples=60, deadline=None)
@given(beta_draws(), st.booleans())
def test_liberate_precheck_matches_is_liberation_set(case, exact):
    a, g, beta = case
    expect = is_liberation_set(a, g, beta).answer
    try:
        liberate(a if exact else np.asarray(a, dtype=float), g, beta,
                 max_iter=1)
    except ValueError:
        assert not expect
    except RuntimeError:
        assert expect  # a solver outcome, only reachable past the precheck
    else:
        assert expect


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


R3 = float(np.sqrt(3.0))
# Spectra whose Newton limits often land in a subpattern, an edge entry
# driven to zero.
COLLAPSING = {
    "C6 (-r3)^2 0^2 (r3)^2": (cycle_graph(6), [-R3, -R3, 0, 0, R3, R3]),
    "C5 1,2,2": (cycle_graph(5), [0.0, 1.0, 1.0, 2.0, 2.0]),
    "C5 2,2,1": (cycle_graph(5), [0.0, 0.0, 1.0, 1.0, 2.0]),
}


def assert_realizes(a, g, target, tol=1e-10):
    target = np.sort(np.asarray(target, dtype=float))
    scale = max(1.0, float(np.max(np.abs(target))))
    assert np.array_equal(a, a.T)
    assert in_class(a, g, "S", tol=MIN_ENTRY / 2)
    assert np.max(np.abs(np.linalg.eigvalsh(a) - target)) <= tol * scale


FORK = build_graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)])


@pytest.mark.parametrize("g", [FORK, cycle_graph(5), cycle_graph(6)],
                         ids=["fork", "C5", "C6"])
def test_realize_in_pattern_output_is_in_the_pattern(g):
    # realize_in_pattern returns without re-checking its pattern: the
    # membership check of assert_realizes must hold on every output
    probe = sample_S(g, seed=SEED, mode="random-rational").to_float()
    target = sym_eigen(probe)[0]
    for seed in range(10):
        assert_realizes(realize_in_pattern(g, target, seed=seed), g, target)


def count_newton(monkeypatch):
    """Wrap _min_norm_newton; the list records each solve's (reason, steps)."""
    solves = []
    newton = continuation._min_norm_newton

    def counting(*args):
        out = newton(*args)
        solves.append((out[1], out[3]))
        return out

    monkeypatch.setattr(continuation, "_min_norm_newton", counting)
    return solves


# Half the Newton solves over seeds 0-19 that a re-solve from the collapsed
# limit took with every entry free (767, 157 and 108): a fresh draw, every
# entry re-seeded inside S(G), must do at least that well.
RESEED_SOLVES = {
    "C6 (-r3)^2 0^2 (r3)^2": 383,
    "C5 1,2,2": 78,
    "C5 2,2,1": 54,
}


@pytest.mark.parametrize("case", sorted(COLLAPSING))
def test_realize_in_pattern_holds_a_reseeded_entry(case, monkeypatch):
    # some draw collapses on each spectrum, and the re-seeded draws after it
    # hold every edge entry off zero in the output
    g, target = COLLAPSING[case]
    solves = count_newton(monkeypatch)
    for seed in range(20):
        assert_realizes(realize_in_pattern(g, target, seed=seed), g, target)
    assert 20 < len(solves) <= RESEED_SOLVES[case]


# The Newton solves over seeds 0-19 that re-solves holding each collapsed
# entry off zero took (130 on C6 at one held entry per re-solve, 46 and 48
# on C5): the most realize_in_pattern may take.
HELD_SET_SOLVES = {
    "C6 (-r3)^2 0^2 (r3)^2": 130,
    "C5 1,2,2": 46,
    "C5 2,2,1": 48,
}


@pytest.mark.parametrize("case", sorted(COLLAPSING))
def test_realize_in_pattern_keeps_held_entries_held(case, monkeypatch):
    # an accepted limit holds its edge entries: one more minimum-norm step
    # there moves none by COLLAPSE_STEP of its size
    g, target = COLLAPSING[case]
    solves = count_newton(monkeypatch)
    slots = _pattern_slots(g)
    for seed in range(20):
        a = realize_in_pattern(g, target, seed=seed)
        assert_realizes(a, g, target)
        x = a[slots[:, 0], slots[:, 1]]
        system, _ = _isospectral_system(g.n, slots, range(len(slots)),
                                        sorted(target), np.zeros(len(slots)))
        res, jacobian = system(x)
        r = float(np.max(np.abs(res)))
        if r > 0:
            dx = _min_norm_step(jacobian(), res, r)
            assert np.all(np.abs(dx[g.n:]) < COLLAPSE_STEP * np.abs(x[g.n:]))
    assert len(solves) <= HELD_SET_SOLVES[case]


# The most Newton steps realize_in_pattern may take over seeds 0-99 on each
# spectrum, about 10% above what it takes (1311, 709, 694, 1979 and 716).
REALIZE_STEPS = {
    "C6 (-r3)^2 0^2 (r3)^2": 1450,
    "C5 1,2,2": 800,
    "C5 2,2,1": 800,
    "fork 1,2,1,1": 2200,
    "C4 2,2": 800,
}
REALIZE_CASES = dict(COLLAPSING, **{
    "fork 1,2,1,1": (FORK, [0.0, 1.0, 1.0, 2.0, 3.0]),
    "C4 2,2": (cycle_graph(4), [0.0, 0.0, 1.0, 1.0]),
})


@pytest.mark.parametrize("case", sorted(REALIZE_CASES))
def test_realize_in_pattern_converges_from_starts_in_the_pattern(
        case, monkeypatch):
    g, target = REALIZE_CASES[case]
    solves = count_newton(monkeypatch)
    for seed in range(100):
        assert_realizes(realize_in_pattern(g, target, seed=seed), g, target)
    assert {reason for reason, _ in solves} == {"converged"}
    assert sum(steps for _, steps in solves) <= REALIZE_STEPS[case]


REASONS = ("not converged", "non-finite step",
           "an edge entry collapsed below %g" % MIN_ENTRY, "collapsing limit")


# Lists no matrix in S(G) has: C5 and P4 have Z(G) = 2, and the extreme
# eigenvalues of a tree are simple
@pytest.mark.parametrize("g, target", [
    (cycle_graph(5), [0.0, 1.0, 1.0, 1.0, 2.0]),
    (path_graph(4), [0.0, 1.0, 1.0, 2.0]),
    (catalog("K1,3"), [0.0, 0.0, 1.0, 2.0]),
], ids=["C5 1,3,1", "P4 1,2,1", "K1,3 2,1,1"])
def test_realize_in_pattern_refuses_within_a_step_budget(g, target,
                                                         monkeypatch):
    # each refusal runs all 60 draws
    solves = count_newton(monkeypatch)
    for seed in range(10):
        del solves[:]
        with pytest.raises(RuntimeError, match="in 60 draws") as err:
            realize_in_pattern(g, target, seed=seed)
        assert str(err.value).endswith(tuple("(%s)" % r for r in REASONS))
        assert sum(steps for _, steps in solves) <= 400


def test_realize_in_pattern_refuses_collapsing_limits():
    # the solve can meet tol on the way to a subpattern, where the
    # eigenvalue error is quadratic in the vanishing entry, with edge
    # entries near 3e-6; no matrix in the pattern has these lists: a triple
    # eigenvalue on K1,3 (Z = 2), a repeated extreme eigenvalue on the tree
    # K1,4
    k13, k14 = catalog("K1,3"), catalog("K1,4")
    for seed in range(20):
        with pytest.raises(RuntimeError):
            realize_in_pattern(k13, [0.0, 1.0, 1.0, 1.0], seed=seed)
    for target in ([0.0, 1.0, 2.0, 2.0, 2.0], [0.0, 0.0, 0.0, 1.0, 2.0]):
        for seed in range(3):
            with pytest.raises(RuntimeError):
                realize_in_pattern(k14, target, seed=seed)
    target = [0.0, 1.0, 1.0, 1.0, 2.0]
    for seed in range(10):
        assert_realizes(realize_in_pattern(k14, target, seed=seed), k14, target)


def test_realize_in_pattern_c6c8_block_seeds():
    g, target = COLLAPSING["C6 (-r3)^2 0^2 (r3)^2"]
    # replays._realize_ssp's seeds, bare and under reproduce("c6c8", 0)
    for base in (0, _subseed(0, "c6fix")):
        for k in range(6):
            a = realize_in_pattern(g, target, seed=_subseed(base, "try", k))
            assert_realizes(a, g, target)


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
    assert has_strong_property(res.matrix, h, "sap", tol=1e-8).answer


@pytest.mark.parametrize("scale", [1e5, 1e7])
def test_complete_prism_from_a_large_start(scale):
    # the rank cut and the Newton target scale with the start, so a large
    # start completes like the unit one
    c4 = np.array([[0, 1, 0, 1],
                   [1, 0, 1, 0],
                   [0, 1, 0, 1],
                   [1, 0, 1, 0]], dtype=float)
    h = catalog("prism")
    res = complete_pattern_low_rank(scale * block_diag(c4, np.ones((2, 2))),
                                    h, seed=SEED)
    assert (res.rank, res.inertia, res.attempts) == (3, (2, 1), 1)
    assert res.off_pattern_residual <= 1e-12 * 2.0 * scale
    assert in_class(res.matrix, h, "S")


def test_low_rank_residual_is_the_largest_off_pattern_entry():
    # the loop's last residual, bit for bit the largest |entry| of the
    # output on h's nonedges
    c4 = np.roll(np.eye(4), 1, axis=1)
    h = catalog("prism")
    for seed in range(5):
        res = complete_pattern_low_rank(
            block_diag(c4 + c4.T, np.ones((2, 2))), h, seed=seed)
        want = max(abs(res.matrix[i - 1, j - 1]) for i, j in h.nonedges())
        assert res.off_pattern_residual == want


def test_complete_rejects_mismatched_order():
    with pytest.raises(ValueError):
        complete_pattern_low_rank(np.eye(3), catalog("prism"))


def test_low_rank_jacobian_matches_central_differences():
    rng = np.random.default_rng(SEED)
    for n, r in ((3, 1), (5, 2), (6, 3), (6, 4)):
        signs = rng.choice((-1.0, 1.0), size=r)
        holes = [(0, n - 1)] + [(i, j) for i in range(n) for j in range(i + 1, n)
                                if (i, j) != (0, n - 1) and rng.random() < 0.5]
        system = _hole_system(n, signs, holes)
        x = rng.normal(size=n * r)
        res, jacobian = system(x)
        jac = jacobian()
        v = x.reshape(n, r)
        assert np.allclose(res, [v[i] @ (signs * v[j]) for i, j in holes])
        h = 1e-5
        fd = np.column_stack([(system(x + h * e)[0] - system(x - h * e)[0]) / (2 * h)
                              for e in np.eye(n * r)])
        # the residual is quadratic, so central differences are exact up
        # to rounding
        assert jac.shape == (len(holes), n * r)
        assert np.allclose(jac, fd, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_complete_prism_from_scaled_blocks(seed):
    rng = np.random.default_rng(seed)
    c1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    c2 = (-1.0) ** seed * rng.uniform(0.5, 2.0)
    ring = np.roll(np.eye(4), 1, axis=1)
    ring = c1 * (ring + ring.T)   # the cycle 1-2-3-4-1
    res = complete_pattern_low_rank(block_diag(ring, np.full((2, 2), c2)),
                                    catalog("prism"), seed=seed)
    assert res.attempts == 1
    assert res.off_pattern_residual <= 1e-12
    assert res.inertia == ((2, 1) if c2 > 0 else (1, 2))
    assert in_class(res.matrix, catalog("prism"), "S")


def test_complete_infeasible_pattern_raises():
    # rank one: v1 v3 = 0 on the hole kills an edge entry v1 v2 or v2 v3
    with pytest.raises(RuntimeError):
        complete_pattern_low_rank(np.diag([1.0, 0.0, 0.0]), path_graph(3))


def newton_step_is_onto(a, h):
    """Full row rank of the Newton step system at a over the slots of h,
    with the target read as the solver reads it."""
    vals, q = sym_eigen(a.to_float())
    jac = _jacobian(q, _read_target(vals)[1], _pattern_slots(h))
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
# eigenvalues 3.8749973 and 3.875, 2.7e-6 apart: distinct, and once read as
# one cluster at 1e-6 * scale
@example((direct_sum(
    RatMatrix.from_rows([[Fraction(-1, 7), 0, 0], [0, Fraction(-89, 5), 0],
                         [0, 0, Fraction(31, 8)]]),
    RatMatrix.from_rows([[Fraction(31, 8), Fraction(-1, 7), 0],
                         [Fraction(-1, 7), Fraction(4, 5), Fraction(-89, 5)],
                         [0, Fraction(-89, 5), Fraction(23, 6)]])),
    build_graph(6, [(4, 5), (5, 6)])))
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
