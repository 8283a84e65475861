"""Spectrum-preserving perturbation by Newton on the isospectral manifold.

liberate() fills a certified set of nonedges with nonzero entries while
keeping the spectrum fixed. Its solver is Newton's method on the matrices
with the target spectrum (Friedland, Nocedal & Overton, SIAM J. Numer.
Anal. 24, 1987): each step factors A = Q diag(lam) Q^T and takes the
minimum-norm change of the free entries that moves the eigenvalues onto the
target and keeps every repeated eigenvalue's block scalar, to first order.
That step system is onto exactly when A has the strong spectral property
relative to the free entries, so the certificate that licenses a growth
step is also what makes the solve well posed, and there Newton converges
quadratically. The solver works on the free entries of the closed pattern
class of the grown graph, so entries outside that pattern are exactly zero
by construction, not merely small.

realize_spectrum() builds matrices with a prescribed spectrum for a few
stock shapes; realize_in_pattern() does the same for an arbitrary pattern
with the same Newton solver from random starts inside S(G), drawing again
when a limit lands in a subpattern or is on its way there;
complete_pattern_low_rank() rounds out a rank-deficient matrix to a full
pattern without raising the rank, by the same minimum-norm Newton loop on
the factor V of V S V^T with its closed-form Jacobian.

All three solvers share one Newton loop with minimum-norm steps. Their
step systems are short and wide, m equations in k >= m unknowns, and onto
where the solver is well posed, so a step is J^T solve(J J^T, r): one m x m
solve. lstsq's least-squares step, an SVD, runs only when that solve fails
(more equations than unknowns, J J^T singular or too ill-conditioned for
the step to solve J dx = r to 1e-6 of max |r|). The loop builds the
Jacobian only for a step it takes, and returns its step count and its
final residual, the max |r| of its stopping test, which the solvers report
rather than re-solve for one: liberate's is the largest deviation of the
grown matrix's eigenvalues from the target, over the target's scale, and
complete_pattern_low_rank's is the largest entry left off the pattern.

They share one attempt contract too: up to max_iter attempts (draws, in
realize_in_pattern), one solve from a new start each. An attempt fails for
one reason: the loop's "not converged" or "non-finite step"; COLLAPSED, an
edge entry below MIN_ENTRY by the one rule _collapsed; "collapsing limit"
(realize only); "output failed the strong-property re-check" (liberate
only). The RuntimeError names the attempt count and the last reason.

Float input is checked by numla, the package's float layer: a matrix or
target spectrum with a NaN or infinite entry raises ValueError before any
solve. Each solver raises ValueError for a tol that is not finite and
positive or a max_iter below 1. The Newton solver holds the coordinates
of a pattern as one (K, 2) array of 0-based (row, column) slots, the
diagonal then the edges, built once per graph (_pattern_slots).

liberate and realize_in_pattern take their steps through a Newton plan
(_newton_plan), the index work of one isospectral step system built once
and shared: the flat positions that scatter the free slots into A, the
row of each diagonal residual, the four flat gathers from Q that make the
Jacobian, and the weight 0.5 on each diagonal slot. A step is one scatter,
one eigh, the residual written at its diagonal rows and one gather for J.
A plan is keyed by the grown graph, the slot held fixed (liberate) or
None (realize), and the target's cluster multiplicities, and up to 64 are
cached; every array in it is read-only, as the cache shares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Graph, add_edges, nonedge_set
from .numla import (SymMatrix, _blocks_generic, _finite_values,
                    multiplicity_list, random_orthogonal, seeded_random,
                    sym_eigen)
from .patterns import _require_order
from .strongprops import (_drop_one_verdicts, has_strong_property,
                          normalize_kind, psi)

EPS_SCHEDULE = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
MIN_ENTRY = 1e-6
COLLAPSE_STEP = 0.1
COLLAPSED = "an edge entry collapsed below %g" % MIN_ENTRY


def _min_norm_newton(system, x, tol):
    """Newton with minimum-norm steps: x -= dx with J dx = r, for
    (r, jacobian) = system(x) and J = jacobian().

    The Jacobian is built only when a step is taken, so never at the
    converged point. Each step is _min_norm_step's. Returns (x, reason, r,
    steps) with reason "converged" once max |r| <= tol, "not converged"
    after 40 steps, or "non-finite step", r the max |r| at the returned x
    (inf after a non-finite step), and steps the number of steps taken.
    """
    x = np.array(x, dtype=float)
    for step in range(40):
        res, jacobian = system(x)
        r = float(np.abs(res).max(initial=0.0))
        if r <= tol:
            return x, "converged", r, step
        x -= _min_norm_step(jacobian(), res, r)
        if not np.isfinite(x).all():
            return x, "non-finite step", math.inf, step + 1
    r = float(np.abs(system(x)[0]).max(initial=0.0))
    return x, "converged" if r <= tol else "not converged", r, 40


def _min_norm_step(jac, res, r):
    """The minimum-norm dx with J dx = res, for r = max |res| > 0.

    When J has no more rows than columns, dx = J^T solve(J J^T, res), one
    small solve, kept when max |J dx - res| <= 1e-6 * r. Otherwise (more
    rows than columns, J J^T singular or too ill-conditioned for that
    test, J not onto) it is lstsq's least-squares step, the pseudoinverse
    of J applied to res. A J J^T that is singular only to rounding can
    give an infinite solve, as for J = [1e-160, 0], so the candidate step
    is formed with numpy's floating-point warnings off: the test rejects
    it, and no warning is raised for a step not taken.
    """
    m, k = jac.shape
    if m <= k:
        with np.errstate(all="ignore"):
            try:
                dx = jac.T @ np.linalg.solve(jac @ jac.T, res)
            except np.linalg.LinAlgError:
                pass
            else:
                if np.abs(jac @ dx - res).max() <= 1e-6 * r:
                    return dx
    return np.linalg.lstsq(jac, res, rcond=None)[0]


def _collapsed(edges) -> bool:
    """Every solver's collapse rule: an edge entry below MIN_ENTRY in size."""
    return bool(np.abs(edges).min(initial=np.inf) < MIN_ENTRY)


def _check_solver_args(tol, max_iter):
    """The solvers' shared refusal: tol finite and positive, max_iter >= 1."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive, got %r" % (tol,))
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1, got %r" % (max_iter,))


@lru_cache(maxsize=64)
def _pattern_slots(g: Graph) -> np.ndarray:
    """Free coordinates of the closed class over g, diagonal then edges, as
    a (K, 2) integer array of 0-based (row, column) pairs. Built once per
    graph and read-only, as the cache shares it."""
    diag = np.arange(g.n)
    edges = np.array(g.edges, dtype=int).reshape(-1, 2) - 1
    slots = np.vstack([np.column_stack([diag, diag]), edges])
    slots.flags.writeable = False
    return slots


def _read_target(tgt):
    """How the Newton solver reads a sorted target spectrum: its scale
    max(1, max|target|), and its cluster multiplicities at 1e-8 * scale,
    one Newton equation per index pair a <= b inside a cluster. eigh's
    error near 1e-15 * scale keeps true repeats in one cluster."""
    scale = max(1.0, float(np.abs(tgt).max()))
    return scale, multiplicity_list(tgt, 1e-8 * scale).multiplicities


@dataclass(frozen=True, eq=False)
class _NewtonPlan:
    """The index arrays of one isospectral step system, as _newton_plan
    builds them, all read-only. Over the K slots of the pattern, the k free
    ones and the m pairs a <= b inside each target cluster, in order:

    free (k,): the free slots' indices among the K;
    slot_put (2, K) and put (2, k): the flat positions in A of every slot's
      and every free slot's (i, j) and (j, i);
    diag (n,): the residual row of each pair (a, a);
    take (4, m, k): the flat positions in Q of Q_ia, Q_jb, Q_ja and Q_ib
      for pair (a, b) and free slot (i, j);
    half (k,): each free slot's weight, 0.5 on the diagonal and 1 off it.
    """
    n: int
    free: np.ndarray
    slot_put: np.ndarray
    put: np.ndarray
    diag: np.ndarray
    take: np.ndarray
    half: np.ndarray

    def matrix(self, x):
        """The symmetric matrix with value x[s] at each slot s, zero off
        the pattern."""
        a = np.zeros(self.n * self.n)
        a[self.slot_put] = x
        return a.reshape(self.n, self.n)

    def jacobian(self, q):
        """d (Q^T A(y) Q)_ab / d y_ij for the pairs (a, b) and the free slots
        (i, j), an (m, k) array: Q_ia Q_jb + Q_ja Q_ib, halved on the
        diagonal to Q_ia Q_ib."""
        qia, qjb, qja, qib = q.take(self.take)
        return (qia * qjb + qja * qib) * self.half


@lru_cache(maxsize=64)
def _newton_plan(g: Graph, frozen, multiplicities) -> _NewtonPlan:
    """The plan of the Newton system over the pattern of g with every slot
    of _pattern_slots(g) free but frozen (None: every slot), toward a
    sorted target with the given cluster multiplicities."""
    n = g.n
    slots = _pattern_slots(g)
    free = np.delete(np.arange(len(slots)), [] if frozen is None else frozen)
    si, sj = slots[free, 0], slots[free, 1]
    ra, rb, pos = [], [], 0
    for m in multiplicities:
        for a in range(pos, pos + m):
            for b in range(a, pos + m):
                ra.append(a)
                rb.append(b)
        pos += m
    ra = np.array(ra, dtype=int)[:, None]
    rb = np.array(rb, dtype=int)[:, None]
    slot_put = np.stack([slots[:, 0] * n + slots[:, 1],
                         slots[:, 1] * n + slots[:, 0]])
    plan = _NewtonPlan(
        n, free, slot_put, slot_put[:, free], np.flatnonzero(ra == rb),
        np.stack([si * n + ra, sj * n + rb, sj * n + ra, si * n + rb]),
        np.where(si == sj, 0.5, 1.0))
    for arr in (plan.free, plan.slot_put, plan.put, plan.diag, plan.take,
                plan.half):
        arr.flags.writeable = False
    return plan


def _isospectral_system(g, frozen, target, full):
    """(system, plan, scale): the Newton system that moves every slot of
    g's pattern but frozen (None: every slot) toward the sorted target,
    its _newton_plan, and the target's scale (_read_target's).
    system(y) writes y into the free slots of A, which holds full's values
    at the other slots, and factors A = Q diag(lam) Q^T, lam matched to the
    target in order. Over the pairs a <= b inside each target cluster its
    residual is lam_a - target_a for a = b and 0 for a < b, and
    jacobian() gives d (Q^T A Q)_ab / d y; the eigenvector rotation
    absorbs every entry between clusters. The system is onto exactly when
    A has the strong spectral property relative to the free slots, and
    there Newton converges quadratically."""
    tgt = np.asarray(target, dtype=float)
    scale, multiplicities = _read_target(tgt)
    plan = _newton_plan(g, frozen, multiplicities)
    a = plan.matrix(full)
    flat = a.reshape(-1)   # a view of a: a step writes its slots through it
    m = plan.take.shape[1]

    def system(y):
        flat[plan.put] = y
        vals, q = np.linalg.eigh(a)
        res = np.zeros(m)
        res[plan.diag] = vals - tgt
        return res, lambda: plan.jacobian(q)
    return system, plan, scale


@dataclass(frozen=True)
class LiberateResult:
    matrix: np.ndarray
    graph: Graph
    residual: float       # max eigenvalue deviation over scale, <= tol
    attempts: int
    eps: float
    seed: object
    min_pattern_entry: float   # smallest edge entry; the diagonal is free
    strong_property_verified: bool

    @property
    def spectrum(self):
        return sym_eigen(self.matrix)[0]


def liberate(a, g: Graph, beta, tol: float = 1e-10, max_iter: int = 40,
             seed=0, kind: str = "ssp") -> LiberateResult:
    """Grow a into the pattern of g plus beta without moving its spectrum.

    beta is prechecked by the drop-one test of the liberation lemma: a must
    have the strong property relative to g + (beta - e) for every e in beta.
    The test is one rank per pair on the verification matrix, exact for
    rational input and by singular values at a relative tolerance for
    floating input; a failing beta raises ValueError.
    Entries on the new pairs are seeded at +-eps over a sweep of magnitudes.
    Attempt k holds the k-th new pair (cycling through beta) at its seed
    value and runs the Newton solver over every other entry of g + beta; by
    the drop-one criterion the precheck makes that step system onto at a.
    An attempt fails by the module's attempt contract, the output's
    strong-property re-check included, and the next attempt re-seeds;
    failure of every attempt is a solver outcome and never contradicts a
    valid certificate. The result's residual is the Newton loop's own: the
    largest deviation of the grown matrix's eigenvalues from a's, over
    max(1, max|eig(a)|), so at most tol.
    """
    _check_solver_args(tol, max_iter)
    kind = normalize_kind(kind)
    if kind != "ssp":
        raise ValueError("spectrum-preserving growth is defined for kind 'ssp'")
    beta = nonedge_set(g, beta)
    if len(beta) == 0:
        raise ValueError("a liberation set must be nonempty")
    arr = np.asarray(a, dtype=float)
    if not all(ok for _, ok in _drop_one_verdicts(psi(a, g, kind), beta.pairs)):
        raise ValueError("the given pairs are not a liberation set here")

    h = add_edges(g, beta.pairs)
    slots = _pattern_slots(h)
    beta_slot_idx = [g.n + h.edges.index(e) for e in beta.pairs]
    target_vals = np.linalg.eigvalsh(arr)
    base = arr[slots[:, 0], slots[:, 1]]
    rng = seeded_random(seed)
    last_err = None
    for attempt in range(1, max_iter + 1):
        eps = EPS_SCHEDULE[(attempt - 1) % len(EPS_SCHEDULE)]
        x = base.copy()
        for k in beta_slot_idx:
            x[k] = eps * (1 if rng.random() < 0.5 else -1)
        if attempt > len(EPS_SCHEDULE):
            x += [rng.gauss(0.0, eps / 10.0) for _ in x]
        # hold one new pair at +-eps so the step system stays onto
        frozen = beta_slot_idx[(attempt - 1) % len(beta_slot_idx)]
        system, plan, scale = _isospectral_system(h, frozen, target_vals, x)
        y, reason, res, _ = _min_norm_newton(system, x[plan.free], tol * scale)
        x[plan.free] = y
        # edge slots only: the diagonal is free and may pass through zero
        if reason == "converged" and _collapsed(x[g.n:]):
            reason = COLLAPSED
        if reason != "converged":
            last_err = reason
            continue
        a_new = plan.matrix(x)
        if not has_strong_property(a_new, h, kind, tol=1e-8).answer:
            last_err = "output failed the strong-property re-check"
            continue
        return LiberateResult(a_new, h, res / scale, attempt, eps, seed,
                              np.abs(x[g.n:]).min(), True)
    raise RuntimeError(
        "continuation did not produce a valid matrix in %d attempts (%s)"
        % (max_iter, last_err))


# ---------------------------------------------------------------------------
# Spectrum realization

def _lanczos_path(values):
    d = np.array(values)
    n = len(d)
    v = np.ones(n) / math.sqrt(n)
    basis = [v]
    alphas = []
    betas = []
    w = d * v
    alphas.append(float(v @ w))
    w = w - alphas[0] * v
    for _ in range(n - 1):
        for u in basis:  # full reorthogonalization
            w = w - (u @ w) * u
        b = float(np.linalg.norm(w))
        if b < 1e-12:
            raise RuntimeError("breakdown: the start vector lost an eigendirection")
        v = w / b
        betas.append(b)
        basis.append(v)
        w = d * v
        a = float(v @ w)
        alphas.append(a)
        w = w - a * v - b * basis[-2]
    j = np.diag(alphas)
    for i, b in enumerate(betas):
        j[i, i + 1] = j[i + 1, i] = b
    return j


def _star_bordered(lo, theta, hi, leaves):
    a = float(lo) + float(hi) - float(theta)
    t2 = (float(theta) - float(lo)) * (float(hi) - float(theta)) / leaves
    t = math.sqrt(t2)
    m = np.full((leaves + 1, leaves + 1), 0.0)
    m[0, 0] = a
    for i in range(1, leaves + 1):
        m[0, i] = m[i, 0] = t
        m[i, i] = float(theta)
    return m


SHAPES = ("path", "star", "complete", "diagonal")


def realize_spectrum(target, shape: str, seed=0, tol: float = 1e-9) -> SymMatrix:
    """A symmetric matrix with the given spectrum in a stock pattern.

    path: all eigenvalues simple (tridiagonal with nonzero subdiagonal).
    star: spectrum (lo, theta^(m-1), hi) with lo < theta < hi; hub is vertex 1.
    complete: any multiset; conjugated by a seeded orthogonal matrix and
    resampled until the pattern is full and every eigenspace is generic.
    diagonal: distinct values on an empty graph.
    """
    values = sorted(_finite_values(target))
    n = len(values)
    if n == 0:
        raise ValueError("empty spectrum")
    ml = multiplicity_list(values, tol=1e-12)
    if shape == "path":
        if max(ml.multiplicities) > 1:
            raise ValueError("a path pattern forces simple eigenvalues")
        out = _lanczos_path(values)
    elif shape == "diagonal":
        if max(ml.multiplicities) > 1:
            raise ValueError("diagonal realization needs distinct values")
        out = np.diag(np.array(values))
    elif shape == "star":
        if n < 3 or len(ml.values) != 3 or ml.multiplicities != (1, n - 2, 1):
            raise ValueError(
                "a star needs spectrum (lo, theta^(n-2), hi) with lo < theta < hi")
        out = _star_bordered(ml.values[0], ml.values[1], ml.values[2], n - 1)
    elif shape == "complete":
        out = _complete_generic(values, seed)
    else:
        raise ValueError("unknown shape %r; choose from %s" % (shape, (SHAPES,)))
    out = SymMatrix(out)
    err = float(np.max(np.abs(out.eigenvalues() - np.array(values))))
    if err > tol * max(1.0, float(np.max(np.abs(values)))):
        raise RuntimeError("realized spectrum off by %.2e" % err)
    return out


def _complete_generic(values, seed):
    n = len(values)
    d = np.diag(np.array(values))
    ml = multiplicity_list(values, tol=1e-12)
    for k in range(60):
        q = random_orthogonal(n, (seed, k))
        a = q @ d @ q.T
        off = a[np.triu_indices(n, 1)]
        if not _collapsed(off) and all(_blocks_generic(q, ml.multiplicities)):
            return a
    raise RuntimeError("no generic completion found in 60 draws")


def realize_in_pattern(g: Graph, spectrum, seed=0, tol: float = 1e-10,
                       max_iter: int = 60) -> np.ndarray:
    """Matrix in S(g) with the given spectrum, by Newton from random starts.

    Each of up to max_iter draws starts inside S(g): the diagonal uniform
    on [min, max] of the spectrum, each edge entry +-U(0.3, 1) times
    max(1, max - min) / 2. The Newton solver runs over every entry. A draw
    fails by the module's attempt contract, or when the limit is
    collapsing: near a subpattern the eigenvalue error is quadratic in the
    vanishing entry, so the solve can meet tol there, and one more
    minimum-norm step moves that entry by about half its size. A limit
    where that step moves an edge entry by COLLAPSE_STEP of its size or
    more is refused, so an infeasible target surfaces as limits in a
    subpattern or collapsing toward one, not as non-convergence. Built
    from the slots, the output is exactly zero off the pattern and in S(g)
    with no re-check; its eigenvalues are within tol * max(1,
    max|spectrum|) of the target.
    """
    _check_solver_args(tol, max_iter)
    values = sorted(_finite_values(spectrum))
    if len(values) != g.n:
        raise ValueError("spectrum size %d does not fit %d vertices"
                         % (len(values), g.n))
    system, plan, scale = _isospectral_system(
        g, None, values, np.zeros(len(_pattern_slots(g))))
    half_spread = max(1.0, values[-1] - values[0]) / 2
    rng = seeded_random(seed)
    last_err = None
    for _ in range(max_iter):
        x0 = [rng.uniform(values[0], values[-1]) for _ in range(g.n)] + [
            (1 if rng.random() < 0.5 else -1) * rng.uniform(0.3, 1.0)
            * half_spread for _ in g.edges]
        x, reason, r, _ = _min_norm_newton(system, x0, tol * scale)
        if reason == "converged" and _collapsed(x[g.n:]):
            reason = COLLAPSED
        if reason != "converged":
            last_err = reason
            continue
        res, jacobian = system(x)
        dx = _min_norm_step(jacobian(), res, r)
        if np.any(np.abs(dx[g.n:]) >= COLLAPSE_STEP * np.abs(x[g.n:])):
            last_err = "collapsing limit"
            continue
        return plan.matrix(x)
    raise RuntimeError(
        "no matrix in the pattern reached the target spectrum in %d draws "
        "(%s)" % (max_iter, last_err))


# ---------------------------------------------------------------------------
# Low-rank pattern completion

def _hole_system(n, signs, holes):
    """Newton system of V S V^T at the 0-based holes, S = diag(signs), in the
    entries of V = x.reshape(n, r): the row of hole (i, j) holds signs * V[j]
    in vertex i's r columns, signs * V[i] in vertex j's, zero elsewhere."""
    r = len(signs)
    hi = np.array([i for i, _ in holes], dtype=int)
    hj = np.array([j for _, j in holes], dtype=int)
    rows = np.arange(len(holes))

    def system(x):
        v = x.reshape(n, r)

        def jacobian():
            jac = np.zeros((len(holes), n, r))
            jac[rows, hi] = v[hj] * signs
            jac[rows, hj] = v[hi] * signs
            return jac.reshape(len(holes), n * r)
        return ((v * signs) @ v.T)[hi, hj], jacobian
    return system


@dataclass(frozen=True)
class LowRankResult:
    matrix: np.ndarray
    graph: Graph
    rank: int
    inertia: tuple           # (positive, negative) counts of the factor core
    off_pattern_residual: float
    attempts: int


def complete_pattern_low_rank(a0, h: Graph, tol: float = 1e-8,
                              max_iter: int = 40, seed=0) -> LowRankResult:
    """Fill the pattern of h starting from a0 without raising its rank.

    The output is V S V^T with V of width rank(a0) and S the signature of
    a0's nonzero spectrum, so its rank cannot exceed the start. Both
    tolerances scale with s = max(1, max|eig(a0)|): eigenvalues of a0 at
    most tol * s count as zero, and Newton on V, with the closed-form
    Jacobian, drives the entries outside h's pattern to 1e-12 * s from a
    perturbed factor of a0. An attempt that fails by the module's attempt
    contract re-draws the start. The result's off_pattern_residual is the
    Newton loop's final residual: the largest |entry| of the output outside
    h's pattern, at most 1e-12 * s.
    """
    _check_solver_args(tol, max_iter)
    vals, q = sym_eigen(a0)
    n = len(vals)
    _require_order(n, h)
    scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    keep = [i for i, v in enumerate(vals) if abs(v) > tol * scale]
    r = len(keep)
    signs = np.array([1.0 if vals[i] > 0 else -1.0 for i in keep])
    v0 = q[:, keep] * np.sqrt(np.abs(vals[keep]))
    system = _hole_system(n, signs, [(i - 1, j - 1) for (i, j) in h.nonedges()])
    rng = seeded_random(seed)
    last_err = None
    for attempt in range(1, max_iter + 1):
        sd = 0.05 * (1 + attempt // 5)
        x0 = v0.reshape(-1) + [rng.gauss(0.0, sd) for _ in range(n * r)]
        x, reason, off, _ = _min_norm_newton(system, x0, 1e-12 * scale)
        if reason != "converged":
            last_err = reason
            continue
        v = x.reshape(n, r)
        a = (v * signs) @ v.T
        if _collapsed([a[i - 1, j - 1] for i, j in h.edges]):
            last_err = COLLAPSED
            continue
        pos = int(np.sum(signs > 0))
        return LowRankResult(a, h, r, (pos, r - pos), off, attempt)
    raise RuntimeError(
        "no completion with the required pattern in %d attempts (%s)"
        % (max_iter, last_err))
