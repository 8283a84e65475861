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
with the same Newton solver from random isospectral starts;
complete_pattern_low_rank() rounds out a rank-deficient matrix to a full
pattern without raising the rank, via a factored parametrization and
Gauss-Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactla import RatMatrix
from .graphs import Graph, add_edges, nonedge_set
from .liberation import is_liberation_set
from .numla import (SymMatrix, multiplicity_list, random_orthogonal,
                    seeded_random, sym_eigen)
from .patterns import in_class
from .strongprops import (_drop_one_verdicts, has_strong_property,
                          normalize_kind, psi)

EPS_SCHEDULE = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
MIN_ENTRY = 1e-6


def charpoly_coeffs(a) -> np.ndarray:
    """Non-leading characteristic polynomial coefficients, degree descending."""
    arr = a.to_float() if isinstance(a, RatMatrix) else np.asarray(a, dtype=float)
    return np.poly(np.linalg.eigvalsh(arr))[1:]


def _gauss_newton(f, x0, tol, max_steps=120):
    """Damped Gauss-Newton with least-squares steps; returns (x, converged)."""
    x = np.array(x0, dtype=float)
    fx = f(x)
    for _ in range(max_steps):
        err = float(np.max(np.abs(fx))) if fx.size else 0.0
        if err <= tol:
            return x, True
        jac = np.zeros((fx.size, x.size))
        for k in range(x.size):
            h = 1e-7 * max(1.0, abs(x[k]))
            xp = x.copy()
            xp[k] += h
            jac[:, k] = (f(xp) - fx) / h
        step, *_ = np.linalg.lstsq(jac, -fx, rcond=None)
        t = 1.0
        while t >= 1.0 / 64.0:
            xn = x + t * step
            fn = f(xn)
            if float(np.max(np.abs(fn))) < err:
                x, fx = xn, fn
                break
            t /= 2.0
        else:
            return x, float(np.max(np.abs(fx))) <= tol
    return x, float(np.max(np.abs(f(x)))) <= tol


def _pattern_slots(g: Graph):
    """Free coordinates of the closed class over g: diagonal then edges."""
    slots = [(i, i) for i in range(g.n)]
    slots.extend((i - 1, j - 1) for (i, j) in g.edges)
    return slots


def _build_from_slots(n, slots, x):
    a = np.zeros((n, n))
    for (i, j), v in zip(slots, x):
        a[i, j] = v
        a[j, i] = v
    return a


def _cluster_pairs(mults):
    """Index pairs a <= b inside each cluster of a sorted spectrum whose
    clusters have the given sizes: one Newton equation each."""
    rows, cols, pos = [], [], 0
    for m in mults:
        for a in range(pos, pos + m):
            for b in range(a, pos + m):
                rows.append(a)
                cols.append(b)
        pos += m
    return np.array(rows, dtype=int), np.array(cols, dtype=int)


def _jacobian(q, pairs, slots):
    """d (Q^T A(x) Q)_ab / d x_ij for the within-cluster pairs (a, b) and
    the slots (i, j): Q_ia Q_jb + Q_ja Q_ib, or Q_ia Q_ib on the diagonal."""
    ra, rb = pairs
    si = np.array([i for i, _ in slots], dtype=int)
    sj = np.array([j for _, j in slots], dtype=int)
    qi, qj = q[si], q[sj]
    jac = qi[:, ra] * qj[:, rb] + qj[:, ra] * qi[:, rb]
    jac[si == sj] *= 0.5
    return jac.T


def _newton(n, slots, free, target, x, tol, max_steps=40):
    """Newton on the isospectral manifold over the slots indexed by free.

    Each step factors A(x) = Q diag(lam) Q^T, with lam matched to the sorted
    target in order. Over the pairs a <= b inside each target cluster it
    takes the minimum-norm dx with (Q^T E(dx) Q)_ab = target_a - lam_a for
    a = b and 0 for a < b, where E(dx) holds dx on the free slots; the
    eigenvector rotation absorbs every entry between clusters. The step
    system is onto exactly when A(x) has the strong spectral property
    relative to the free slots, and there the convergence is quadratic.
    Returns (x, reason) with reason "converged", "not converged" or
    "non-finite step".
    """
    tgt = np.asarray(target, dtype=float)
    scale = max(1.0, float(np.max(np.abs(tgt))))
    pairs = _cluster_pairs(multiplicity_list(tgt, 1e-6 * scale).multiplicities)
    on_diag = pairs[0] == pairs[1]
    free_slots = [slots[k] for k in free]
    x = np.array(x, dtype=float)
    for _ in range(max_steps):
        vals, q = np.linalg.eigh(_build_from_slots(n, slots, x))
        if float(np.max(np.abs(vals - tgt))) <= tol:
            return x, "converged"
        rhs = np.where(on_diag, tgt[pairs[0]] - vals[pairs[0]], 0.0)
        step = np.linalg.lstsq(_jacobian(q, pairs, free_slots), rhs,
                               rcond=None)[0]
        x[free] += step
        if not np.all(np.isfinite(x)):
            return x, "non-finite step"
    vals = np.linalg.eigvalsh(_build_from_slots(n, slots, x))
    ok = float(np.max(np.abs(vals - tgt))) <= tol
    return x, "converged" if ok else "not converged"


@dataclass(frozen=True)
class LiberateResult:
    matrix: np.ndarray
    graph: Graph
    residual: float       # max charpoly-coefficient mismatch over scale
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

    beta must be certified first: for rational input the exact certificate is
    computed; floating input gets the numeric relative-property prechecks.
    Entries on the new pairs are seeded at +-eps over a sweep of magnitudes.
    Attempt k holds the k-th new pair (cycling through beta) at its seed
    value and runs the Newton solver over every other entry of g + beta; by
    the drop-one criterion the certificate makes that step system onto at a.
    An attempt fails when Newton does not converge or takes a non-finite
    step, when an edge entry ends below MIN_ENTRY, or when the output fails
    the strong-property re-check; the next attempt re-seeds. Failure of
    every attempt is a solver outcome, reported as an error naming the last
    reason; it never contradicts a valid certificate. The result's residual
    is the largest characteristic-polynomial coefficient mismatch over scale.
    """
    kind = normalize_kind(kind)
    if kind != "ssp":
        raise ValueError("spectrum-preserving growth is defined for kind 'ssp'")
    beta = nonedge_set(g, beta)
    if len(beta) == 0:
        raise ValueError("a liberation set must be nonempty")
    exact_input = isinstance(a, RatMatrix)
    arr = a.to_float() if exact_input else np.asarray(a, dtype=float)
    if exact_input:
        if not is_liberation_set(a, g, beta, kind).answer:
            raise ValueError("the given pairs are not a liberation set here")
    elif not all(ok for _, ok in _drop_one_verdicts(psi(arr, g, kind),
                                                  beta.pairs)):
        raise ValueError("the given pairs fail the numeric relative checks")

    h = add_edges(g, beta.pairs)
    slots = _pattern_slots(h)
    beta_slot_idx = [slots.index((i - 1, j - 1)) for (i, j) in beta.pairs]
    target_vals = np.linalg.eigvalsh(arr)
    vscale = max(1.0, float(np.max(np.abs(target_vals))))
    base = np.array([arr[i, j] for (i, j) in slots])
    rng = seeded_random(seed)
    last_err = None
    for attempt in range(1, max_iter + 1):
        eps = EPS_SCHEDULE[(attempt - 1) % len(EPS_SCHEDULE)]
        x0 = base.copy()
        for k in beta_slot_idx:
            x0[k] = eps * (1 if rng.random() < 0.5 else -1)
        if attempt > len(EPS_SCHEDULE):
            x0 += [rng.gauss(0.0, eps / 10.0) for _ in x0]
        # hold one new pair at +-eps so the step system stays onto
        frozen = beta_slot_idx[(attempt - 1) % len(beta_slot_idx)]
        free = [k for k in range(len(slots)) if k != frozen]
        x, reason = _newton(g.n, slots, free, target_vals, x0, tol * vscale)
        if reason != "converged":
            last_err = reason
            continue
        a_new = _build_from_slots(g.n, slots, x)
        # edge slots only: the diagonal is free and may pass through zero
        smallest = min(abs(x[k]) for k in range(g.n, len(slots)))
        if smallest < MIN_ENTRY:
            last_err = "a pattern entry collapsed below %g" % MIN_ENTRY
            continue
        if not has_strong_property(a_new, h, kind, tol=1e-8).answer:
            last_err = "output failed the strong-property re-check"
            continue
        target = charpoly_coeffs(arr)
        scale = max(1.0, float(np.max(np.abs(target))))
        res = float(np.max(np.abs(charpoly_coeffs(a_new) - target))) / scale
        return LiberateResult(a_new, h, res, attempt, eps, seed, smallest, True)
    raise RuntimeError(
        "continuation did not produce a valid matrix in %d attempts (%s)"
        % (max_iter, last_err))


# ---------------------------------------------------------------------------
# Spectrum realization

def _flat_values(target):
    if hasattr(target, "values") and hasattr(target, "multiplicities"):
        vals = []
        for v, m in zip(target.values, target.multiplicities):
            vals.extend([float(v)] * int(m))
        return vals
    return [float(v) for v in target]


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
    values = sorted(_flat_values(target))
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
    got, _ = sym_eigen(out)
    err = float(np.max(np.abs(got - np.array(values))))
    if err > tol * max(1.0, float(np.max(np.abs(values)))):
        raise RuntimeError("realized spectrum off by %.2e" % err)
    return SymMatrix(out)


def _complete_generic(values, seed, tries=60):
    from .directsum import is_generic

    n = len(values)
    if n == 1:
        return np.array([[float(values[0])]])
    d = np.diag(np.array(values))
    ml = multiplicity_list(values, tol=1e-12)
    for k in range(tries):
        q = random_orthogonal(n, (seed, k))
        a = q @ d @ q.T
        off_ok = all(abs(a[i, j]) > MIN_ENTRY
                     for i in range(n) for j in range(i + 1, n))
        if not off_ok:
            continue
        pos = 0
        generic = True
        for m in ml.multiplicities:
            if not is_generic(q[:, pos:pos + m]):
                generic = False
                break
            pos += m
        if generic:
            return a
    raise RuntimeError("no generic completion found in %d draws" % tries)


def realize_in_pattern(g: Graph, spectrum, seed=0, tol: float = 1e-10,
                       max_iter: int = 60) -> np.ndarray:
    """Matrix in S(g) with the given spectrum, by Newton from random starts.

    Each attempt conjugates the target by a seeded random orthogonal matrix,
    keeps the entries on the pattern and runs the Newton solver over all of
    them. The limit can land in a proper subpattern (an edge entry driven
    to zero); such edges get re-seeded away from zero and the solve rerun,
    which walks the iterate into the interior of the pattern when the
    spectrum permits. Feasibility is the caller's burden; infeasible targets
    surface as non-convergence.
    """
    values = sorted(_flat_values(spectrum))
    if len(values) != g.n:
        raise ValueError("spectrum size %d does not fit %d vertices"
                         % (len(values), g.n))
    target_vals = np.array(values)
    vscale = max(1.0, float(np.max(np.abs(target_vals))))
    slots = _pattern_slots(g)
    spread = max(1.0, float(values[-1] - values[0]))

    free = range(len(slots))
    rng = seeded_random(seed)
    for _ in range(max_iter):
        q = random_orthogonal(g.n, rng.getrandbits(62))
        b = (q * target_vals) @ q.T
        x = np.array([b[i, j] for (i, j) in slots])
        ok = False
        dead = []
        for _round in range(10):
            x, reason = _newton(g.n, slots, free, target_vals, x, tol * vscale)
            ok = reason == "converged"
            if not ok:
                break
            dead = [k for k in range(g.n, len(slots)) if abs(x[k]) < MIN_ENTRY]
            if not dead:
                break
            for k in dead:
                x[k] = 0.1 * spread * (1 if rng.random() < 0.5 else -1)
        if not ok or dead:
            continue
        a = _build_from_slots(g.n, slots, x)
        if in_class(a, g, "S", tol=MIN_ENTRY / 2):
            return a
    raise RuntimeError("no matrix in the pattern reached the target spectrum")


# ---------------------------------------------------------------------------
# Low-rank pattern completion

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

    The output is parametrized as V S V^T with V of width rank(a0) and S the
    signature of a0's nonzero spectrum, so its rank cannot exceed the start;
    the solver drives the entries outside h's pattern to zero and keeps the
    edge entries away from zero.
    """
    arr = a0.to_float() if isinstance(a0, RatMatrix) else np.asarray(a0, dtype=float)
    n = arr.shape[0]
    if n != h.n:
        raise ValueError("matrix order %d does not match graph order %d" % (n, h.n))
    vals, q = sym_eigen(arr)
    keep = [i for i, v in enumerate(vals) if abs(v) > tol]
    r = len(keep)
    signs = np.array([1.0 if vals[i] > 0 else -1.0 for i in keep])
    s = np.diag(signs)
    v0 = q[:, keep] * np.sqrt(np.abs(vals[keep]))
    holes = [(i - 1, j - 1) for (i, j) in h.nonedges()]

    def assemble(x):
        return x.reshape(n, r) @ s @ x.reshape(n, r).T

    def residual(x):
        a = assemble(x)
        return np.array([a[i, j] for (i, j) in holes])

    rng = seeded_random(seed)
    for attempt in range(1, max_iter + 1):
        sd = 0.05 * (1 + attempt // 5)
        x0 = v0.reshape(-1) + [rng.gauss(0.0, sd) for _ in range(n * r)]
        x, ok = _gauss_newton(residual, x0, 1e-12)
        if not ok:
            continue
        a = assemble(x)
        edge_min = min(abs(a[i - 1, j - 1]) for (i, j) in h.edges) if h.edges else 1.0
        if edge_min < MIN_ENTRY:
            continue
        off = float(np.max(np.abs(residual(x)))) if holes else 0.0
        pos = int(np.sum(signs > 0))
        return LowRankResult(a, h, r, (pos, r - pos), off, attempt)
    raise RuntimeError("no completion with the required pattern in %d attempts"
                       % max_iter)
