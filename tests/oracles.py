"""Reference implementations the tests compare the library against.

They are written the direct way, with no regard for speed: the dense
commutator construction of the verification matrix, an exact solver read
off the reduced row echelon form, spectral disjointness from the gcd of
characteristic polynomials, the liberation witness read off the Fraction
block of the public column echelon form, the integer elimination that
combines every entry of a row, kernels read off the Fraction reduced row
echelon form, minimal liberation sets by testing every nonedge subset,
genericity of a float basis by one determinant per row selection, and the
sampled pattern-level verdict with a full certificate on every sample.
The isospectral Newton Jacobian is read off Q^T E Q, one symmetric unit
matrix E per free slot. connected_atlas gives the small connected graphs
that the tests and the CI sweeps run over, and REASONS the solvers'
failure reasons they expect.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

from liberatrix.exactla import RatMatrix, charpoly, poly_gcd, rref
from liberatrix.graphs import build_graph, nonedge_set
from liberatrix.liberation import GraphLiberationVerdict, is_liberation_set
from liberatrix.numla import numeric_rank, seeded_random
from liberatrix.patterns import SAMPLE_MODES, sample_S
from liberatrix.strongprops import normalize_kind


def basis_X(n: int, i: int, j: int) -> RatMatrix:
    """Symmetric unit pair matrix: ones at (i,j) and (j,i), i<j, 1-based."""
    if not (1 <= i < j <= n):
        raise ValueError("need 1 <= i < j <= n")
    m = RatMatrix.zeros(n, n)
    m[i - 1, j - 1] = Fraction(1)
    m[j - 1, i - 1] = Fraction(1)
    return m


def _order(m):
    return m.rows if isinstance(m, RatMatrix) else m.shape[0]


def vec_wedge(k):
    """Strictly upper triangular entries of a square RatMatrix or array, in
    pair-lex order; length C(n,2)."""
    n = _order(k)
    return [k[i, j] for i in range(n) for j in range(i + 1, n)]


def vec_square(a):
    """All entries of a square RatMatrix or array in row-major order."""
    n = _order(a)
    return [a[i, j] for i in range(n) for j in range(n)]


def solve(m: RatMatrix, x):
    """One exact solution y of m y = x, or None when inconsistent."""
    if not isinstance(x, RatMatrix):
        x = RatMatrix.column(x)
    aug = rref(m.hstack(x))
    if any(c >= m.cols for c in aug.pivot_cols):
        return None
    y = [Fraction(0)] * m.cols
    for r, c in enumerate(aug.pivot_cols):
        y[c] = aug.matrix.data[r][m.cols]
    return y


def spectra_disjoint(a: RatMatrix, b: RatMatrix) -> bool:
    """Exact test: no common eigenvalue, by gcd of characteristic polynomials."""
    gcd = poly_gcd(charpoly(a), charpoly(b))
    return len(gcd) == 1 and gcd[0] != 0


def witness_from_block(block: RatMatrix, beta_idx, nrows):
    """The liberation witness B (1, t, t^2, ...) for the first integer t > 0
    that leaves no entry zero, in Fractions, placed on beta_idx among nrows
    coordinates; None when B has no columns or no such t up to
    rows * cols + 1 (a zero row of B)."""
    if block.cols == 0:
        return None
    for t in range(1, block.rows * block.cols + 2):
        powers = [Fraction(t) ** j for j in range(block.cols)]
        vals = [sum((x * p for x, p in zip(row, powers)), Fraction(0))
                for row in block.data]
        if all(vals):
            x = [Fraction(0)] * nrows
            for idx, v in zip(beta_idx, vals):
                x[idx] = v
            return tuple(x)
    return None


def eliminate_dense(a, cols, reduce_from=None):
    """exactla._eliminate with each combination formed over all entries:
    the same pivot choice, row order and primitive parts."""
    rows = len(a)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        # the smallest nonzero |entry| in the column, in its first row
        live = [i for i in range(r, rows) if a[i][c]]
        if not live:
            continue
        pivot_row = min(live, key=lambda i: abs(a[i][c]))
        a[r], a[pivot_row] = a[pivot_row], a[r]
        ar = a[r]
        pv = ar[c]
        start = r + 1 if reduce_from is None else min(reduce_from, r + 1)
        for i in range(start, rows):
            f = a[i][c]
            if not f or i == r:
                continue
            g = gcd(pv, f)
            p, q = pv // g, f // g
            row = [p * x - q * y for x, y in zip(a[i], ar)]
            g = gcd(*row)
            a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == rows:
            break
    return a, pivots


def kernel_basis_rref(m: RatMatrix) -> RatMatrix:
    """Columns span the right kernel of m, read off the Fraction reduced
    row echelon form: one column per free column f, 1 at f and minus the
    rref entries in column f at the pivot columns."""
    rr = rref(m)
    pivots = set(rr.pivot_cols)
    free = [j for j in range(m.cols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(rr.pivot_cols):
            v[c] = -rr.matrix.data[r][f]
        basis.append(v)
    return RatMatrix(m.cols, len(basis),
                     [[basis[k][i] for k in range(len(basis))]
                      for i in range(m.cols)])


def left_kernel_basis_rref(m: RatMatrix) -> RatMatrix:
    """Rows span the left kernel of m: the transposed kernel of m^T."""
    return kernel_basis_rref(m.transpose()).transpose()


def minimal_liberation_sets(a, g, kind, max_size):
    """Every nonedge subset of g up to max_size that is_liberation_set
    accepts, kept when no other accepted subset lies inside it; as pair
    tuples."""
    accepted = [set(beta) for size in range(1, max_size + 1)
                for beta in combinations(g.nonedges(), size)
                if is_liberation_set(a, g, list(beta), kind).answer]
    return {tuple(sorted(s)) for s in accepted
            if not any(t < s for t in accepted)}


def is_generic_per_subset(w, tol=1e-8):
    """numla.is_generic on a float basis matrix, one row selection at a
    time: the row norms and the determinant of each selection in turn. The
    library's version, also reached as liberatrix.is_generic and
    directsum.is_generic, takes one batched determinant instead."""
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a matrix of basis columns")
    n, d = arr.shape
    if numeric_rank(arr, tol) != d:
        raise ValueError("basis matrix is rank-deficient")
    if d == 0:
        return True
    scale = float(max(np.linalg.norm(arr[r]) for r in range(n)))
    for sel in combinations(range(n), d):
        sub = arr[list(sel)]
        norms = np.array([np.linalg.norm(sub[r]) for r in range(d)])
        # a numerically zero row is singular outright; testing the
        # row-normalized determinant keeps the threshold scale-free
        if np.any(norms <= tol * scale):
            return False
        if abs(float(np.linalg.det(sub / norms[:, None]))) <= tol:
            return False
    return True


def graph_liberation_reference(g, beta, kind, trials, seed):
    """liberation.is_graph_liberation_set with the four-criteria certificate
    of is_liberation_set deciding every sample: the same draws, the first
    failing sample returned as the counterexample with its mode."""
    kind = normalize_kind(kind)
    beta = nonedge_set(g, beta)
    rng = seeded_random(seed)
    for t in range(trials):
        mode = SAMPLE_MODES[t % len(SAMPLE_MODES)]
        a = sample_S(g, seed=rng.randrange(2**63), mode=mode)
        if not is_liberation_set(a, g, beta, kind).answer:
            return GraphLiberationVerdict(
                "certified-counterexample", beta, kind, t + 1, seed, a, mode)
    return GraphLiberationVerdict("probabilistic-yes", beta, kind, trials, seed)


def isospectral_jacobian(q, slots, multiplicities):
    """d (Q^T A Q)_ab / d x_ij, one row per pair a <= b inside each cluster
    of the given multiplicities and one column per 0-based slot (i, j) of
    slots, where x_ij sets both A[i, j] and A[j, i]: entry (a, b) of
    Q^T E Q for the symmetric unit matrix E of the slot."""
    n = q.shape[0]
    pairs, pos = [], 0
    for m in multiplicities:
        pairs += [(a, b) for a in range(pos, pos + m)
                  for b in range(a, pos + m)]
        pos += m
    jac = np.zeros((len(pairs), len(slots)))
    for s, (i, j) in enumerate(slots):
        e = np.zeros((n, n))
        e[i, j] = e[j, i] = 1.0
        d = q.T @ e @ q
        for p, (a, b) in enumerate(pairs):
            jac[p, s] = d[a, b]
    return jac


def connected_atlas(lo, hi):
    """The connected graphs on lo..hi vertices of the networkx graph atlas,
    as liberatrix graphs keyed by atlas index; vertex k becomes k + 1."""
    import networkx as nx
    return {i: build_graph(len(g), [(u + 1, v + 1) for u, v in g.edges()])
            for i, g in enumerate(nx.graph_atlas_g())
            if lo <= len(g) <= hi and nx.is_connected(g)}


# The attempt contract's failure reasons, written out: the three Newton
# solvers share the first three, "collapsing limit" is realize_in_pattern's
# alone and the re-check liberate's.
REASONS = ("not converged", "non-finite step",
           "an edge entry collapsed below 1e-06", "collapsing limit",
           "output failed the strong-property re-check")


def names_a_reason(err) -> bool:
    """Whether a solver's RuntimeError ends naming one of REASONS."""
    return str(err).endswith(tuple("(%s)" % r for r in REASONS))
