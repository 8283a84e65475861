"""The package's float linear algebra: symmetric eigensystems, numeric
rank, eigenvalue clustering and eigenspace genericity (is_generic).

Float input is checked here: one finiteness test refuses a NaN or
infinite entry on every numeric path, and one symmetry rule, |A - A^T| <=
1e-9 max(1, max|A|), refuses an asymmetric matrix wherever a symmetric one
is assumed. Eigensystems come from LAPACK through numpy.linalg.eigh:
eigenvalues ascending with an orthonormal eigenvector matrix Q whose
columns match. Eigenvalue clustering into a multiplicity list follows one
rule, chained gaps at a tolerance, which every caller in the package
shares. Seeded numeric draws come from seeded_random, a stdlib
random.Random.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .exactla import RatMatrix, rank, read_matrix


def _finite(arr, what):
    """arr, once no entry of it is NaN or infinite; ValueError otherwise."""
    if not np.isfinite(arr).all():
        raise ValueError("%s has a non-finite entry" % what)
    return arr


def _finite_square(a):
    """a as a square float array; ValueError if it is not square or has a
    NaN or infinite entry."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    return _finite(arr, "matrix")


def _finite_symmetric(a):
    """a as a square float array; ValueError if it is not square, has a NaN
    or infinite entry, or some |a_ij - a_ji| exceeds 1e-9 * max(1, max|a|)."""
    arr = _finite_square(a)
    gap = float(np.abs(arr - arr.T).max()) if arr.size else 0.0
    # the scale is at least 1, so it is read only once gap passes 1e-9
    if gap > 1e-9 and gap > 1e-9 * max(1.0, float(np.abs(arr).max())):
        raise ValueError("input is not symmetric within tolerance")
    return arr


def _finite_values(values):
    """values as a flat list of floats; ValueError on a NaN or infinite
    value."""
    vals = [float(v) for v in values]
    _finite(np.array(vals), "spectrum")
    return vals


class SymMatrix:
    """Symmetric float matrix, checked by the one symmetry rule and stored
    as (A + A^T)/2."""

    def __init__(self, data):
        arr = _finite_symmetric(data)
        self._a = (arr + arr.T) / 2.0
        self._a.flags.writeable = False
        self._eig = None

    @property
    def n(self):
        return self._a.shape[0]

    @property
    def array(self):
        return self._a

    def __array__(self, dtype=None, copy=None):
        return np.array(self._a, dtype=dtype, copy=copy)

    def eigensystem(self):
        # the storage was checked at construction and is symmetric by it
        if self._eig is None:
            self._eig = np.linalg.eigh(self._a)
        return self._eig

    def eigenvalues(self):
        return self.eigensystem()[0]

    def __repr__(self):
        return "SymMatrix(n=%d)" % self.n


def sym_eigen(a):
    """Eigenvalues (ascending) and orthonormal Q of a checked symmetric
    matrix."""
    return np.linalg.eigh(_finite_symmetric(a))


@dataclass(frozen=True)
class MultiplicityList:
    """Clustered spectrum: distinct values ascending with their multiplicities."""

    values: tuple
    multiplicities: tuple
    tol: float
    ambiguous: bool = False

    @property
    def ordered(self):
        return self.multiplicities

    @property
    def total(self):
        return sum(self.multiplicities)

    def __iter__(self):
        return iter(zip(self.values, self.multiplicities))


def multiplicity_list(values, tol=1e-8) -> MultiplicityList:
    """Cluster sorted eigenvalues at tolerance tol.

    Consecutive values separated by at most tol join one cluster, reported at
    the cluster mean. A gap strictly between tol and 10*tol flags the result
    ambiguous; callers deciding multiplicities should treat that as a warning.
    """
    vals = sorted(_finite_values(values))
    if not vals:
        return MultiplicityList((), (), tol)
    groups = [[vals[0]]]
    ambiguous = False
    for prev, cur in zip(vals, vals[1:]):
        gap = cur - prev
        if gap <= tol:
            groups[-1].append(cur)
        else:
            if gap < 10.0 * tol:
                ambiguous = True
            groups.append([cur])
    means = tuple(sum(g) / len(g) for g in groups)
    mults = tuple(len(g) for g in groups)
    return MultiplicityList(means, mults, tol, ambiguous)


def numeric_rank(m, tol=1e-8) -> int:
    """Count of singular values above tol * the largest one (LAPACK SVD).
    Monotone nonincreasing in tol. ValueError unless m is 2-d and finite."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    _finite(a, "matrix")
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


def is_generic(w, tol: float = 1e-8) -> bool:
    """Every maximal square row-submatrix of a basis matrix is invertible.

    The answer depends only on the column span: a change of basis multiplies
    each minor by the same nonzero factor. A RatMatrix is tested by one exact
    rank per row selection. A float matrix is False when a row's norm is at
    most tol times the largest; otherwise its rows are scaled to unit norm
    and one batched determinant over the C(n, d) row selections decides,
    each minor counting as singular when its absolute value is at most tol.
    Both raise ValueError on a rank-deficient basis, and a float matrix with
    a NaN or infinite entry raises ValueError.
    """
    if isinstance(w, RatMatrix):
        n, d = w.rows, w.cols
        if rank(w) != d:
            raise ValueError("basis matrix is rank-deficient")
        return all(
            rank(w.submatrix(row_idx=list(sel))) == d
            for sel in combinations(range(n), d))
    arr = np.asarray(w, dtype=float)
    r = numeric_rank(arr, tol)  # checks arr is 2-d and finite
    n, d = arr.shape
    if r != d:
        raise ValueError("basis matrix is rank-deficient")
    if d == 0:
        return True
    norms = np.array([np.linalg.norm(row) for row in arr])
    # every row lies in some selection, and a numerically zero row makes
    # its minors singular outright
    if np.any(norms <= tol * float(np.max(norms))):
        return False
    # the row-normalized determinants keep the threshold scale-free
    sels = np.array(list(combinations(range(n), d)), dtype=int)
    dets = np.linalg.det((arr / norms[:, None])[sels])
    return not np.any(np.abs(dets) <= tol)


def _blocks_generic(vecs, mults):
    """is_generic of the consecutive column blocks of vecs, one block per
    multiplicity in turn: an eigenvector matrix read cluster by cluster.
    Lazy, so all() stops at the first block that is not generic."""
    at = 0
    for m in mults:
        yield is_generic(vecs[:, at:at + m])
        at += m


def seeded_random(seed) -> random.Random:
    """The package's generator: stdlib random.Random. Integer and None seeds
    pass straight through; any other seed, such as a (seed, k) tuple, is
    seeded by its repr, which is stable across runs unlike hash()."""
    if seed is None or isinstance(seed, numbers.Integral):
        return random.Random(None if seed is None else int(seed))
    return random.Random(repr(seed))


def random_orthogonal(n, seed) -> np.ndarray:
    """Orthonormalized seeded Gaussian sample; QR with sign-fixed diagonal."""
    rng = seeded_random(seed)
    g = np.array([rng.gauss(0.0, 1.0) for _ in range(n * n)]).reshape(n, n)
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.where(np.diag(r) == 0.0, 1.0, np.diag(r)))
    err = float(np.max(np.abs(q.T @ q - np.eye(n)))) if n else 0.0
    if err > 1e-12:
        raise RuntimeError("orthogonality residual %.2e above 1e-12" % err)
    return q


def read_float_matrix(path) -> np.ndarray:
    """A matrix file (entries p/q, integer, or decimal) as a float array."""
    return read_matrix(path).to_float()
