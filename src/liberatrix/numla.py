"""Floating-point symmetric eigencomputations and numeric rank.

Eigensystems come from LAPACK through numpy.linalg.eigh: eigenvalues
ascending with an orthonormal eigenvector matrix Q whose columns match.
Eigenvalue clustering into a multiplicity list follows one rule, chained
gaps at a tolerance, which every caller in the package shares. Seeded
numeric draws come from seeded_random, a stdlib random.Random.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass

import numpy as np

from .exactla import read_matrix


def _as_array(a):
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d array")
    return arr


class SymMatrix:
    """Symmetric float matrix; symmetry is enforced by storage."""

    def __init__(self, data, tol=1e-9):
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("SymMatrix needs a square array")
        scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 0.0)
        if arr.size and float(np.max(np.abs(arr - arr.T))) > tol * scale:
            raise ValueError("input is not symmetric within tolerance")
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
        if self._eig is None:
            self._eig = sym_eigen(self._a)
        return self._eig

    def eigenvalues(self):
        return self.eigensystem()[0]

    def __repr__(self):
        return "SymMatrix(n=%d)" % self.n


def sym_eigen(a):
    """Eigenvalues (ascending) and orthonormal Q for a symmetric matrix."""
    return np.linalg.eigh(_as_array(a))


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
    vals = sorted(float(x) for x in values)
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
    Monotone nonincreasing in tol."""
    a = _as_array(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


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
