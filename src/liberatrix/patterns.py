"""Symmetric matrix pattern classes over a graph, and the flattening orders.

Three membership classes for a symmetric A and graph G on the same vertex set:

  "S"      off-diagonal entry (i,j) nonzero exactly when {i,j} is an edge
  "S_cl"   off-diagonal support contained in the edge set (entries may vanish)
  "S_cl0"  as "S_cl" with zero diagonal

Every flattening follows the lexicographic order on index pairs. Vertex
arguments are 1-based, matching Graph.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .exactla import RatMatrix
from .graphs import Graph, build_graph
from .numla import _finite_square, seeded_random

CLASS_TAGS = ("S", "S_cl", "S_cl0")


class CertificateError(RuntimeError):
    """A computed certificate or sample failed its own re-check."""


def _pattern_flags(a, g: Graph, tol: float = 1e-8):
    """One pass of symmetric a over g: (inside, alive, zero_diag).

    inside: every nonzero entry off the diagonal sits on an edge; alive:
    every edge entry is nonzero; zero_diag: every diagonal entry is zero.
    Exact entries are nonzero when != 0 and must be exactly symmetric; float
    entries are nonzero above tol in absolute value and may differ from
    their mirror by up to tol. Raises ValueError for a non-square matrix, an
    order other than g's, a non-finite float entry or an asymmetric matrix.
    Float input is checked with whole-array operations and g's upper
    triangle masks.
    """
    if isinstance(a, RatMatrix):
        return _exact_flags(a, a.data, g)
    arr = _finite_square(a)
    _require_order(arr.shape[0], g)
    if (np.abs(arr - arr.T) > tol).any():
        raise ValueError("matrix is not symmetric")
    hit = np.abs(arr) > tol
    edge, nonedge = g.upper_masks
    return (not hit[nonedge].any(), bool(hit[edge].all()),
            not hit.diagonal().any())


def _exact_flags(a: RatMatrix, rows, g: Graph):
    """_pattern_flags of exact a, read off rows: a's own Fractions, or the
    integer rows of D a for any D > 0, which have the same zeros and the
    same symmetry and are cheaper to compare."""
    n = a.rows
    if a.cols != n:
        raise ValueError("expected a square matrix")
    _require_order(n, g)
    inside = alive = True
    for i, ri in enumerate(rows):
        nbrs = g.neighbors(i + 1)
        for j in range(i + 1, n):
            x = ri[j]
            if x != rows[j][i]:
                raise ValueError("matrix is not symmetric")
            if x:
                inside = inside and j + 1 in nbrs
            elif j + 1 in nbrs:
                alive = False
    return inside, alive, not any(rows[i][i] for i in range(n))


def _require_order(n, g: Graph):
    if n != g.n:
        raise ValueError("matrix order %d does not match graph order %d" % (n, g.n))


def in_class(a, g: Graph, cls: str, tol: float = 1e-8) -> bool:
    """Membership of symmetric a in the named pattern class over g."""
    if cls not in CLASS_TAGS:
        raise ValueError("unknown class %r" % (cls,))
    inside, alive, zero_diag = _pattern_flags(a, g, tol)
    if cls == "S":
        return inside and alive
    if cls == "S_cl0":
        return inside and zero_diag
    return inside


def pattern_of(a, tol: float = 1e-8) -> Graph:
    """Graph on the off-diagonal support of a symmetric matrix: pair {i, j}
    is an edge when either of its entries is nonzero (exact) or above tol in
    absolute value (float). Float input with a NaN or infinite entry raises
    ValueError, as in in_class."""
    if isinstance(a, RatMatrix):
        if a.rows != a.cols:
            raise ValueError("expected a square matrix")
        n, rows = a.rows, a.data
        edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
                 if rows[i][j] or rows[j][i]]
        return build_graph(n, edges)
    hit = np.abs(_finite_square(a)) > tol
    upper = np.triu(hit | hit.T, 1)
    return build_graph(len(upper), [(int(i) + 1, int(j) + 1)
                                    for i, j in zip(*np.nonzero(upper))])


def pair_position(n: int, i: int, j: int) -> int:
    """0-based slot of the pair (i,j), i<j, in the lexicographic pair order."""
    if not (1 <= i < j <= n):
        raise ValueError("need 1 <= i < j <= n")
    return (i - 1) * n - (i - 1) * i // 2 + (j - i - 1)


SAMPLE_MODES = ("unit-off-diagonal", "random-rational", "random-diagonal-collisions")


_NONZERO_NUMERATORS = tuple(x for x in range(-99, 100) if x != 0)


def _nonzero_rational(rng: random.Random) -> Fraction:
    k = rng.choice(_NONZERO_NUMERATORS)
    d = rng.randint(1, 9)
    return Fraction(k, d)


def _any_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-99, 99), rng.randint(1, 9))


def sample_S(g: Graph, seed, mode: str = "random-rational") -> RatMatrix:
    """Seeded rational sample from S(g), drawn from numla.seeded_random(seed).

    Modes: "unit-off-diagonal" puts 1 on every edge with zero diagonal;
    "random-rational" draws nonzero edge entries and free diagonal entries;
    "random-diagonal-collisions" additionally forces at least one repeated
    diagonal value, the degenerate stratum generic draws almost never hit.
    """
    if mode not in SAMPLE_MODES:
        raise ValueError("unknown sampling mode %r" % (mode,))
    rng = seeded_random(seed)
    n = g.n
    m = RatMatrix.zeros(n, n)
    for (i, j) in g.edges:
        val = Fraction(1) if mode == "unit-off-diagonal" else _nonzero_rational(rng)
        m[i - 1, j - 1] = val
        m[j - 1, i - 1] = val
    if mode != "unit-off-diagonal":
        for i in range(n):
            m[i, i] = _any_rational(rng)
    if mode == "random-diagonal-collisions":
        if n < 2:
            raise ValueError("diagonal collisions need at least two vertices")
        i, j = rng.sample(range(n), 2)
        m[j, j] = m[i, i]
    if not in_class(m, g, "S"):
        raise CertificateError("sample is not in S(g)")
    return m
