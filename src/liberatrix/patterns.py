"""Symmetric matrix pattern classes over a graph, and the flattening orders.

Three membership classes for a symmetric A and graph G on the same vertex set:

  "S"      off-diagonal entry (i,j) nonzero exactly when {i,j} is an edge
  "S_cl"   off-diagonal support contained in the edge set (entries may vanish)
  "S_cl0"  as "S_cl" with zero diagonal

A matrix's support is read in one checked pass (_support) by in_class,
pattern_of and strongprops.psi. Exact input must be exactly symmetric;
float input goes through numla's one finiteness and symmetry rule, |A -
A^T| <= 1e-9 max(1, max|A|), and tol is only the float zero threshold: an
entry is nonzero above tol in absolute value.

Every flattening follows the lexicographic order on index pairs. Vertex
arguments are 1-based, matching Graph.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .exactla import RatMatrix
from .graphs import Graph, build_graph
from .numla import _finite_symmetric, seeded_random

CLASS_TAGS = ("S", "S_cl", "S_cl0")


class CertificateError(RuntimeError):
    """A computed certificate failed its own re-check."""


def _support(a, tol: float, rows=None):
    """(n, pairs, diag) of symmetric a: its order, the sorted 1-based pairs
    i < j whose entry is nonzero, and whether any diagonal entry is nonzero.

    Exact a must be exactly symmetric, and an entry is nonzero when != 0;
    it is read off rows: a's own Fractions by default, or the integer rows
    of D a for any D > 0, which have the same zeros and the same symmetry
    and are cheaper to compare. Float a must pass numla's one finiteness
    and symmetry check, and an entry is nonzero above tol in absolute
    value; a pair counts when either mirror entry does. Raises ValueError
    for a non-square matrix, a NaN or infinite entry or an asymmetric
    matrix.
    """
    exact = isinstance(a, RatMatrix)
    if not exact:
        rows = (np.abs(_finite_symmetric(a)) > tol).tolist()
    elif a.rows != a.cols:
        raise ValueError("expected a square matrix")
    elif rows is None:
        rows = a.data
    n = len(rows)
    pairs = []
    for i, ri in enumerate(rows):
        for j in range(i + 1, n):
            x, y = ri[j], rows[j][i]
            if x or y:
                if exact and x != y:
                    raise ValueError("matrix is not symmetric")
                pairs.append((i + 1, j + 1))
    return n, pairs, any(rows[i][i] for i in range(n))


def _pattern_flags(a, g: Graph, tol: float = 1e-8, rows=None):
    """(inside, alive, zero_diag) of symmetric a over g, from _support.

    inside: every nonzero entry off the diagonal sits on an edge; alive:
    every edge entry is nonzero; zero_diag: every diagonal entry is zero.
    rows is passed on to _support. Raises ValueError as _support does, and
    for an order other than g's.
    """
    n, pairs, diag = _support(a, tol, rows)
    _require_order(n, g)
    support, edges = set(pairs), set(g.edges)
    return support <= edges, edges <= support, not diag


def _require_order(n, g: Graph):
    if n != g.n:
        raise ValueError("matrix order %d does not match graph order %d" % (n, g.n))


def in_class(a, g: Graph, cls: str, tol: float = 1e-8) -> bool:
    """Membership of symmetric a in the named pattern class over g.

    Float entries are zero at or below tol in absolute value; float input
    must be finite and symmetric by numla's rule, exact input exactly
    symmetric, or ValueError is raised.
    """
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
    is an edge when its entry is nonzero (exact) or above tol in absolute
    value (float). Input is checked as in in_class: a non-square, non-finite
    or asymmetric matrix raises ValueError."""
    n, pairs, _ = _support(a, tol)
    return build_graph(n, pairs)


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
    return m
