"""Strong property checks for symmetric patterned matrices.

A symmetric matrix A with pattern graph G has the strong spectral property
(kind "ssp") when the only symmetric X with zero diagonal, support inside the
nonedges of G, and [A, X] = O is X = O; the strong Arnold property (kind
"sap") replaces the commutator condition with AX = O. Both reduce to full row
rank of a verification matrix whose rows are indexed by the nonedges of G:
the commutator rows are flattened over the strict upper triangle, the product
rows over all n^2 slots. Each row is read off rows and columns i and j of A
in closed form, with at most 4n nonzeros. The relative variant "with respect
to H", for a supergraph H of G, asks only the rows indexed by nonedges of H
to be independent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactla import (
    RatMatrix,
    _eliminate,
    _int_rows,
    charpoly,
    commutator,
    kernel_basis,
    left_kernel_basis,
    poly_gcd,
)
from .graphs import Graph, complement
from .numla import numeric_rank
from .patterns import CertificateError, in_class, pair_position

KINDS = ("ssp", "sap")


def normalize_kind(kind: str) -> str:
    k = str(kind).lower()
    if k not in KINDS:
        raise ValueError("kind must be one of %s" % (KINDS,))
    return k


@dataclass(frozen=True)
class VerificationMatrix:
    kind: str
    rows: tuple  # nonedge pairs, lexicographic
    matrix: object  # RatMatrix, or float ndarray for numeric input
    source: object
    graph: Graph

    @property
    def exact(self):
        return isinstance(self.matrix, RatMatrix)

    def row_index(self, pair) -> int:
        return self.rows.index(tuple(sorted(pair)))

    @cached_property
    def int_rows(self):
        """Exact rows scaled to primitive integers, built once; row-subset
        ranks eliminate these directly."""
        return _int_rows(self.matrix)


def _pair_rows(a, pairs, kind):
    """Verification rows of a for the given pairs, read off a in closed form.

    With X the symmetric unit pair matrix at {i, j},
      (A X)[k,l]   = A[k,i][l=j] + A[k,j][l=i]
      [A, X][k,l]  = (A X)[k,l] - [k=i] A[j,l] - [k=j] A[i,l]    (k < l)
    so every entry is one entry of A, or at (i, j) the difference
    A[i,i] - A[j,j]. Exact for RatMatrix input, float otherwise.
    """
    exact = isinstance(a, RatMatrix)
    ent = a.data if exact else np.asarray(a, dtype=float).tolist()
    n = len(ent)
    if kind == "ssp":
        ncols = n * (n - 1) // 2

        def pos(k, l):
            return pair_position(n, k + 1, l + 1)
    else:
        ncols = n * n

        def pos(k, l):
            return k * n + l
    zero = Fraction(0) if exact else 0.0
    rows = []
    for (i, j) in pairs:
        i, j = i - 1, j - 1
        row = [zero] * ncols
        if kind == "ssp":
            for k in range(j):
                row[pos(k, j)] += ent[k][i]
            for k in range(i):
                row[pos(k, i)] += ent[k][j]
            for l in range(i + 1, n):
                row[pos(i, l)] -= ent[j][l]
            for l in range(j + 1, n):
                row[pos(j, l)] -= ent[i][l]
        else:
            for k in range(n):
                row[pos(k, j)] = ent[k][i]
                row[pos(k, i)] = ent[k][j]
        rows.append(row)
    if exact:
        return RatMatrix(len(rows), ncols, rows)
    return np.array(rows, dtype=float).reshape(len(rows), ncols)


def psi(a, g: Graph, kind: str, tol: float = 1e-8) -> VerificationMatrix:
    """Verification matrix of a over g; exact for rational input.

    Each row is read off rows and columns i and j of a in closed form.
    """
    kind = normalize_kind(kind)
    if not in_class(a, g, "S_cl", tol):
        raise ValueError("matrix support must lie inside the graph's edges")
    if not in_class(a, g, "S", tol):
        warnings.warn("matrix has vanishing entries on some edges", stacklevel=2)
    nonedges = g.nonedges()
    return VerificationMatrix(kind, nonedges, _pair_rows(a, nonedges, kind), a, g)


@dataclass(frozen=True)
class StrongPropertyResult:
    answer: bool
    kind: str
    rank: int
    nullity: int
    rows: tuple
    certificate: tuple = ()

    def __bool__(self):
        return self.answer


def _reassemble(coeffs, pairs, n):
    x = RatMatrix.zeros(n, n)
    for c, (i, j) in zip(coeffs, pairs):
        x[i - 1, j - 1] = c
        x[j - 1, i - 1] = c
    return x


def _verify_certificate(a, kind, x, pairs_graph: Graph):
    """The reassembled X must be a genuine obstruction."""
    if not in_class(x, complement(pairs_graph), "S_cl0"):
        raise CertificateError("obstruction is not supported on the nonedges")
    prod = commutator(a, x) if kind == "ssp" else a @ x
    if not prod.is_zero():
        raise CertificateError("obstruction does not annihilate the matrix")
    if x.is_zero():
        raise CertificateError("obstruction is zero")


def _selected_rank(vm, sel_idx, tol=1e-8):
    """Rank of the rows sel_idx of vm's matrix; exact for exact vm."""
    if vm.exact:
        rows = vm.int_rows
        return len(_eliminate([rows[k] for k in sel_idx], vm.matrix.cols)[1])
    sub = vm.matrix[sel_idx] if len(sel_idx) else np.zeros((0, vm.matrix.shape[1]))
    return numeric_rank(sub, tol)


def _verdict_wrt(vm: VerificationMatrix, h: Graph,
                 tol: float = 1e-8) -> StrongPropertyResult:
    """Strong property relative to a supergraph h of vm.graph, from the rows
    of vm indexed by nonedges of h; h = vm.graph gives the plain property.
    Exact failures carry reassembled, re-verified obstructions."""
    keep = set(h.nonedges())
    sel_idx = [k for k, e in enumerate(vm.rows) if e in keep]
    sel_pairs = tuple(vm.rows[k] for k in sel_idx)
    r, m = _selected_rank(vm, sel_idx, tol), len(sel_idx)
    if r == m or not vm.exact:
        return StrongPropertyResult(r == m, vm.kind, r, m - r, sel_pairs)
    cert = []
    lk = left_kernel_basis(vm.matrix.submatrix(row_idx=sel_idx))
    for t in range(lk.rows):
        x = _reassemble(lk.row(t), sel_pairs, vm.graph.n)
        _verify_certificate(vm.source, vm.kind, x, h)
        cert.append(x)
    return StrongPropertyResult(False, vm.kind, r, m - r, sel_pairs, tuple(cert))


def _drop_one_verdicts(vm: VerificationMatrix, beta, tol: float = 1e-8):
    """Yields (e, verdict) over the pairs e of beta: does vm's matrix have
    the property relative to vm.graph + (beta - e)? Rank only, no
    certificate: the rows outside beta - e must be independent. Lazy, so
    all(...) stops at the first failing pair."""
    for e in beta:
        sel_idx = [k for k, f in enumerate(vm.rows) if f == e or f not in beta]
        yield e, _selected_rank(vm, sel_idx, tol) == len(sel_idx)


def has_strong_property(a, g: Graph, kind: str, tol: float = 1e-8) -> StrongPropertyResult:
    """Full-row-rank test of the verification matrix, with an obstruction
    certificate (kernel elements reassembled and re-verified) on failure."""
    return _verdict_wrt(psi(a, g, kind, tol), g, tol)


def _require_spanning_subgraph(g: Graph, h: Graph):
    if g.n != h.n:
        raise ValueError("graphs must share one vertex set")
    extra = set(g.edges) - set(h.edges)
    if extra:
        raise ValueError("not a supergraph: missing edges %s" % sorted(extra))


def has_strong_property_wrt(a, g: Graph, h: Graph, kind: str,
                            tol: float = 1e-8) -> StrongPropertyResult:
    """Strong property of a (pattern g) relative to a supergraph h: only the
    verification rows indexed by nonedges of h need to be independent."""
    kind = normalize_kind(kind)
    _require_spanning_subgraph(g, h)
    return _verdict_wrt(psi(a, g, kind, tol), h, tol)


def wrt_kernel_check(a: RatMatrix, g: Graph, h: Graph, kind: str) -> bool:
    """Second route to the relative strong property: trivial kernel of the
    constraint map on matrices supported by the nonedges of h."""
    kind = normalize_kind(kind)
    _require_spanning_subgraph(g, h)
    pairs = h.nonedges()
    if not pairs:
        return True
    m = _pair_rows(a, pairs, kind).transpose()  # positions x pairs
    ker = kernel_basis(m)
    for t in range(ker.cols):
        x = _reassemble(ker.col(t), pairs, g.n)
        _verify_certificate(a, kind, x, h)
    return ker.cols == 0


def spectra_disjoint(a: RatMatrix, b: RatMatrix) -> bool:
    """Exact test: no common eigenvalue, by gcd of characteristic polynomials."""
    gcd = poly_gcd(charpoly(a), charpoly(b))
    return len(gcd) == 1 and gcd[0] != 0


def numeric_strong_property(a, g: Graph, kind: str, tol: float = 1e-8) -> StrongPropertyResult:
    """Floating-point strong property verdict at tolerance tol."""
    return has_strong_property(np.asarray(a, dtype=float), g, kind, tol)
