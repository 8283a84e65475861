"""Strong property checks for symmetric patterned matrices.

A symmetric matrix A with pattern graph G has the strong spectral property
(kind "ssp") when the only symmetric X with zero diagonal, support inside the
nonedges of G, and [A, X] = O is X = O; the strong Arnold property (kind
"sap") replaces the commutator condition with AX = O. Both reduce to full row
rank of a verification matrix whose rows are indexed by the nonedges of G:
the commutator rows are flattened over the strict upper triangle, the product
rows over all n^2 slots. Each row is read off rows and columns i and j of A
in closed form, with at most 2n nonzeros. The relative variant "with respect
to H", for a supergraph H of G, asks only the rows indexed by nonedges of H
to be independent.

The closed form depends only on n and the kind, so it is built once per
(n, kind) as a slot layout (_slot_layout): for every pair, the entry of
(A, -A, 0) that each column takes, plus for "ssp" the two diagonal entries
whose difference fills the pair's own column. Rows are then gathered from
A: exact rows reference A's Fractions and their negatives, and float rows
are one numpy gather. The integer rows and columns of exact rank and
echelon work come from one such gather of D A (D the lcm of A's
denominators), each row or column divided by the gcd of its entries.
psi scales exact A to those integers once and checks the pattern on them
at once, and each form is built when first read:
exact rank, liberation and obstruction work reads only the integers, so
the Fraction rows are built only for a caller that reads
VerificationMatrix.matrix. An obstruction comes off the kernel of the
integer columns cut to the selected rows (exactla._kernel_vectors) and is
re-checked with integer products of D A and L X, L the lcm of the
denominators of the reassembled X.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .exactla import (
    RatMatrix,
    _eliminate,
    _kernel_vectors,
    _primitive,
    _scaled_to_integers,
    kernel_basis,
)
from .graphs import Graph, complement
from .numla import numeric_rank
from .patterns import CertificateError, _pattern_flags, in_class, pair_position

KINDS = ("ssp", "sap")
_ZERO = Fraction(0)


def normalize_kind(kind: str) -> str:
    k = str(kind).lower()
    if k not in KINDS:
        raise ValueError("kind must be one of %s" % (KINDS,))
    return k


@dataclass(frozen=True)
class VerificationMatrix:
    kind: str
    rows: tuple  # nonedge pairs, lexicographic
    source: object
    graph: Graph
    # _drop_one_verdicts: full row rank of the rows outside a set of pairs
    _full_rank: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @property
    def exact(self):
        return isinstance(self.source, RatMatrix)

    @property
    def ncols(self):
        """Column count: C(n, 2) for "ssp", n^2 for "sap"."""
        n = self.graph.n
        return n * (n - 1) // 2 if self.kind == "ssp" else n * n

    @cached_property
    def matrix(self):
        """The verification matrix, built on first read: a RatMatrix for
        exact input, a float ndarray otherwise."""
        return _pair_rows(self.source, self.rows, self.kind)

    def row_index(self, pair) -> int:
        return self.rows.index(tuple(sorted(pair)))

    @cached_property
    def _ints(self):
        """D A as integer rows, D the lcm of A's denominators: the one
        scaling of exact A, read by psi's pattern check and by
        _int_matrix."""
        return _scaled_to_integers(self.source)[1]

    @cached_property
    def _int_matrix(self):
        """D A's verification matrix as a 2-D numpy array of Python
        integers: one gather from the slot layout, shared by int_rows and
        int_cols."""
        ints = self._ints
        return _gather([v for row in ints for v in row], 0, len(ints),
                       self.kind, self.rows)

    @cached_property
    def int_rows(self):
        """Exact rows scaled to primitive integers, built once; row-subset
        ranks eliminate these directly. They are the rows of D A's
        verification matrix, each divided by the gcd of its entries."""
        return [_primitive(row) for row in self._int_matrix.tolist()]

    @cached_property
    def int_cols(self):
        """Exact columns scaled to primitive integers, built once: the
        columns of D A's verification matrix, each divided by the gcd of its
        entries. The echelon and column-space routes eliminate these."""
        return [_primitive(col) for col in self._int_matrix.T.tolist()]


@lru_cache(maxsize=16)
def _slot_layout(n: int, kind: str):
    """Closed form of the verification rows of order n, for all C(n, 2)
    pairs in lexicographic order: (take, diag).

    With v the vector (A, -A, 0), A flattened row-major, entry (p, c) of
    the row of the p-th pair (i, j) is v[take[p, c]]. By the formulas in
    _pair_rows every entry is one entry of A or its negative, except in
    "ssp" the entry in the pair's own column, A[i,i] - A[j,j]: there take
    holds one of the two terms, and _gather overwrites it with the
    difference of the two diagonal positions diag[p]. Arrays are read-only,
    as the cache shares them.
    """
    nn = n * n
    zero = 2 * nn
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ncols = len(pairs) if kind == "ssp" else nn
    take = np.full((len(pairs), ncols), zero, dtype=np.intp)
    for p, (i, j) in enumerate(pairs):
        t = take[p]
        if kind == "ssp":
            for k in range(j):
                t[pair_position(n, k + 1, j + 1)] = k * n + i
            for k in range(i):
                t[pair_position(n, k + 1, i + 1)] = k * n + j
            for l in range(i + 1, n):
                t[pair_position(n, i + 1, l + 1)] = nn + j * n + l
            for l in range(j + 1, n):
                t[pair_position(n, j + 1, l + 1)] = nn + i * n + l
        else:
            for k in range(n):
                t[k * n + j] = k * n + i
                t[k * n + i] = k * n + j
    diag = np.array([(i * n + i, j * n + j) for i, j in pairs],
                    dtype=np.intp).reshape(len(pairs), 2)
    take.flags.writeable = diag.flags.writeable = False
    return take, diag


def _gather(flat, zero, n, kind, pairs):
    """Verification rows of the 1-based pairs from A flattened row-major:
    one gather from the layout of (n, kind), plus in "ssp" one difference
    per row. flat and zero are Fractions, integers or floats; the result
    is a 2-D numpy array of the same entries (object dtype for exact ones).
    """
    take, diag = _slot_layout(n, kind)
    sel = [pair_position(n, i, j) for i, j in pairs]
    if isinstance(flat, np.ndarray):
        # the float rows start at 0.0 and add or subtract one entry, so a
        # zero entry is +0.0 in either sign, as in the loop they replace
        ext = np.concatenate([flat if kind == "sap" else flat + 0.0,
                              0.0 - flat, [zero]])
    else:
        ext = np.array(flat + [-x if x else x for x in flat] + [zero],
                       dtype=object)
    out = ext[take[sel]]
    if kind == "ssp" and sel:
        d = diag[sel]
        out[np.arange(len(sel)), sel] = ext[d[:, 0]] - ext[d[:, 1]]
    return out


def _pair_rows(a, pairs, kind):
    """Verification rows of a for the given pairs, read off a in closed form.

    With X the symmetric unit pair matrix at {i, j},
      (A X)[k,l]   = A[k,i][l=j] + A[k,j][l=i]
      [A, X][k,l]  = (A X)[k,l] - [k=i] A[j,l] - [k=j] A[i,l]    (k < l)
    so every entry is one entry of A, or at (i, j) the difference
    A[i,i] - A[j,j]; _slot_layout holds where each goes. Exact for
    RatMatrix input, whose rows reference A's own Fractions, float otherwise.
    """
    if isinstance(a, RatMatrix):
        flat = [x for row in a.data for x in row]
        rows = _gather(flat, _ZERO, a.rows, kind, pairs)
        return RatMatrix._wrap(rows.shape[0], rows.shape[1], rows.tolist())
    arr = np.asarray(a, dtype=float)
    return _gather(arr.ravel(), 0.0, arr.shape[0], kind, pairs)


def psi(a, g: Graph, kind: str, tol: float = 1e-8) -> VerificationMatrix:
    """Verification matrix of a over g; exact for rational input.

    The kind and a's pattern are checked here, by patterns' one support
    reader: tol is the float zero threshold, and symmetry is numla's rule
    for float a, exact for rational a. Each row is read off rows and
    columns i and j of a in closed form when the matrix is first read.
    Exact a is scaled to integers once: the pattern check reads those
    integers, and so does the gather of the integer rows and columns.
    """
    kind = normalize_kind(kind)
    vm = VerificationMatrix(kind, g.nonedges(), a, g)
    inside, alive, _ = _pattern_flags(a, g, tol,
                                      vm._ints if vm.exact else None)
    if not inside:
        raise ValueError("matrix support must lie inside the graph's edges")
    if not alive:
        warnings.warn("matrix has vanishing entries on some edges", stacklevel=2)
    return vm


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


def _int_product(p, q):
    """Product of two square integer matrices given as row lists."""
    qt = list(zip(*q))
    return [[sum(x * y for x, y in zip(row, col)) for col in qt] for row in p]


def _verify_certificate(ai, kind, x, pairs_graph: Graph):
    """The reassembled X must be a genuine obstruction to A, given as ai,
    the integer rows of D A for some D > 0 (psi's one scaling of A). The
    product is checked in integers: with L the lcm of the denominators of
    X, (D A)(L X), less (L X)(D A) for "ssp", is D L times A X (or
    [A, X]), so it vanishes exactly when that does."""
    if not in_class(x, complement(pairs_graph), "S_cl0"):
        raise CertificateError("obstruction is not supported on the nonedges")
    xi = _scaled_to_integers(x)[1]
    ax = _int_product(ai, xi)
    if kind == "ssp":
        annihilates = ax == _int_product(xi, ai)
    else:
        annihilates = not any(map(any, ax))
    if not annihilates:
        raise CertificateError("obstruction does not annihilate the matrix")
    if not any(map(any, xi)):
        raise CertificateError("obstruction is zero")


def _selected_rank(vm, sel_idx, tol=1e-8):
    """Rank of the rows sel_idx of vm's matrix; exact for exact vm."""
    if vm.exact:
        rows = vm.int_rows
        return len(_eliminate([rows[k] for k in sel_idx], vm.ncols)[1])
    sub = vm.matrix[sel_idx] if len(sel_idx) else np.zeros((0, vm.ncols))
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
    # the left kernel of the selected rows is the kernel of their
    # transpose, whose rows are the integer columns cut to the selection
    cols = [_primitive([col[k] for k in sel_idx]) for col in vm.int_cols]
    cert = []
    for v in _kernel_vectors(cols, m):
        x = _reassemble(v, sel_pairs, vm.graph.n)
        _verify_certificate(vm._ints, vm.kind, x, h)
        cert.append(x)
    return StrongPropertyResult(False, vm.kind, r, m - r, sel_pairs, tuple(cert))


def _drop_one_verdicts(vm: VerificationMatrix, beta):
    """Yields (e, verdict) over the pairs e of beta: does vm's matrix have
    the property relative to vm.graph + (beta - e)? Rank only, no
    certificate: the rows outside beta - e must be independent. The one
    drop-one routine: each selection's verdict is kept on vm, keyed by the
    pairs it leaves out, so candidate sets that share a selection rank it
    once. Lazy, so all(...) stops at the first failing pair."""
    for e in beta:
        out = frozenset(f for f in beta if f != e)
        if out not in vm._full_rank:
            sel_idx = [k for k, f in enumerate(vm.rows) if f not in out]
            vm._full_rank[out] = _selected_rank(vm, sel_idx) == len(sel_idx)
        yield e, vm._full_rank[out]


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
    ai = _scaled_to_integers(a)[1]
    for t in range(ker.cols):
        x = _reassemble(ker.col(t), pairs, g.n)
        _verify_certificate(ai, kind, x, h)
    return ker.cols == 0

