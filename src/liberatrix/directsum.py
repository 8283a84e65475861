"""Gluing two symmetric blocks across bridging pairs.

For blocks A (m x m) and B (n x n) with a strong property, whether A + B
direct-summed stays strong relative to added bridges is controlled by the
intertwining space: for kind "ssp" the solutions of AY = YB, spanned by outer
products of eigenvectors at common eigenvalues; for kind "sap" the solutions
of AY = O = YB, spanned by kernel outer products. A bridge set is certified by
evaluating that space at the bridge positions and checking the evaluation map
has trivial kernel. Each public entry point checks each block once, in
numla, for finite entries and symmetry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactla import RatMatrix
from .graphs import EdgeSet, bridge_set
from .numla import (_finite_symmetric, is_generic, multiplicity_list,
                    numeric_rank)
from .patterns import pattern_of
from .strongprops import has_strong_property, normalize_kind


@dataclass(frozen=True)
class SylvesterSpace:
    dimension: int
    common: tuple      # ((value, mult in A, mult in B), ...)
    kind: str
    ambiguous: bool
    eigvec_blocks: tuple  # ((U_A, U_B) per common value, column blocks)

    @cached_property
    def basis(self) -> tuple:
        """The outer-product matrices of shape (m, n), built on first read."""
        return tuple(y for ua, ub in self.eigvec_blocks
                     for y in _products(ua, ub))


def sylvester_space(a, b, tol: float = 1e-8, kind: str = "ssp") -> SylvesterSpace:
    """Basis of the intertwining space of two symmetric blocks.

    Eigenvalues of both blocks are clustered together at one shared
    tolerance; a gap falling in (tol, 10 tol) marks the result ambiguous and
    emits a warning, since the common-spectrum decision is then fragile.
    basis lists the outer products U_A[:, i] U_B[:, j]^T of the eigenvector
    blocks (U_A, U_B), block by block, i then j, and is built on first read.
    """
    kind = normalize_kind(kind)
    return _sylvester(_finite_symmetric(a), _finite_symmetric(b), tol, kind)


def _sylvester(a, b, tol, kind) -> SylvesterSpace:
    """sylvester_space on checked symmetric float arrays and a normalized
    kind; its warning points at the line calling the public entry point."""
    vals_a, q_a = np.linalg.eigh(a)
    vals_b, q_b = np.linalg.eigh(b)
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))

    if kind == "sap":
        ia = [i for i, v in enumerate(vals_a) if abs(v) <= tol]
        ib = [j for j, v in enumerate(vals_b) if abs(v) <= tol]
        pieces = [(0.0, ia, ib)] if ia and ib else []
        ambiguous = any(
            tol < abs(v) < 10.0 * tol for v in list(vals_a) + list(vals_b))
    else:
        # the clusters are consecutive runs of the sorted joint spectrum;
        # positions below len(vals_a) belong to the first block
        joint = np.concatenate([vals_a, vals_b])
        order = np.argsort(joint, kind="stable")
        ml = multiplicity_list(joint, tol)
        ambiguous = ml.ambiguous
        pieces = []
        start = 0
        for value, mult in ml:
            grp = order[start:start + mult]
            start += mult
            ia = [int(t) for t in grp if t < len(vals_a)]
            ib = [int(t) - len(vals_a) for t in grp if t >= len(vals_a)]
            if ia and ib:
                pieces.append((value, ia, ib))
    if ambiguous:
        warnings.warn("eigenvalue gap close to the clustering tolerance",
                      stacklevel=3)

    common = []
    blocks = []
    for value, ia, ib in pieces:
        ua = q_a[:, ia]
        ub = q_b[:, ib]
        common.append((value, len(ia), len(ib)))
        blocks.append((ua, ub))
        # for y = u v^T, A y = (A u) v^T and y B = u (B^T v)^T, so one
        # broadcast bounds every pair (i, j) of the block
        left, right = _products(a @ ua, ub), _products(ua, b.T @ ub)
        resid = float(np.max(np.abs(
            np.stack([left, right]) if kind == "sap" else left - right)))
        if resid > 1e-9 * scale:
            raise RuntimeError(
                "intertwining residual %.2e exceeds bound" % resid)
    return SylvesterSpace(sum(k * l for _, k, l in common), tuple(common),
                          kind, ambiguous, tuple(blocks))


def _products(p, q):
    """The outer products p[:, i] q[:, j]^T, i then j, stacked."""
    return (p.T[:, None, :, None] * q.T[None, :, None, :]).reshape(
        -1, p.shape[0], q.shape[0])


def _evaluation(space: SylvesterSpace, pairs, m) -> np.ndarray:
    """The intertwining basis evaluated at the bridges, one row per pair:
    each block's eigenvector rows at the bridge ends, multiplied pairwise."""
    us = [u - 1 for u, _ in pairs]
    vs = [v - m - 1 for _, v in pairs]
    return np.hstack([np.zeros((len(pairs), 0))] + [
        (ua[us][:, :, None] * ub[vs][:, None, :]).reshape(len(pairs), -1)
        for ua, ub in space.eigvec_blocks])


@dataclass(frozen=True)
class DirectSumCertificate:
    beta: EdgeSet
    kind: str
    answer: bool
    per_beta_prime: tuple   # ((dropped pair, verdict), ...)
    validators: tuple       # ((name, ok, detail), ...)
    dimension: int
    common: tuple
    ambiguous: bool

    def __bool__(self):
        return self.answer

    def validator(self, name: str):
        for key, ok, detail in self.validators:
            if key == name:
                return ok, detail
        raise KeyError(name)


def _beta_shape(pairs, k, ell):
    """Classify the bridge layout against the recognized sufficient shapes."""
    rows = {}
    cols = {}
    for (u, v) in pairs:
        rows.setdefault(u, set()).add(v)
        cols.setdefault(v, set()).add(u)
    row_sets = list(rows.values())
    col_sets = list(cols.values())
    if k == 1 and len(pairs) == 2:
        return True, "any two bridges (first block has a simple shared value)"
    if all(s == row_sets[0] for s in row_sets) and all(
            s == col_sets[0] for s in col_sets):
        if (len(rows), len(cols)) == (k, ell + 1):
            return True, "full grid, %d x %d" % (k, ell + 1)
        if (len(rows), len(cols)) == (k + 1, ell):
            return True, "full grid, %d x %d" % (k + 1, ell)
    if ell == 1:
        if len(rows) == k and all(len(s) == 2 for s in row_sets):
            return True, "two bridges at each of %d first-block vertices" % k
        if any(len(s) >= k + 1 for s in col_sets):
            return True, "one second-block vertex carries %d bridges" % (k + 1)
    return False, "no recognized sufficient layout"


def directsum_liberation(a, b, beta, kind: str = "ssp",
                         tol: float = 1e-8) -> DirectSumCertificate:
    """Drop-one certification of a bridge set, with hypothesis validators.

    The verdict is computed for every bridge subset missing one pair. The
    validators report whether the instance matches the sufficient conditions
    (single shared eigenvalue, generic eigenspaces, recognized bridge layout);
    validator failure does not decide the verdict. An exact block without
    the strong property is refused; a float block's strong property is the
    caller's to establish.
    """
    kind = normalize_kind(kind)
    arr_a, arr_b = _finite_symmetric(a), _finite_symmetric(b)
    m, n = arr_a.shape[0], arr_b.shape[0]
    beta = bridge_set(m, n, beta)
    if len(beta) == 0:
        raise ValueError("a liberation set must be nonempty")
    for name, blk in (("first", a), ("second", b)):
        if isinstance(blk, RatMatrix) and not has_strong_property(
                blk, pattern_of(blk), kind).answer:
            raise ValueError("%s block lacks the strong property" % name)
    space = _sylvester(arr_a, arr_b, tol, kind)

    ev = _evaluation(space, beta.pairs, m)
    per = [(e, numeric_rank(np.delete(ev, k, axis=0), tol) == space.dimension)
           for k, e in enumerate(beta.pairs)]
    answer = all(ok for _, ok in per)

    one_common = len(space.common) == 1
    validators = [("one-common-eigenvalue", one_common,
                   "common spectrum size %d" % len(space.common))]
    if one_common:
        value, k, ell = space.common[0]
        ua, ub = space.eigvec_blocks[0]
        validators.append(("multiplicity-pair", True,
                           "(k, l) = (%d, %d) at value %.6g" % (k, ell, value)))
        generic = is_generic(ua, tol) and is_generic(ub, tol)
        validators.append(("generic-eigenspaces", generic,
                           "both shared-eigenvalue eigenspaces generic"
                           if generic else "a shared-eigenvalue eigenspace has"
                           " a singular square submatrix"))
        shape_ok, detail = _beta_shape(beta.pairs, k, ell)
        validators.append(("beta-shape", shape_ok, detail))
    else:
        validators.append(("multiplicity-pair", False, "undefined"))
        validators.append(("generic-eigenspaces", False, "not applicable"))
        validators.append(("beta-shape", False, "not applicable"))

    return DirectSumCertificate(beta, kind, answer, tuple(per),
                                tuple(validators), space.dimension,
                                space.common, space.ambiguous)
