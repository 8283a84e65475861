"""Liberation sets: which nonedges can all be filled at once.

A nonempty set beta of nonedges of G is a liberation set of a matrix A in
S(G) (for the chosen strong property) when A has the property with respect to
G + beta' for every beta' obtained from beta by dropping one pair. Four
equivalent readings of that condition are computed side by side and must
agree:

  definitional  relative-property check against each supergraph G + beta'
  row-rank      Psi[alpha + {e}] has full row rank for each e in beta,
                alpha = nonedges outside beta; Psi[alpha] is eliminated
                once, its pivot count is alpha_rank, and each row e is
                eliminated against that echelon form
  witness       A has the property w.r.t. G + beta and some x in Col(Psi)
                is supported exactly on beta; x is B (1, t, t^2, ...) for
                the first integer t > 0 that leaves no entry zero, found by
                integer Horner on the echelon route's integer vectors, and
                is re-checked to lie in Col(Psi) by its own forward
                elimination of the rows of D Psi augmented by x
  echelon       column echelon with the beta rows at the bottom has shape
                [[I, O], [*, B]] with no zero row in B; one elimination of
                Psi's integer columns (VerificationMatrix.int_cols), alpha
                entries first, reducing only the vectors that make up B
                against each other

The routes run separate eliminations but read one integer source: the
definitional and row-rank routes eliminate VerificationMatrix.int_rows, the
echelon route its int_cols, and the witness re-check the unreduced rows of
D Psi (D the lcm of A's denominators) with x appended; all three are one
gather of D A's verification matrix. So a fault in that gather would give
consistent certificates, not a disagreement; tests/test_strongprops.py
checks the integer rows and columns against the Fraction matrix Psi. None
of the four reads Psi's Fractions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .exactla import (RatMatrix, _column_echelon, _eliminate,
                      _in_column_span, _int_vector)
from .graphs import EdgeSet, Graph, nonedge_set
from .patterns import SAMPLE_MODES, CertificateError, sample_S
from .strongprops import (_drop_one_verdicts, _selected_rank,
                          normalize_kind, psi)

CRITERIA = ("definitional", "row-rank", "witness", "echelon")


@dataclass(frozen=True)
class LiberationCertificate:
    beta: EdgeSet
    kind: str
    answer: bool
    criteria: tuple          # ((name, verdict), ...) in CRITERIA order
    per_beta_prime: tuple    # ((dropped pair, relative-property verdict), ...)
    rows: tuple              # nonedge order indexing the witness coordinates
    witness: tuple | None    # entries over rows; support is exactly beta
    alpha_rank: int
    alpha_size: int

    def __bool__(self):
        return self.answer

    def criterion(self, name: str) -> bool:
        for key, verdict in self.criteria:
            if key == name:
                return verdict
        raise KeyError(name)


def _witness_from_block(ech, beta_idx, nrows):
    """Combine tail columns of the echelon so every beta coordinate is hit.

    ech is the integer column echelon of Psi with the beta rows at the
    bottom (exactla._column_echelon): entry (i, j) of its block B is
    x / pv, x = ech.vectors[k + j][k + i] and pv that vector's pivot entry.
    Each block row is nonzero, so row . (1, t, t^2, ...) is a nonzero
    polynomial in t; some small positive integer t avoids all roots. The
    search evaluates the rows of D B, D the lcm of B's denominators
    pv / gcd(x, pv), by integer Horner; only the chosen values become
    Fractions, divided by D.
    """
    k = ech.k
    w = len(ech.vectors) - k
    if w == 0:
        return None
    tail = ech.vectors[k:len(ech.pivots)]
    pv = [v[c] for v, c in zip(tail, ech.pivots[k:])]
    den = lcm(*[abs(p) // gcd(v[k + i], p)
                for v, p in zip(tail, pv) for i in range(len(beta_idx))])
    # block row i, coefficients from the highest power of t down
    ints = [[v[k + i] * den // p for v, p in zip(reversed(tail), reversed(pv))]
            for i in range(len(beta_idx))]
    limit = len(beta_idx) * w + 2
    for t in range(1, limit):
        vals = []
        for row in ints:
            v = 0
            for x in row:
                v = v * t + x
            if not v:
                break
            vals.append(v)
        else:
            x = [Fraction(0)] * nrows
            for idx, v in zip(beta_idx, vals):
                x[idx] = Fraction(v, den)
            return tuple(x)
    return None


def is_liberation_set(a, g: Graph, beta, kind: str = "ssp") -> LiberationCertificate:
    """Certificate that beta is (or is not) a liberation set of a over g.

    All four criteria are evaluated; a disagreement aborts, since it can only
    mean a bug in one of the code paths. a must be an exact RatMatrix.
    """
    if not isinstance(a, RatMatrix):
        raise TypeError("is_liberation_set needs an exact RatMatrix, got %s"
                        % type(a).__name__)
    kind = normalize_kind(kind)
    beta = beta if isinstance(beta, EdgeSet) else nonedge_set(g, beta)
    if len(beta) == 0:
        raise ValueError("a liberation set must be nonempty")
    if beta.tag != "nonedges":
        raise ValueError("expected a nonedge set, got tag %r" % beta.tag)
    bad = set(beta.pairs) & set(g.edges)
    if bad:
        raise ValueError("pairs %s are edges of the graph" % sorted(bad))

    vm = psi(a, g, kind)
    rows = vm.rows
    index = {e: i for i, e in enumerate(rows)}
    beta_idx = [index[e] for e in beta.pairs]
    beta_set = set(beta_idx)
    alpha_idx = [i for i in range(len(rows)) if i not in beta_set]

    per = tuple(_drop_one_verdicts(vm, beta.pairs))
    c1 = all(ok for _, ok in per)

    int_rows, cols = vm.int_rows, vm.ncols
    alpha_ech, pivots = _eliminate([int_rows[i] for i in alpha_idx], cols)
    alpha_rank = len(pivots)
    alpha_ech = alpha_ech[:alpha_rank]
    c2 = alpha_rank == len(alpha_idx) and all(
        len(_eliminate(alpha_ech + [int_rows[i]], cols)[1]) == alpha_rank + 1
        for i in beta_idx)

    ech = _column_echelon(vm.int_cols, len(rows), beta_idx, len(alpha_idx))
    c4 = ech.top_independent and not ech.bottom_zero_rows

    witness = None
    if ech.top_independent:
        witness = _witness_from_block(ech, beta_idx, len(rows))
        if witness is not None:
            # re-check the returned witness against psi, eliminated afresh:
            # the rows of D psi with the witness's integer line appended
            aug = [row + [v] for row, v in zip(vm._int_matrix.tolist(),
                                               _int_vector(witness))]
            if not _in_column_span(aug, cols):
                raise CertificateError("witness is outside the column space")
            if any((witness[i] != 0) != (i in beta_set)
                   for i in range(len(rows))):
                raise CertificateError("witness support is not beta")
    c3 = ech.top_independent and witness is not None

    verdicts = (c1, c2, c3, c4)
    if len(set(verdicts)) != 1:
        raise RuntimeError(
            "liberation criteria disagree (%s) for beta=%s kind=%s; "
            "this is a bug in one of the four code paths"
            % (dict(zip(CRITERIA, verdicts)), beta.pairs, kind))

    return LiberationCertificate(
        beta=beta,
        kind=kind,
        answer=c1,
        criteria=tuple(zip(CRITERIA, verdicts)),
        per_beta_prime=per,
        rows=rows,
        witness=witness,
        alpha_rank=alpha_rank,
        alpha_size=len(alpha_idx),
    )


def enumerate_minimal_liberation_sets(a, g: Graph, kind: str = "ssp",
                                      max_size: int = 3):
    """All inclusion-minimal liberation sets of a over g up to max_size.

    Exhaustive over nonedge subsets in increasing size; supersets of a found
    set are skipped. A candidate beta passes the drop-one check when, for
    each e in beta, the rows of the one shared verification matrix outside
    beta - e are independent. Candidates share those row sets (every
    singleton selects all rows, and {e, f} selects all rows but f, as does
    {f, g} for g != f), so each distinct selection is ranked once per call,
    exact or float alike, and its verdict kept in a dict keyed by the rows
    it leaves out.
    """
    kind = normalize_kind(kind)
    vm = psi(a, g, kind)
    rows = vm.rows
    if not 1 <= max_size <= len(rows):
        raise ValueError("max_size must lie in 1..%d, the nonedge count, got %d"
                         % (len(rows), max_size))
    independent = {}

    def rows_independent(left_out):
        ok = independent.get(left_out)
        if ok is None:
            sel_idx = [k for k in range(len(rows)) if k not in left_out]
            ok = independent[left_out] = (
                _selected_rank(vm, sel_idx) == len(sel_idx))
        return ok

    found = []
    found_sets = []
    for size in range(1, max_size + 1):
        for combo in combinations(range(len(rows)), size):
            cset = set(combo)
            if any(prev <= cset for prev in found_sets):
                continue
            if all(rows_independent(combo[:t] + combo[t + 1:])
                   for t in range(size)):
                found.append(nonedge_set(g, [rows[i] for i in combo]))
                found_sets.append(cset)
    return found


@dataclass(frozen=True)
class GraphLiberationVerdict:
    verdict: str             # "certified-counterexample" | "probabilistic-yes"
    beta: EdgeSet
    kind: str
    trials: int
    seed: object
    counterexample: RatMatrix | None = None
    counterexample_mode: str | None = None

    def __bool__(self):
        return self.verdict == "probabilistic-yes"


def is_graph_liberation_set(g: Graph, beta, kind: str = "ssp",
                            trials: int = 60, seed=0) -> GraphLiberationVerdict:
    """Sampling verdict for 'beta liberates every matrix with this pattern'.

    The universal claim cannot be decided by finitely many samples, so the
    positive answer is reported as probabilistic-yes; a failing sample is a
    genuine counterexample and is returned with the certificate.
    """
    kind = normalize_kind(kind)
    if trials < 1:
        raise ValueError("trials must be positive")
    beta = beta if isinstance(beta, EdgeSet) else nonedge_set(g, beta)
    rng = random.Random(seed)
    for t in range(trials):
        mode = SAMPLE_MODES[t % len(SAMPLE_MODES)]
        if mode == "random-diagonal-collisions" and g.n < 2:
            mode = "random-rational"
        a = sample_S(g, seed=rng.randrange(2**63), mode=mode)
        cert = is_liberation_set(a, g, beta, kind)
        if not cert.answer:
            return GraphLiberationVerdict(
                "certified-counterexample", beta, kind, t + 1, seed, a, mode)
    return GraphLiberationVerdict("probabilistic-yes", beta, kind, trials, seed)
