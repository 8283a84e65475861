"""Liberation sets: which nonedges can all be filled at once.

A nonempty set beta of nonedges of G is a liberation set of a matrix A in
S(G) (for the chosen strong property) when A has the property with respect to
G + beta' for every beta' obtained from beta by dropping one pair. Four
equivalent readings of that condition are computed side by side and must
agree:

  definitional  relative-property check against each supergraph G + beta'
  row-rank      Psi[alpha + {e}] has full row rank for each e in beta,
                alpha = nonedges outside beta
  witness       A has the property w.r.t. G + beta and some x in Col(Psi)
                is supported exactly on beta
  echelon       column echelon with the beta rows at the bottom has shape
                [[I, O], [*, B]] with no zero row in B
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exactla import RatMatrix, col_space_contains, column_echelon
from .graphs import EdgeSet, Graph, nonedge_set
from .patterns import SAMPLE_MODES, CertificateError, sample_S
from .strongprops import (_drop_one_verdicts, _selected_rank, normalize_kind,
                          psi)

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


def _witness_from_block(block: RatMatrix, beta_idx, nrows):
    """Combine tail columns of the echelon so every beta coordinate is hit.

    Each block row is nonzero, so row . (1, t, t^2, ...) is a nonzero
    polynomial in t; some small positive integer t avoids all roots.
    """
    w = block.cols
    if w == 0:
        return None
    limit = block.rows * w + 2
    for t in range(1, limit):
        weights = [Fraction(t) ** s for s in range(w)]
        vals = [sum(block[r, s] * weights[s] for s in range(w))
                for r in range(block.rows)]
        if all(v != 0 for v in vals):
            x = [Fraction(0)] * nrows
            for r, idx in enumerate(beta_idx):
                x[idx] = vals[r]
            return tuple(x)
    return None


def is_liberation_set(a, g: Graph, beta, kind: str = "ssp") -> LiberationCertificate:
    """Certificate that beta is (or is not) a liberation set of a over g.

    All four criteria are evaluated; a disagreement aborts, since it can only
    mean a bug in one of the code paths.
    """
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
    alpha_idx = [i for i in range(len(rows)) if i not in set(beta_idx)]

    per = _drop_one_verdicts(vm, beta.pairs)
    c1 = all(ok for _, ok in per)

    c2 = all(_selected_rank(vm, alpha_idx + [i]) == len(alpha_idx) + 1
             for i in beta_idx)

    ech = column_echelon(vm.matrix, beta_idx)
    c4 = ech.top_independent and not ech.bottom_zero_rows

    alpha_rank_full = ech.top_independent
    witness = None
    if alpha_rank_full and ech.block is not None:
        witness = _witness_from_block(ech.block, beta_idx, len(rows))
        if witness is not None:
            if not col_space_contains(vm.matrix, list(witness)):
                raise CertificateError("witness is outside the column space")
            if any((witness[i] != 0) != (i in set(beta_idx))
                   for i in range(len(rows))):
                raise CertificateError("witness support is not beta")
    c3 = alpha_rank_full and witness is not None

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
        per_beta_prime=tuple(per),
        rows=rows,
        witness=witness,
        alpha_rank=_selected_rank(vm, alpha_idx),
        alpha_size=len(alpha_idx),
    )


def enumerate_minimal_liberation_sets(a, g: Graph, kind: str = "ssp",
                                      max_size: int = 3):
    """All inclusion-minimal liberation sets of a over g up to max_size.

    Exhaustive over nonedge subsets in increasing size; supersets of a found
    set are skipped, and candidates are screened by the row-rank criterion on
    a single shared verification matrix.
    """
    kind = normalize_kind(kind)
    vm = psi(a, g, kind)
    rows = vm.rows
    if max_size > len(rows):
        raise ValueError("max_size %d exceeds the %d nonedges" % (max_size, len(rows)))
    found = []
    found_sets = []
    for size in range(1, max_size + 1):
        for combo in combinations(range(len(rows)), size):
            cset = set(combo)
            if any(prev <= cset for prev in found_sets):
                continue
            alpha = [i for i in range(len(rows)) if i not in cset]
            if all(_selected_rank(vm, alpha + [i]) == len(alpha) + 1
                   for i in combo):
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
