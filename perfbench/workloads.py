"""The benchmark's workloads: inputs made from a seed, one operation each,
and independent checks of every output.

A workload makes one round of operations in set-up (``generate``), runs
one of them per call to ``execute`` (the timed part), and checks results
with ``check`` (full check, the first time a slot runs) or ``verdict``
(cheap summary, compared across rounds and hashed into the seed digest).
Checks use plain ``if``s, so they also hold under ``python -O``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
# bound before tracing, so the checks' calls stay out of the counts
from numpy.linalg import eigvalsh

import liberatrix as L
from liberatrix import cli

from spec import REPLAY_TARGETS


class CheckFailed(Exception):
    """An output did not pass its independent check."""


@dataclass(frozen=True)
class Op:
    index: int      # slot in the round
    kind: str       # one of spec.OP_KINDS, or "replay"
    payload: object

    @property
    def label(self):
        return self.payload if self.kind == "replay" else self.kind


def canonical(obj):
    """JSON-ready form for digests: floats rounded to 1e-6, tuples as lists."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return round(float(obj), 6) + 0.0
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return repr(obj)


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _graph_with(g, pairs):
    return L.build_graph(g.n, tuple(g.edges) + tuple(pairs))


def _check_obstruction(a, x, h, kind):
    """x must be a nonzero symmetric zero-diagonal matrix on the nonedges of
    h with [a, x] = 0 (ssp) or a x = 0 (sap)."""
    n = a.rows
    _require(not x.is_zero(), "obstruction certificate is zero")
    for i in range(n):
        _require(x[i, i] == 0, "obstruction has a diagonal entry")
        for j in range(i + 1, n):
            _require(x[i, j] == x[j, i], "obstruction is not symmetric")
            if x[i, j] != 0:
                _require(not h.has_edge(i + 1, j + 1),
                         "obstruction touches an edge")
    prod = L.commutator(a, x) if kind == "ssp" else a @ x
    _require(prod.is_zero(), "obstruction does not annihilate the matrix")


def _clusters(values, tol=1e-6):
    """Multiplicities of ascending values, chaining gaps of at most tol."""
    mults = [1]
    for lo, hi in zip(values, values[1:]):
        if hi - lo <= tol:
            mults[-1] += 1
        else:
            mults.append(1)
    return tuple(mults)


def _check_spectrum(matrix, expected, mults):
    vals = eigvalsh(np.asarray(matrix, dtype=float))
    dev = float(np.max(np.abs(vals - np.array(sorted(expected)))))
    _require(dev <= 1e-6, "eigenvalues off target by %.2e" % dev)
    got = _clusters(vals)
    _require(got == tuple(mults),
             "multiplicities %s, wanted %s" % (got, mults))
    return got


# ---------------------------------------------------------------------------
# certify: exact certificates on random 5-8 vertex graphs

# is_liberation_set is half the ops, so the median latency falls inside
# the libset and cli bulk rather than at its edge with the fast kinds.
CERTIFY_KINDS = ("libset", "strong", "libset", "cli", "libset",
                 "enumerate", "libset", "strong", "libset", "cli")
# Random entries alone almost always certify; unit adjacency and Laplacian
# matrices supply the "no" verdicts and their obstruction certificates.
MATRIX_SOURCES = ("random-rational", "unit-off-diagonal", "laplacian",
                  "random-diagonal-collisions")


def _random_graph(rng, n, min_nonedges):
    pairs = list(combinations(range(1, n + 1), 2))
    p = rng.uniform(0.35, 0.65)
    edges = [e for e in pairs if rng.random() < p]
    while len(pairs) - len(edges) < min_nonedges:
        edges.pop(rng.randrange(len(edges)))
    return L.build_graph(n, edges)


def _laplacian(g):
    a = L.RatMatrix.zeros(g.n, g.n)
    for i, j in g.edges:
        a[i - 1, j - 1] = a[j - 1, i - 1] = Fraction(-1)
        a[i - 1, i - 1] += 1
        a[j - 1, j - 1] += 1
    return a


def _matrix_text(a):
    rows = ["%d %d" % (a.rows, a.cols)]
    rows += [" ".join(str(a[i, j]) for j in range(a.cols))
             for i in range(a.rows)]
    return "\n".join(rows) + "\n"


def _graph_text(g):
    lines = ["%d %d" % (g.n, len(g.edges))]
    lines += ["%d %d" % e for e in g.edges]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CertifyInput:
    g: object
    a: object
    beta: tuple = ()
    kind: str = "ssp"
    argv: tuple = ()
    report: str = ""


class Certify:
    name = "certify"
    # kind x matrix source x (vertex count, |beta|) pair: every stratum
    # once, so rounds of different seeds differ only inside the strata
    round_size = len(CERTIFY_KINDS) * len(MATRIX_SOURCES) * 8

    def __init__(self, workdir):
        self.workdir = workdir

    def generate(self, seed):
        rng = random.Random("certify-%d" % seed)
        ops = []
        strong = 0
        for i in range(self.round_size):
            kind = CERTIFY_KINDS[i % len(CERTIFY_KINDS)]
            stratum = i // len(CERTIFY_KINDS)
            source = MATRIX_SOURCES[stratum % len(MATRIX_SOURCES)]
            stratum //= len(MATRIX_SOURCES)
            # each vertex count and each |beta| in 1-4 twice per 8 strata
            n = 5 + (stratum % 2 if kind == "enumerate" else stratum % 4)
            size = 1 + (stratum + stratum // 4) % 4
            g = _random_graph(rng, n, min_nonedges=max(size, 2))
            if source == "laplacian":
                a = _laplacian(g)
            else:
                a = L.sample_S(g, seed=rng.randrange(2 ** 63), mode=source)
            beta = tuple(sorted(rng.sample(g.nonedges(), size)))
            if kind == "strong":
                ops.append(Op(i, kind, CertifyInput(
                    g, a, kind=("ssp", "sap")[strong % 2])))
                strong += 1
            elif kind == "cli":
                stem = os.path.join(self.workdir, "certify-%d" % i)
                with open(stem + ".graph", "w", encoding="utf-8") as fh:
                    fh.write(_graph_text(g))
                with open(stem + ".matrix", "w", encoding="utf-8") as fh:
                    fh.write(_matrix_text(a))
                argv = ("libset", "--check", "--graph", stem + ".graph",
                        "--matrix", stem + ".matrix",
                        "--beta", ",".join("%d-%d" % e for e in beta),
                        "--json", stem + ".json")
                ops.append(Op(i, kind, CertifyInput(g, a, beta, argv=argv,
                                                    report=stem + ".json")))
            else:
                ops.append(Op(i, kind, CertifyInput(g, a, beta)))
        return ops

    def execute(self, op):
        p = op.payload
        if op.kind == "libset":
            return L.is_liberation_set(p.a, p.g, p.beta)
        if op.kind == "strong":
            return L.has_strong_property(p.a, p.g, p.kind)
        if op.kind == "enumerate":
            return L.enumerate_minimal_liberation_sets(p.a, p.g, max_size=2)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(p.argv))
        with open(p.report, encoding="utf-8") as fh:
            return code, json.load(fh)

    def verdict(self, op, res):
        if op.kind == "libset":
            return ("libset", res.answer, res.criteria, res.alpha_rank,
                    res.alpha_size)
        if op.kind == "strong":
            return ("strong", op.payload.kind, res.answer, res.rank,
                    res.nullity)
        if op.kind == "enumerate":
            return ("enumerate", tuple(tuple(s.pairs) for s in res))
        code, report = res
        v = report["verdicts"]
        return ("cli", code, v["answer"], tuple(sorted(v["criteria"].items())),
                v["alpha_rank"])

    def check(self, op, res):
        p = op.payload
        if op.kind == "libset":
            self._check_libset(p, res.answer, dict(res.criteria))
            if res.answer:
                index = {e: k for k, e in enumerate(res.rows)}
                support = {k for k, x in enumerate(res.witness) if x != 0}
                _require(support == {index[e] for e in p.beta},
                         "witness support is not beta")
        elif op.kind == "strong":
            if res.answer:
                _require(res.rank == len(res.rows) and res.nullity == 0
                         and not res.certificate, "inconsistent 'yes'")
            else:
                _require(res.nullity > 0
                         and len(res.certificate) == res.nullity,
                         "a 'no' needs one certificate per kernel vector")
                for x in res.certificate:
                    _check_obstruction(p.a, x, p.g, p.kind)
        elif op.kind == "enumerate":
            nonedges = set(p.g.nonedges())
            sets = [set(s.pairs) for s in res]
            for s in sets:
                _require(1 <= len(s) <= 2 and s <= nonedges,
                         "enumerated set out of range")
            for s, t in combinations(sets, 2):
                _require(not (s <= t or t <= s), "enumerated sets not minimal")
        else:
            code, report = res
            v = report["verdicts"]
            _require(code == (0 if v["answer"] else 1), "exit code vs answer")
            self._check_libset(p, v["answer"], v["criteria"])
        return self.verdict(op, res)

    @staticmethod
    def summary(verdicts):
        """How many yes and no verdicts a round gave."""
        answers = [v[1] if v[0] == "libset" else v[2]
                   for v in verdicts if v[0] != "enumerate"]
        return {"yes": sum(1 for a in answers if a),
                "no": sum(1 for a in answers if not a)}

    @staticmethod
    def _check_libset(p, answer, criteria):
        _require(len(criteria) == 4
                 and all(v == answer for v in criteria.values()),
                 "liberation criteria disagree with the answer")
        if answer:
            return
        # re-derive one obstruction: some dropped pair must fail the
        # relative property, with a certificate that checks out
        for e in p.beta:
            h = _graph_with(p.g, [f for f in p.beta if f != e])
            res = L.has_strong_property_wrt(p.a, p.g, h, "ssp")
            if not res.answer:
                for x in res.certificate:
                    _check_obstruction(p.a, x, h, "ssp")
                return
        raise CheckFailed("'no' verdict but every relative property holds")


# ---------------------------------------------------------------------------
# construct: numeric constructions through the table6 recipe

C5 = L.cycle_graph(5)
FORK = L.build_graph(5, ((1, 2), (2, 3), (3, 4), (3, 5)))
# pattern -> (graph, cover pairs onto the loose vertex 6,
#             {6-vertex list: (5-vertex list, index of the loose value)})
RECIPES = {
    "C5": (C5, ((1, 6), (3, 6), (4, 6), (5, 6)), {
        (1, 2, 3): ((1, 2, 2), 2), (1, 3, 2): ((1, 2, 2), 1),
        (3, 2, 1): ((2, 2, 1), 0), (2, 3, 1): ((2, 2, 1), 1),
        (1, 1, 3, 1): ((1, 1, 2, 1), 2), (1, 3, 1, 1): ((1, 2, 1, 1), 1)}),
    "fork": (FORK, ((1, 6), (4, 6), (5, 6)), {
        (1, 3, 1, 1): ((1, 2, 1, 1), 1), (1, 1, 3, 1): ((1, 1, 2, 1), 2)}),
}
# The realizations take most of the time; the median latency is a liberate
# op's. Liberate latencies fall in two clusters about 2x apart (near 6 and
# 12 ms, about half the ops each). Lowrank ops (1-2 ms) are a third of the
# round, so the median falls inside the fast cluster, not in the gap
# between the two, where it moved by 17% between seeds.
CONSTRUCT_KINDS = ("realize",) + ("liberate",) * 30 + ("lowrank",) * 15
REALIZE_PATTERNS = ("C5", "fork") + ("C5",) * 8
MAX_SSP_TRIES = 20
PRISM = L.catalog("prism")


def _draw_values(rng, k):
    """Ascending targets with gaps of at least 0.9."""
    vals = [-3.0 + rng.random()]
    for _ in range(k - 1):
        vals.append(vals[-1] + 0.9 + 1.2 * rng.random())
    return vals


def _expand(values, mults):
    return [v for v, m in zip(values, mults) for _ in range(m)]


@dataclass(frozen=True)
class RealizeItem:
    pattern: str
    mults: tuple
    values: tuple
    realize_seed: int
    liberate_seed: int


def realize_item(i):
    """Item i of the pinned realization corpus, the same for every seed.

    Solver cost here is set by the random start far more than by the
    target: one start seed cost 3 s on every target it was tried with, its
    neighbours 0.002-0.2 s. Items redrawn per seed would make a run of a
    few realizations measure luck.
    """
    rng = random.Random("construct-corpus-%d" % i)
    pattern = REALIZE_PATTERNS[i % len(REALIZE_PATTERNS)]
    mults = rng.choice(sorted(RECIPES[pattern][2]))
    values = tuple(_draw_values(rng, len(mults)))
    return RealizeItem(pattern, mults, values, rng.randrange(2 ** 32),
                       rng.randrange(2 ** 32))


def _block_diag(a, b):
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n + m, n + m))
    out[:n, :n] = a
    out[n:, n:] = b
    return out


BLOCK = 4          # liberate ops grow s I + c J_4 plus a loose vertex
K4K1 = L.build_graph(BLOCK + 1, combinations(range(1, BLOCK + 1), 2))


def _ones_plus_loose(c, s):
    """s I + c J_4 on four vertices plus a loose vertex at s + 4 c."""
    a = L.RatMatrix.zeros(BLOCK + 1, BLOCK + 1)
    for i in range(BLOCK):
        for j in range(BLOCK):
            a[i, j] = c + (s if i == j else 0)
    a[BLOCK, BLOCK] = s + BLOCK * c
    return a


class Construct:
    name = "construct"
    round_size = 10 * len(CONSTRUCT_KINDS)

    def __init__(self, workdir):
        self.workdir = workdir

    def generate(self, seed):
        rng = random.Random("construct-%d" % seed)
        ops = []
        for i in range(self.round_size):
            kind = CONSTRUCT_KINDS[i % len(CONSTRUCT_KINDS)]
            if kind == "realize":
                item = realize_item(i // len(CONSTRUCT_KINDS))
                ops.append(Op(i, kind, item))
            elif kind == "liberate":
                c = Fraction(rng.choice((1, 2, 3)) * rng.choice((1, -1)),
                             rng.choice((1, 2, 3)))
                s = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                u, v = sorted(rng.sample(range(1, BLOCK + 1), 2))
                beta = ((u, BLOCK + 1), (v, BLOCK + 1))
                ops.append(Op(i, kind, (_ones_plus_loose(c, s), beta, c, s,
                                        rng.randrange(2 ** 32))))
            else:
                c1 = rng.choice((1, -1)) * rng.uniform(0.5, 2.0)
                c2 = rng.choice((1, -1)) * rng.uniform(0.5, 2.0)
                ring = np.zeros((4, 4))
                for u, v in ((0, 1), (1, 2), (2, 3), (0, 3)):
                    ring[u, v] = ring[v, u] = c1
                a0 = _block_diag(ring, np.full((2, 2), c2))
                ops.append(Op(i, kind, (a0, c2, rng.randrange(2 ** 32))))
        return ops

    def execute(self, op):
        if op.kind == "realize":
            item = op.payload
            g, beta, table = RECIPES[item.pattern]
            base_mults, loose = table[item.mults]
            values = item.values
            for t in range(MAX_SSP_TRIES):
                m = L.realize_in_pattern(g, _expand(values, base_mults),
                                         seed=item.realize_seed + t)
                if L.has_strong_property(m, g, "ssp").answer:
                    break
            else:
                raise RuntimeError("no realization with the strong property")
            a = _block_diag(m, np.array([[values[loose]]]))
            base = L.disjoint_union(g, L.empty_graph(1))
            return L.liberate(a, base, beta, seed=item.liberate_seed)
        if op.kind == "liberate":
            a, beta, _c, _s, seed = op.payload
            return L.liberate(a, K4K1, beta, seed=seed)
        a0, _c2, seed = op.payload
        return L.complete_pattern_low_rank(a0, PRISM, seed=seed)

    def verdict(self, op, res):
        vals = eigvalsh(np.asarray(res.matrix, dtype=float))
        if op.kind == "lowrank":
            scale = max(1.0, float(np.max(np.abs(vals))))
            return ("lowrank", int(np.sum(vals > 1e-8 * scale)),
                    int(np.sum(vals < -1e-8 * scale)))
        return (op.kind, _clusters(vals))

    @staticmethod
    def summary(verdicts):
        return {k: sum(1 for v in verdicts if v[0] == k)
                for k in ("realize", "liberate", "lowrank")}

    def check(self, op, res):
        if op.kind == "realize":
            item = op.payload
            g, beta, _ = RECIPES[item.pattern]
            _check_spectrum(res.matrix, _expand(item.values, item.mults),
                            item.mults)
            h = _graph_with(L.disjoint_union(g, L.empty_graph(1)), beta)
            _require(L.in_class(res.matrix, h, "S", tol=0.0),
                     "grown matrix is off its pattern")
        elif op.kind == "liberate":
            _a, beta, c, s, _seed = op.payload
            lo, hi = sorted((float(s), float(s + BLOCK * c)))
            mults = (BLOCK - 1, 2) if c > 0 else (2, BLOCK - 1)
            expected = [lo] * mults[0] + [hi] * mults[1]
            _check_spectrum(res.matrix, expected, mults)
            grown = _graph_with(K4K1, beta)
            _require(L.in_class(res.matrix, grown, "S", tol=0.0),
                     "liberated matrix is off its pattern")
        else:
            _a0, c2, _seed = op.payload
            _, pos, neg = self.verdict(op, res)
            want = (2, 1) if c2 > 0 else (1, 2)
            _require((pos, neg) == want,
                     "inertia %s, wanted %s" % ((pos, neg), want))
            _require(L.in_class(res.matrix, PRISM, "S", tol=1e-8),
                     "completion is off the prism pattern")
        return self.verdict(op, res)


# ---------------------------------------------------------------------------
# replay: the registry pipelines

REPLAY_SEED = 0


class Replay:
    """reproduce(name, 0) for each target other than table6, in registry
    order, whatever the run seed.

    Seed 0 is what ``liberatrix reproduce <name>`` runs. Other replay seeds
    cost up to 30 times more per target (c6c8: 5.5 s at seed 0, 180 s at
    seed 4, and a failure after 95 s at seed 1), which no run of a few
    seconds can average out. The order stays fixed too: a 50 ms target's
    latency depends on what ran before it, and a seeded order moved the
    median latency by 25% between seeds.
    """

    name = "replay"

    def __init__(self, workdir):
        self.workdir = workdir

    def generate(self, seed):
        return [Op(i, "replay", name) for i, name in enumerate(REPLAY_TARGETS)]

    def execute(self, op):
        return L.reproduce(op.payload, REPLAY_SEED)

    def verdict(self, op, res):
        return ("replay", res.name, res.ok, canonical(res.data))

    @staticmethod
    def summary(verdicts):
        return {"passed": sum(1 for v in verdicts if v[2])}

    def check(self, op, res):
        _require(res.ok and res.failed_stage is None,
                 "%s failed at stage %r" % (res.name, res.failed_stage))
        return self.verdict(op, res)


WORKLOADS = {w.name: w for w in (Certify, Construct, Replay)}
