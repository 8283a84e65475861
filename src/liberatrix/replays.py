"""Scripted replays of the worked constructions, end to end.

Each registry target drives one pipeline: build the blocks, certify the
bridge set, run the growth or completion step, then re-verify spectrum and
pattern on the output. Stages are recorded in order and the first failure
stops the run, so a broken step is named in the report instead of cascading
into later noise. Everything is seeded; rerunning a target with the same
seed replays the same draws.

Every merge of blocks A and B takes one glue path, `_glue`: certify the
bridges, liberate A + B along them and place it in the row's labels. The
certificate comes in two kinds: bridges checked through the Sylvester
intertwiner space (`directsum_liberation`) or a zero-forcing cover of the
Cartesian product (`zf_liberation`).

The table rows are data. `_SPLITS` names, for each ordered multiplicity
list of a row, its blocks A and B (a shape and the indices of the list's
values each takes) and its glue options; one function, `_block`, realizes
any block, and `_row_glue` realizes any list of any row. `TABLE6`, every
list of every row, is read off `_SPLITS` and the one-pair rows, which grow
their parent row's matrix by one pair. The list targets (`g100`,
`g127g169`, `g163`, `g129`, `g171`, `g175`) are entries of `_LIST_TARGETS`,
run by one runner: each step draws target values, checks and realizes every
list of its row, and the last list's matrix then grows into the one-pair
rows of that row. `table6` realizes every list of every row at two
independent draws.
"""

from __future__ import annotations

import math
import random
import zlib
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from . import REGISTRY
from .continuation import (MIN_ENTRY, complete_pattern_low_rank, liberate,
                           realize_in_pattern, realize_spectrum)
from .directsum import directsum_liberation, sylvester_space
from .exactla import RatMatrix, charpoly, direct_sum
from .graphs import (add_edges, build_graph, cartesian_product, catalog,
                     catalog_entry, cycle_graph, nonedge_set,
                     path_graph, product_index, star_graph)
from .liberation import (_first_failing_sample,
                         enumerate_minimal_liberation_sets,
                         is_graph_liberation_set, is_liberation_set)
from .numla import _blocks_generic, is_generic, multiplicity_list, sym_eigen
from .patterns import in_class, pair_position, pattern_of
from .strongprops import has_strong_property, has_strong_property_wrt, psi
from .zeroforcing import is_zf_cover, zf_liberation

CLAIMS = {
    "k4k1": "Two pairs into the isolated vertex free the all-ones block: "
            "spectrum {0^3, 4^2} moves intact into the grown pattern and "
            "exactly the six two-pair sets are minimal.",
    "g151": "Every sampled member of the three-parameter family over the "
            "split star pattern is freed by the four quoted pairs, while one "
            "crafted matrix in the same pattern defeats them.",
    "g100": "A star block and an edge block sharing one simple eigenvalue "
            "merge across two bridges into ordered multiplicities (1,2,2,1).",
    "g127g169": "A triangle-plus-path split realizes (2,1,1,2) and a "
                "clique-plus-edge split realizes (1,3,2) and (2,3,1), each "
                "across its own two bridges.",
    "g163": "A triangle sharing its doubled eigenvalue with a path endpoint "
            "merges across two bridge pairs per shared row, realizing "
            "(1,1,3,1) and (1,3,1,1).",
    "c6c8": "Two cycle blocks sharing one doubled eigenvalue merge across "
            "rectangular bridge grids into 14-vertex matrices with list "
            "(4,2,2,2,2,2); the printed first block lacks the required "
            "strong property, so a cospectral replacement carries the "
            "continuation.",
    "k14": "The key minor of the four-leaf star's verification matrix has "
           "determinant -2*a25*a35*a45^2, and two sampled triples of missing "
           "pairs free every matrix with the pattern.",
    "k13k13": "Two star blocks sharing their repeated leaf value merge "
              "across a two-by-three leaf grid into (1,1,4,1,1), with the "
              "zero hub rows of the shared eigenspaces doing no harm.",
    "g129": "A fork-tree realization with one doubled value absorbs a "
            "matching loose vertex through a three-pair pendant cover, "
            "giving (1,3,1,1) and (1,1,3,1); single added pairs then reach "
            "the two denser patterns.",
    "g171": "Five-cycle realizations absorb a loose vertex through a "
            "four-pair cover, giving all six orderings with a tripled "
            "value; one more pair reaches the densest pattern.",
    "g175": "A star block over two loose diagonal targets realizes (1,3,2) "
            "and (2,3,1) through a six-pair cover, two shared eigenvalues "
            "notwithstanding.",
    "pmpn": "A short recipe of grid pairs covers path-by-path products; the "
            "certified bridge set merges two path blocks into (2,2,2,1).",
    "prism": "A four-pair cover legal only under per-copy forcing certifies "
             "a kernel-sense merge; filling the prism pattern keeps rank 3, "
             "nullity 3, and the kernel-sense strong property.",
    "table6": "Eleven six-vertex patterns each carry every ordered "
              "multiplicity list recorded for them, at two independent "
              "eigenvalue draws per list.",
}


@dataclass(frozen=True)
class Stage:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ReproduceReport:
    name: str
    claim: str
    ok: bool
    seed: object
    stages: tuple
    data: dict = field(default_factory=dict)
    failed_stage: str | None = None

    def __bool__(self):
        return self.ok


class _Abort(Exception):
    def __init__(self, stage, detail=""):
        super().__init__("%s: %s" % (stage, detail))
        self.stage = stage
        self.detail = detail


class _Run:
    def __init__(self):
        self.stages = []

    def check(self, name, ok, detail=""):
        self.stages.append(Stage(name, bool(ok), str(detail)))
        if not ok:
            raise _Abort(name, str(detail))


def reproduce(name: str, seed=0) -> ReproduceReport:
    """Run one registry target and return its staged report."""
    if name not in _RUNNERS:
        raise ValueError("unknown target %r; choose from %s"
                         % (name, ", ".join(REGISTRY)))
    run, data, failed = _Run(), {}, None
    try:
        data = _RUNNERS[name](run, seed) or {}
    except _Abort as ab:
        failed = ab.stage
    except Exception as ex:  # a crash is a failed stage, not a traceback
        failed = "unhandled"
        run.stages.append(Stage(failed, False,
                                "%s: %s" % (type(ex).__name__, ex)))
    return ReproduceReport(name, CLAIMS[name], failed is None, seed,
                           tuple(run.stages), data, failed)


# ---------------------------------------------------------------------------
# shared helpers

def _subseed(*parts) -> int:
    # repr of ints/strings/tuples is stable, unlike salted hash()
    return zlib.crc32(repr(parts).encode())


def _draw_values(rng, k, lo=-3.0):
    """Ascending targets with gaps >= 0.9, safe for 1e-6 clustering."""
    vals = [lo + rng.random()]
    for _ in range(k - 1):
        vals.append(vals[-1] + 0.9 + 1.2 * rng.random())
    return vals


def _nonzero_fraction(rng):
    sign = 1 if rng.random() < 0.5 else -1
    return Fraction(sign * rng.randint(1, 9), rng.randint(1, 9))


def _block_diag(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m = a.shape[0]
    out = np.zeros((m + b.shape[0],) * 2)
    out[:m, :m] = a
    out[m:, m:] = b
    return out


def _realize_ssp(g, spec, seed):
    for k in range(6):
        m = realize_in_pattern(g, spec, seed=_subseed(seed, "try", k))
        if has_strong_property(m, g, "ssp").answer:
            return m
    raise RuntimeError("no strong realization found in 6 tries")


def _det(m: RatMatrix) -> Fraction:
    c0 = charpoly(m)[0]  # det(xI - m) at x = 0 is (-1)^n det(m)
    return c0 if m.rows % 2 == 0 else -c0


def _realized_ok(name, mults, values, matrix):
    g = catalog(name)
    if not in_class(matrix, g, "S", tol=1e-7):
        return False, "output pattern does not match %s" % name
    ml = multiplicity_list(sym_eigen(matrix)[0], tol=1e-6)
    if tuple(ml.multiplicities) != tuple(mults):
        return False, "multiplicities came out %s" % (ml.multiplicities,)
    dev = max(abs(a - b) for a, b in zip(ml.values, values))
    if dev > 1e-6:
        return False, "eigenvalues drifted %.2e" % dev
    return True, "values within %.1e" % dev


def _spec_dev(arr, targets):
    vals = sym_eigen(np.asarray(arr, dtype=float))[0]
    return max(abs(a - b) for a, b in zip(vals, sorted(targets)))


# ---------------------------------------------------------------------------
# k4k1

def _run_k4k1(run, seed):
    a = RatMatrix.zeros(5, 5)
    for i in range(4):
        for j in range(4):
            a[i, j] = Fraction(1)
    a[4, 4] = Fraction(4)
    g = catalog("K4uK1")
    beta = ((3, 5), (4, 5))

    cert = is_liberation_set(a, g, beta)
    names = ", ".join(k for k, _ in cert.criteria)
    run.check("certify the pair", cert.answer,
              "criteria in agreement: %s" % names)

    minimal = enumerate_minimal_liberation_sets(a, g, max_size=2)
    pairs = sorted(tuple(s.pairs) for s in minimal)
    run.check("exactly the six two-pair sets are minimal",
              len(pairs) == 6 and all(len(p) == 2 for p in pairs),
              "%d sets" % len(pairs))

    lib = liberate(a, g, beta, seed=seed)
    dev = _spec_dev(lib.matrix, [0, 0, 0, 4, 4])
    run.check("grown matrix keeps the spectrum", dev <= 1e-9,
              "max eigenvalue deviation %.1e" % dev)
    run.check("pattern entries stay alive", lib.min_pattern_entry >= MIN_ENTRY,
              "smallest entry %.2e" % lib.min_pattern_entry)
    run.check("off-pattern entries are exactly zero",
              in_class(lib.matrix, lib.graph, "S_cl", tol=0.0))
    run.check("strong property re-verified on output",
              lib.strong_property_verified)
    return {"beta": list(beta), "residual": lib.residual,
            "minimal_sets": [list(map(list, p)) for p in pairs],
            "spectrum": [float(v) for v in lib.spectrum]}


# ---------------------------------------------------------------------------
# g151

def _g151_member(b, t, a):
    m = RatMatrix.zeros(6, 6)
    m[0, 0] = Fraction(b)
    for i in (1, 2, 3):
        m[0, i] = m[i, 0] = Fraction(t)
    for i in (4, 5):
        for j in (4, 5):
            m[i, j] = Fraction(a)
    return m


def _run_g151(run, seed):
    rng = random.Random(_subseed(seed, "g151"))
    entry = catalog_entry("G151")
    base, beta = entry.base, entry.beta

    draws = (_g151_member(_nonzero_fraction(rng), _nonzero_fraction(rng),
                          _nonzero_fraction(rng)) for _ in range(50))
    hit = _first_failing_sample(draws, base, nonedge_set(base, beta), "ssp")
    if hit is not None:
        k, _, cert = hit
        run.check("family draw %d certified" % k, False,
                  "criteria %s" % (cert.criteria,))
    run.check("fifty family draws certified", True,
              "exact verdict on every draw")

    member = _g151_member(1, 1, 1)
    reduced = (((3, 5), (4, 5), (4, 6)), ((3, 5), (4, 5), (2, 6)))
    both = all(
        has_strong_property_wrt(member, base, add_edges(base, rest),
                                "ssp").answer
        for rest in reduced)
    run.check("two reduced supergraphs carry the relative property", both,
              "symmetry cuts the drop-one checks to two")

    bad1 = RatMatrix.from_rows(
        [[Fraction(0), Fraction(1), Fraction(1), Fraction(1)],
         [Fraction(1), Fraction(-1), Fraction(0), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]])
    bad2 = RatMatrix.from_rows([[Fraction(0), Fraction(1)],
                                [Fraction(1), Fraction(1)]])
    bad = direct_sum(bad1, bad2)
    cert = is_liberation_set(bad, base, beta)
    failing = [e for e, ok in cert.per_beta_prime if not ok]
    run.check("crafted matrix defeats the pairs",
              not cert.answer and failing,
              "failing deletion(s): %s" % failing)
    return {"beta": [list(p) for p in beta],
            "failing_deletions": [list(p) for p in failing]}


# ---------------------------------------------------------------------------
# the glue step: certify two blocks, liberate their sum, place it

# a, b: the blocks; cert: their DirectSumCertificate (bridges) or
# ZfLiberationReport (cover); lib: the LiberateResult, in the labels of a + b;
# matrix: the row's matrix, in the row's labels. lib and matrix are None when
# the certificate fails.
_Glue = namedtuple("_Glue", "a b cert lib matrix", defaults=(None, None))


def _glue(a, b, seed, bridges=None, cover=None, place=None):
    """Certify blocks a, b and liberate a + b along the certified bridges.

    Give bridges in the labels of a + b or a forcing cover of the Cartesian
    product. place gives the row's label for each vertex of a + b, when the
    catalog labels the row differently.
    """
    if cover is None:
        cert = directsum_liberation(a, b, bridges)
        ok = cert.answer
    else:
        cert = zf_liberation(a, b, cover)
        ok = cert.combinatorial and bool(cert)
    if not ok:
        return _Glue(a, b, cert)
    ab = _block_diag(a, b)
    lib = liberate(ab, pattern_of(ab), cert.beta, seed=seed)
    if place is None:
        return _Glue(a, b, cert, lib, lib.matrix)
    idx = np.asarray(place) - 1
    out = np.zeros_like(lib.matrix)
    out[np.ix_(idx, idx)] = lib.matrix
    return _Glue(a, b, cert, lib, out)


# ---------------------------------------------------------------------------
# table rows glued from two blocks

# shapes realized with the strong property in their own pattern
_SSP_SHAPES = {"fork": build_graph(5, ((1, 2), (2, 3), (3, 4), (3, 5))),
               "c5": cycle_graph(5), "c4": cycle_graph(4)}


def _block(shape, idx, values, seed):
    """The block of shape whose spectrum is values[i] for i in idx.

    ones is r*I + ((s - r)/k)*J, the simple value s first and the repeated
    value r after it; fork, c5 and c4 are realized in their pattern with the
    strong property; any other shape is realize_spectrum's.
    """
    v = [values[i] for i in idx]
    if shape == "ones":
        k = len(v)
        return v[1] * np.eye(k) + ((v[0] - v[1]) / k) * np.ones((k, k))
    if shape in _SSP_SHAPES:
        return _realize_ssp(_SSP_SHAPES[shape], v, _subseed(seed, shape))
    return realize_spectrum(v, shape, seed=_subseed(seed, shape)).array


# _glue options by name: a catalog entry's bridges, or bridges or a forcing
# cover with the placement of a + b in the catalog's labels. G151 also splits
# as a 4-cycle on 1, 3, 5, 4 plus the pair 2, 6: a 4-cycle block with two
# doubled values puts one at either extreme, out of the star split's reach.
_GLUE = {
    **{name: {"bridges": catalog_entry(name).beta}
       for name in ("G100", "G127", "G151", "G163", "G169")},
    "G151 c4": {"bridges": ((1, 5), (3, 6), (4, 6)),
                "place": (1, 3, 5, 4, 2, 6)},
    "G129": {"cover": ((1, 1), (4, 1), (5, 1)), "place": (4, 3, 2, 1, 6, 5)},
    "G171": {"cover": ((1, 1), (3, 1), (4, 1), (5, 1))},
    "G175": {"cover": tuple((u, v) for u in (2, 3, 4) for v in (1, 2)),
             "place": (6, 1, 3, 5, 4, 2)},
}

# row -> ordered list -> (block A, block B, name of its _GLUE options); a
# block is (shape, value indices), index i standing for the list's i-th
# value. A row's lists run in this order in its list target.
_SPLITS = {
    "G100": {(1, 2, 2, 1): (("star", (0, 1, 1, 2)), ("path", (2, 3)), "G100")},
    "G127": {(2, 1, 1, 2): (("ones", (3, 0, 0)), ("path", (1, 2, 3)), "G127")},
    "G129": {(1, 3, 1, 1): (("fork", (0, 1, 1, 2, 3)), ("diagonal", (1,)),
                            "G129"),
             (1, 1, 3, 1): (("fork", (0, 1, 2, 2, 3)), ("diagonal", (2,)),
                            "G129")},
    "G151": {(1, 1, 3, 1): (("star", (0, 2, 2, 3)), ("path", (1, 2)), "G151"),
             (1, 3, 1, 1): (("star", (0, 1, 1, 3)), ("path", (1, 2)), "G151"),
             (1, 2, 3): (("c4", (1, 1, 2, 2)), ("path", (0, 2)), "G151 c4"),
             (3, 2, 1): (("c4", (0, 0, 1, 1)), ("path", (0, 2)), "G151 c4"),
             (1, 3, 2): (("star", (0, 1, 1, 2)), ("path", (1, 2)), "G151"),
             (2, 3, 1): (("star", (0, 1, 1, 2)), ("path", (0, 1)), "G151")},
    "G163": {(1, 1, 3, 1): (("ones", (3, 2, 2)), ("path", (0, 1, 2)), "G163"),
             (1, 3, 1, 1): (("ones", (0, 1, 1)), ("path", (1, 2, 3)), "G163")},
    "G169": {(1, 3, 2): (("ones", (2, 1, 1, 1)), ("path", (0, 2)), "G169"),
             (2, 3, 1): (("ones", (0, 1, 1, 1)), ("path", (0, 2)), "G169")},
    "G171": {(1, 2, 3): (("c5", (0, 1, 1, 2, 2)), ("diagonal", (2,)), "G171"),
             (1, 3, 2): (("c5", (0, 1, 1, 2, 2)), ("diagonal", (1,)), "G171"),
             (3, 2, 1): (("c5", (0, 0, 1, 1, 2)), ("diagonal", (0,)), "G171"),
             (2, 3, 1): (("c5", (0, 0, 1, 1, 2)), ("diagonal", (1,)), "G171"),
             (1, 1, 3, 1): (("c5", (0, 1, 2, 2, 3)), ("diagonal", (2,)),
                            "G171"),
             (1, 3, 1, 1): (("c5", (0, 1, 1, 2, 3)), ("diagonal", (1,)),
                            "G171")},
    "G175": {(1, 3, 2): (("star", (0, 1, 1, 2)), ("diagonal", (1, 2)), "G175"),
             (2, 3, 1): (("star", (0, 1, 1, 2)), ("diagonal", (0, 1)), "G175")},
}

# rows grown from a parent row by the pair their catalog entry adds:
# name -> (parent row, stage name when a list target grows into the row)
_ONE_PAIR_ROWS = {
    "G145": ("G129", "one added pair reaches the next pattern"),
    "G153": ("G129", "a different added pair reaches the other pattern"),
    "G187": ("G171", "one added pair reaches the densest pattern"),
}

# every ordered list recorded for each six-vertex row; a one-pair row
# carries its parent's lists
TABLE6 = {**{name: tuple(lists) for name, lists in _SPLITS.items()},
          **{name: tuple(_SPLITS[parent])
             for name, (parent, _) in _ONE_PAIR_ROWS.items()}}


def _grow(parent, name, seed):
    """Grow a parent row's matrix by the bridges of catalog entry name."""
    entry = catalog_entry(name)
    return liberate(parent, entry.base, entry.beta, seed=seed).matrix


def _row_glue(name, mults, values, seed):
    """The glue record of one list of row name, matrix in the row's labels.

    A one-pair row grows its parent row's matrix by its pair; every other
    row glues the two blocks its split names in _SPLITS.
    """
    if name in _ONE_PAIR_ROWS:
        glue = _row_glue(_ONE_PAIR_ROWS[name][0], mults, values, seed)
        if glue.matrix is None:
            return glue
        return glue._replace(matrix=_grow(glue.matrix, name, seed))
    a, b, options = _SPLITS[name][mults]
    return _glue(_block(*a, values, seed), _block(*b, values, seed), seed,
                 **_GLUE[options])


def _build_list(name, mults, values, seed):
    """Build one list realization of a table-6 row: (glue, ok, detail)."""
    glue = _row_glue(name, mults, tuple(values), seed)
    if glue.matrix is None:
        return glue, False, "certificate failed for %s" % name
    return (glue,) + _realized_ok(name, mults, values, glue.matrix)


def _merged_ok(glue, mults):
    """(ok, detail): the sum's list is mults and its property re-verified."""
    got = multiplicity_list(glue.lib.spectrum, tol=1e-6).multiplicities
    return (got == mults and glue.lib.strong_property_verified,
            "came out %s" % (got,))


# ---------------------------------------------------------------------------
# the list targets: one runner over the rows of TABLE6

def _g100_check(run, glue, v, mults):
    run.check("block spectra on target",
              _spec_dev(glue.a, [v[0], v[1], v[1], v[2]]) <= 1e-8
              and _spec_dev(glue.b, [v[2], v[3]]) <= 1e-12)
    run.check("blocks carry the strong property",
              has_strong_property(glue.a, star_graph(3), "ssp").answer
              and has_strong_property(glue.b, path_graph(2), "ssp").answer)
    run.check("bridge pair certified", glue.cert.answer,
              "intertwiner dimension %d" % glue.cert.dimension)


def _g127_check(run, glue, values, mults):
    run.check("triangle and path blocks strong",
              has_strong_property(glue.a, cycle_graph(3), "ssp").answer
              and has_strong_property(glue.b, path_graph(3), "ssp").answer)


def _g163_check(run, glue, values, mults):
    if mults != TABLE6["G163"][0]:
        return  # the layout is the row's, so it is checked once
    by_row = Counter(u for u, _ in catalog_entry("G163").beta)
    run.check("bridge layout is two pairs per shared row",
              sorted(by_row.values()) == [2, 2], "rows %s" % sorted(by_row))


def _g175_check(run, glue, values, mults):
    rep = glue.cert
    run.check("six-pair cover for %s certified with two shared values"
              % (mults,),
              rep.combinatorial and bool(rep)
              and len(rep.algebraic.common) == 2,
              "intertwiner dimension %d" % rep.algebraic.dimension)


# A step realizes every list of TABLE6[row] from one value draw, or one draw
# per list if per_list, and keeps the last draw as data[key]. check(run,
# glue, values, mults) runs before each list's stage stage.format(mults).
_Step = namedtuple("_Step", "key row stage check per_list",
                   defaults=(None, False))

_LIST_TARGETS = {
    "g100": (_Step("targets", "G100", "merged matrix carries (1,2,2,1)",
                   _g100_check),),
    "g127g169": (_Step("first_targets", "G127",
                       "first split carries (2,1,1,2)", _g127_check),
                 _Step("second_targets", "G169", "second split carries {}")),
    "g163": (_Step("targets", "G163", "split carries {}", _g163_check),),
    "g129": (_Step("targets", "G129", "fork pattern carries {}",
                   per_list=True),),
    "g171": (_Step("last_targets", "G171", "cycle pattern carries {}",
                   per_list=True),),
    "g175": (_Step("targets", "G175", "double star carries {}",
                   _g175_check),),
}


def _run_lists(name, run, seed):
    """Run list target name; its last list grows into the one-pair rows."""
    rng = random.Random(_subseed(seed, name))
    data = {}
    for step in _LIST_TARGETS[name]:
        values = None
        for mults in TABLE6[step.row]:
            if values is None or step.per_list:
                values = _draw_values(rng, len(mults))
            glue, ok, detail = _build_list(step.row, mults, values,
                                           _subseed(seed, "row", mults))
            if step.check:
                step.check(run, glue, values, mults)
            run.check(step.stage.format(mults), ok, detail)
        data[step.key] = [float(x) for x in values]
    for grown, (parent, stage) in _ONE_PAIR_ROWS.items():
        if parent == step.row:
            matrix = _grow(glue.matrix, grown, _subseed(seed, grown[1:]))
            run.check(stage, *_realized_ok(grown, mults, values, matrix))
    return data


# ---------------------------------------------------------------------------
# the single-example runners

def _c6c8_blocks():
    a = np.zeros((6, 6))
    for i in range(5):
        a[i, i + 1] = a[i + 1, i] = 1.0
    a[0, 5] = a[5, 0] = -1.0
    b = np.zeros((8, 8))
    for i in range(7):
        b[i, i + 1] = b[i + 1, i] = 1.0
    w = math.sqrt(5.0 / 3.0)
    b[3, 4] = b[4, 3] = w
    b[0, 7] = b[7, 0] = -w
    return a, b


def _run_c6c8(run, seed):
    r3 = math.sqrt(3.0)
    s23 = math.sqrt(2.0 / 3.0)
    a, b = _c6c8_blocks()
    dev_a = _spec_dev(a, [-r3, -r3, 0, 0, r3, r3])
    dev_b = _spec_dev(b, [-2, -2, -s23, -s23, s23, s23, 2, 2])
    run.check("closed-form spectra", max(dev_a, dev_b) <= 1e-9,
              "deviations %.1e / %.1e" % (dev_a, dev_b))

    flags_a, flags_b = (
        list(_blocks_generic(
            vecs, multiplicity_list(vals, tol=1e-8).multiplicities))
        for vals, vecs in (sym_eigen(a), sym_eigen(b)))
    run.check("every eigenspace generic except the first block's kernel",
              flags_a == [True, False, True] and all(flags_b))

    exact_a = RatMatrix.from_rows(
        [[Fraction(round(x)) for x in row] for row in a])
    obstruction = has_strong_property(exact_a, cycle_graph(6), "ssp")
    run.check("printed first block lacks the strong property",
              not obstruction.answer,
              "a commuting matrix lives on the distance-2 pairs; shifting "
              "cannot remove it, so a cospectral replacement is used")

    rep = _realize_ssp(cycle_graph(6), [-r3, -r3, 0, 0, r3, r3],
                       _subseed(seed, "c6fix"))
    vals, vecs = sym_eigen(rep)
    run.check("replacement block strong with generic shared eigenspace",
              is_generic(vecs[:, :2]),
              "same spectrum, spectral deviation %.1e"
              % _spec_dev(rep, [-r3, -r3, 0, 0, r3, r3]))

    s = r3 - 2.0
    sh = rep + s * np.eye(6)
    space = sylvester_space(sh, b)
    run.check("coupled solution space has dimension 4",
              space.dimension == 4 and len(space.common) == 1,
              "shared value %.6f with multiplicities (2, 2)"
              % space.common[0][0])

    shifted_printed = a + s * np.eye(6)
    lists = {}
    for tag, beta in (("2x3", tuple((u, v) for u in (1, 2)
                                    for v in (7, 8, 9))),
                      ("3x2", tuple((u, v) for u in (1, 2, 3)
                                    for v in (7, 8)))):
        printed_cert = directsum_liberation(shifted_printed, b, beta)
        run.check("grid %s certified on the printed pair (bridge side)" % tag,
                  printed_cert.answer,
                  "the bridge mechanism holds; only the block's own "
                  "property fails")
        glue = _glue(sh, b, _subseed(seed, tag), bridges=beta)
        run.check("grid %s certified on the repaired pair" % tag,
                  glue.cert.answer)
        merged = (4, 2, 2, 2, 2, 2)
        run.check("grid %s yields (4,2,2,2,2,2) with the strong property"
                  % tag, *_merged_ok(glue, merged))
        lists[tag] = list(merged)
    return {"shift": s, "lists": lists}


def _run_k14(run, seed):
    g = build_graph(5, ((1, 5), (2, 5), (3, 5), (4, 5)))
    rng = random.Random(_subseed(seed, "k14"))
    cols = [pair_position(5, i, 5) for i in (1, 2, 3, 4)]
    keep = ((1, 4), (2, 3), (2, 4), (3, 4))
    for k in range(20):
        d = [Fraction(rng.randint(-9, 9)) for _ in range(5)]
        border = [_nonzero_fraction(rng) for _ in range(4)]
        m = RatMatrix.zeros(5, 5)
        for i in range(5):
            m[i, i] = d[i]
        for i in range(4):
            m[i, 4] = m[4, i] = border[i]
        vm = psi(m, g, "ssp")
        if k == 0:
            run.check("verification rows come out in pair order",
                      vm.rows == ((1, 2), (1, 3), (1, 4),
                                  (2, 3), (2, 4), (3, 4)))
        sub = vm.matrix.submatrix(row_idx=[vm.row_index(p) for p in keep],
                                  col_idx=cols)
        got = _det(sub)
        want = Fraction(-2) * border[1] * border[2] * border[3] ** 2
        if got != want:
            run.check("determinant draw %d" % k, False,
                      "got %s, wanted %s" % (got, want))
    run.check("twenty exact determinants", True,
              "-2 * a25 * a35 * a45^2 every time")

    for tag, beta in (("leaf triangle", ((1, 2), (2, 3), (1, 3))),
                      ("pairs at one leaf", ((1, 2), (1, 3), (1, 4)))):
        verdict = is_graph_liberation_set(g, beta, trials=40,
                                          seed=_subseed(seed, tag))
        run.check("%s frees every sampled matrix" % tag, bool(verdict),
                  verdict.verdict)
    return {"determinant": "-2*a25*a35*a45^2"}


def _run_k13k13(run, seed):
    rng = random.Random(_subseed(seed, "k13k13"))
    w = _draw_values(rng, 5)
    a = realize_spectrum([w[0], w[2], w[2], w[3]], "star",
                         seed=_subseed(seed, "a")).array
    b = realize_spectrum([w[1], w[2], w[2], w[4]], "star",
                         seed=_subseed(seed, "b")).array
    glue = _glue(a, b, _subseed(seed, "lib"),
                 bridges=tuple((u, v) for u in (2, 3) for v in (6, 7, 8)))
    cert = glue.cert
    run.check("leaf grid certified", cert.answer,
              "intertwiner dimension %d" % cert.dimension)
    generic_ok, detail = cert.validator("generic-eigenspaces")
    run.check("hub rows break full genericity yet the grid still works",
              not generic_ok and cert.answer, detail)
    run.check("merged stars carry (1,1,4,1,1)",
              *_merged_ok(glue, (1, 1, 4, 1, 1)))
    return {"targets": [float(x) for x in w]}


def _grid_cover(s, t):
    """Cover recipe for an s-path by t-path product, built from the s side."""
    pairs = [(i, 1) for i in range(1, s + 1)]
    pairs += [(i, 2) for i in range(1, s + 1) if i % 4 in (2, 3)]
    if (s - 1) % 4 not in (2, 3):
        pairs.append((s - 1, 2))
    return sorted(set(pairs))


def _run_pmpn(run, seed):
    rng = random.Random(_subseed(seed, "pmpn"))
    for s, t in ((2, 3), (3, 4), (4, 5)):
        f = _grid_cover(s, t)
        prod = cartesian_product(path_graph(s), path_graph(t))
        filled = [product_index(u, v, t) for (u, v) in f]
        if not is_zf_cover(prod, filled):
            run.check("cover recipe on the %dx%d grid" % (s, t), False,
                      "pairs %s" % f)
    run.check("cover recipe on three grids", True)

    f = _grid_cover(3, 4)
    run.check("worked instance uses five pairs",
              f == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)], "pairs %s" % f)
    v = _draw_values(rng, 4)
    a = realize_spectrum(v[:3], "path", seed=_subseed(seed, "a")).array
    b = realize_spectrum(v, "path", seed=_subseed(seed, "b")).array
    run.check("path blocks strong",
              has_strong_property(a, path_graph(3), "ssp").answer
              and has_strong_property(b, path_graph(4), "ssp").answer)
    glue = _glue(a, b, _subseed(seed, "lib"), cover=f)
    rep = glue.cert
    run.check("cover certifies algebraically despite three shared values",
              rep.combinatorial and bool(rep) and rep.agree)
    run.check("merged paths carry (2,2,2,1)",
              *_merged_ok(glue, (2, 2, 2, 1)))
    return {"cover": [list(p) for p in f],
            "targets": [float(x) for x in v]}


def _run_prism(run, seed):
    c4, k2 = cycle_graph(4), path_graph(2)
    a = np.zeros((4, 4))
    for (i, j) in ((1, 2), (2, 3), (3, 4), (1, 4)):
        a[i - 1, j - 1] = a[j - 1, i - 1] = 1.0
    b = np.ones((2, 2))
    run.check("blocks strong in the kernel sense",
              has_strong_property(a, c4, "sap").answer
              and has_strong_property(b, k2, "sap").answer)

    # the kernel kind checks the cover under the per-copy rule on the
    # patterns of a and b, which are c4 and k2
    f = ((1, 1), (2, 1), (3, 2), (4, 2))
    filled = [product_index(u, v, 2) for (u, v) in f]
    rep = zf_liberation(a, b, f, kind="sap")
    run.check("cover legal under per-copy forcing only",
              rep.combinatorial
              and not is_zf_cover(cartesian_product(c4, k2), filled))

    drops = [e for e, ok in rep.algebraic.per_beta_prime if not ok]
    run.check("every deletion stays certified", bool(rep) and not drops,
              "failing deletions: %s" % drops if drops else "all four hold")

    res = complete_pattern_low_rank(_block_diag(a, b), catalog("prism"),
                                    seed=seed)
    run.check("filled pattern keeps rank 3 and nullity 3",
              res.rank == 3 and res.off_pattern_residual <= 1e-8,
              "inertia %s, off-pattern %.1e"
              % (res.inertia, res.off_pattern_residual))
    run.check("kernel-sense strong property on the filled matrix",
              has_strong_property(res.matrix, catalog("prism"),
                                  "sap").answer)
    return {"rank": res.rank, "inertia": list(res.inertia)}


# ---------------------------------------------------------------------------
# the table batch

def _table6_row(name, seed, draws=2):
    """Realize every list of row name at each draw; draws are seeded by
    (row, list, draw), so the order of a row's lists does not matter."""
    done, errors = [], []
    for mults in TABLE6[name]:
        for d in range(draws):
            rng = random.Random(_subseed(seed, "table6", name, mults, d))
            values = _draw_values(rng, len(mults))
            try:
                _, ok, detail = _build_list(
                    name, mults, values, _subseed(seed, "row", name, mults, d))
            except Exception as ex:
                ok, detail = False, "%s: %s" % (type(ex).__name__, ex)
            if ok:
                done.append("%s draw %d" % (mults, d))
            else:
                errors.append("%s draw %d: %s" % (mults, d, detail))
    return done, errors


def _run_table6(run, seed):
    counts = {}
    for name in sorted(TABLE6):
        done, errors = _table6_row(name, seed)
        run.check("row %s holds %d list realizations" % (name, len(done)),
                  not errors,
                  "; ".join(errors) if errors else "every list at two draws")
        counts[name] = len(done)
    return {"realizations": counts}


_RUNNERS = {
    "k4k1": _run_k4k1,
    "g151": _run_g151,
    "c6c8": _run_c6c8,
    "k14": _run_k14,
    "k13k13": _run_k13k13,
    "pmpn": _run_pmpn,
    "prism": _run_prism,
    "table6": _run_table6,
    **{name: partial(_run_lists, name) for name in _LIST_TARGETS},
}
