"""Zero forcing games and their bridge to direct-sum liberation sets.

The color change rule: a blue vertex with exactly one white neighbor forces
that neighbor blue. One fixed-point loop runs it under two rules, each a
table of per-vertex neighbor groups: the standard rule reads a vertex's
whole neighborhood, the local rule on a Cartesian product of G and H reads
the vertex's copy of each factor in turn. Covers are sets that keep forcing
after any single removal, checked on one table. Translated to bridging edges
between the two summands of a direct sum, covers of pairs (u, v) in
V(G) x V(H) certify liberation sets, in the spectral sense under the
standard rule and in the kernel sense under the local one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .directsum import directsum_liberation
from .graphs import Graph, bridge_set, cartesian_product, product_index
from .patterns import pattern_of
from .strongprops import normalize_kind

ZF_EXHAUSTIVE_BOUND = 16


@dataclass(frozen=True)
class ColorState:
    n: int
    blue: frozenset
    log: tuple  # (u, v, tag) with tag in {"standard", "G-local", "H-local"}

    @property
    def complete(self) -> bool:
        return len(self.blue) == self.n

    def __len__(self):
        return len(self.blue)


def _check_vertices(g: Graph, filled):
    out = sorted(set(int(v) for v in filled))
    for v in out:
        if not 1 <= v <= g.n:
            raise ValueError("vertex %d outside 1..%d" % (v, g.n))
    return out


def _first_force(order, blue, groups):
    for u in order:
        if u in blue:
            for tag, nbrs in groups[u - 1]:
                whites = [w for w in nbrs if w not in blue]
                if len(whites) == 1:
                    return (u, whites[0], tag)
    return None


def _force(n, filled, groups, schedule=None, what="vertices") -> ColorState:
    """Fixed point of forcing over per-vertex neighbor groups.

    groups[u - 1] lists (tag, neighbors); a blue u forces the one white
    member of the first of its groups that has exactly one. One force per
    step, taken at the first able vertex in schedule order, so the log is
    reproducible.
    """
    order = list(schedule) if schedule is not None else list(range(1, n + 1))
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError("schedule must be a permutation of the %s" % what)
    blue, log = set(filled), []
    while (step := _first_force(order, blue, groups)) is not None:
        blue.add(step[1])
        log.append(step)
    return ColorState(n, frozenset(blue), tuple(log))


@lru_cache(maxsize=64)
def _standard_rule(g: Graph):
    """Neighbor groups of the color change rule: whole neighborhoods, in
    label order. Built once per graph and shared, so held as tuples."""
    return tuple((("standard", tuple(sorted(g.neighbors(v)))),)
                 for v in range(1, g.n + 1))


def _is_cover(n, labels, groups) -> bool:
    """Does labels still force all n vertices after any one is dropped?"""
    return all(_force(n, labels[:i] + labels[i + 1:], groups).complete
               for i in range(len(labels)))


def closure(g: Graph, filled, schedule=None) -> ColorState:
    """Fixed point of the color change rule from the given blue set.

    One force per step, taken at the first able vertex in schedule order
    (ascending labels by default), so the log is reproducible. The final
    blue set does not depend on the schedule; the log may.
    """
    return _force(g.n, _check_vertices(g, filled), _standard_rule(g), schedule)


def is_zf_set(g: Graph, filled) -> bool:
    return closure(g, filled).complete


@dataclass(frozen=True)
class ZfNumber:
    value: int
    witness: tuple


def zero_forcing_number(g: Graph, bound: int = ZF_EXHAUSTIVE_BOUND) -> ZfNumber:
    """Exact Z(g) with a lexicographically first optimal set.

    Exhaustive by ascending cardinality, so only sensible for small graphs.
    """
    if g.n > bound:
        raise ValueError("exhaustive search capped at %d vertices" % bound)
    groups = _standard_rule(g)
    verts = range(1, g.n + 1)
    for k in range(1, g.n + 1):
        for cand in combinations(verts, k):
            if _force(g.n, cand, groups).complete:
                return ZfNumber(k, cand)
    raise AssertionError("the full vertex set always forces")


def is_zf_cover(g: Graph, f) -> bool:
    """Does every one-element-removed subset of f still force all of g?

    Vacuously true for empty f; callers that need a nonempty cover must say
    so themselves.
    """
    return _is_cover(g.n, _check_vertices(g, f), _standard_rule(g))


# ---------------------------------------------------------------------------
# Cartesian products and the local rule

def _normalize_pairs(g: Graph, h: Graph, f):
    """Pairs (u, v) with u in V(G) and v in V(H), sorted, without repeats.

    Both coordinates are product labels: v runs over 1 .. |V(H)| whatever
    the other pairs are. Second coordinates are checked first, so a pair
    written with a bridge end in place of v is refused by that coordinate.
    """
    pairs = [(int(u), int(v)) for (u, v) in f]
    for (_, v) in pairs:
        if not 1 <= v <= h.n:
            raise ValueError("second coordinate %d outside 1..%d" % (v, h.n))
    for (u, v) in pairs:
        if not 1 <= u <= g.n:
            raise ValueError("pair (%d,%d) outside the product" % (u, v))
    return sorted(set(pairs))


@lru_cache(maxsize=64)
def _local_rule(g: Graph, h: Graph):
    """Neighbor groups of the copy-restricted rule on the product of g and
    h, in product-label order: the vertex's copy of g, then of h. Built
    once per pair of graphs and shared, so held as tuples."""
    return tuple(
        (("G-local", tuple(product_index(w, v, h.n) for w in g.neighbors(u))),
         ("H-local", tuple(product_index(u, w, h.n) for w in h.neighbors(v))))
        for u in range(1, g.n + 1) for v in range(1, h.n + 1))


def _product_labels(g: Graph, h: Graph, f):
    return [product_index(u, v, h.n) for (u, v) in _normalize_pairs(g, h, f)]


def local_closure(g: Graph, h: Graph, filled, schedule=None) -> ColorState:
    """Closure under the copy-restricted rule on the product of g and h.

    A force must be the unique white neighbor within the forcing vertex's
    copy of g (tag "G-local") or of h (tag "H-local"). Vertices in the
    returned state are the product labels, row-major in (u, v).
    """
    return _force(g.n * h.n, _product_labels(g, h, filled), _local_rule(g, h),
                  schedule, "product labels")


def is_local_zf_cover(g: Graph, h: Graph, f) -> bool:
    return _is_cover(g.n * h.n, _product_labels(g, h, f), _local_rule(g, h))


def cover_to_bridge(g: Graph, h: Graph, f):
    """Translate product vertices (u, v) to bridging pairs {u, v + |V(g)|}."""
    return bridge_set(g.n, h.n,
                      [(u, v + g.n) for (u, v) in _normalize_pairs(g, h, f)])


# ---------------------------------------------------------------------------
# The bridge to liberation certificates

@dataclass(frozen=True)
class ZfLiberationReport:
    kind: str
    cover: tuple              # product vertices (u, v)
    beta: object              # bridging EdgeSet
    combinatorial: bool       # cover check under the rule matching kind
    algebraic: object         # DirectSumCertificate
    agree: bool
    force_log: ColorState     # closure of the full cover, for replay
    note: str = ""

    def __bool__(self):
        return bool(self.algebraic)


def zf_liberation(a, b, f, kind: str = "ssp", tol: float = 1e-8) -> ZfLiberationReport:
    """Certify a candidate cover both combinatorially and algebraically.

    The cover check runs the standard rule on the product for the spectral
    kind and the copy-restricted rule for the kernel kind. The bridging
    translation is then certified independently through the Sylvester-space
    machinery; a true cover with a false certificate would contradict the
    implication this module exists to exercise, so that combination raises.
    The converse direction is not an implication, so a failed cover check
    with a passing certificate is reported, not raised.
    """
    kind = normalize_kind(kind)
    g = pattern_of(a, tol=tol)
    h = pattern_of(b, tol=tol)
    pairs = _normalize_pairs(g, h, f)
    if not pairs:
        raise ValueError("a candidate cover must be nonempty")
    groups = (_standard_rule(cartesian_product(g, h)) if kind == "ssp"
              else _local_rule(g, h))
    labels = [product_index(u, v, h.n) for (u, v) in pairs]
    combinatorial = _is_cover(g.n * h.n, labels, groups)
    state = _force(g.n * h.n, labels, groups)
    algebraic = directsum_liberation(
        a, b, cover_to_bridge(g, h, pairs), kind=kind, tol=tol)
    if combinatorial and not algebraic.answer:
        raise RuntimeError(
            "cover verified but the algebraic certificate failed; "
            "this pairing must not happen when the blocks carry the property")
    note = ""
    if not combinatorial and algebraic.answer:
        note = ("cover check failed but the algebraic certificate holds; "
                "the implication is one-directional")
    return ZfLiberationReport(kind, tuple(pairs), algebraic.beta,
                              combinatorial, algebraic,
                              combinatorial == algebraic.answer, state, note)
