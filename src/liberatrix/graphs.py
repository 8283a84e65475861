"""Simple undirected graphs on vertex set {1, ..., n}, plus the named catalog.

Graphs are immutable after construction. A pair is a tuple (i, j) with
i < j. A Graph keeps its pairs in the three forms callers read, each built
once in __init__: the edges in lexicographic order, the frozenset of edges
(for membership: has_edge, the pattern classes, supergraph and nonedge
checks), and the nonedges in lexicographic order (the rows of psi).
Neighbors and degrees are read off the edge tuple. All public operations
return new Graph values, and a named catalog graph is built once. Vertex
labels and the vertex count are read with operator.index, so Python and
numpy integers pass and a float or a string raises ValueError.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


def _integer(v, what):
    """v as an int, for a Python or numpy integer; ValueError for anything
    else, such as a float or a string."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (what, v)) from None


def _norm_pair(pair):
    i, j = pair
    i, j = _integer(i, "a vertex label"), _integer(j, "a vertex label")
    if i == j:
        raise ValueError("loops are not allowed: (%d,%d)" % (i, j))
    return (i, j) if i < j else (j, i)


class Graph:
    """Immutable simple graph with 1-based vertex labels."""

    def __init__(self, n, edges=()):
        n = _integer(n, "the vertex count")
        if n < 1:
            raise ValueError("vertex count must be a positive integer")
        seen = set()
        for pair in edges:
            e = _norm_pair(pair)
            if e[0] < 1 or e[1] > n:
                raise ValueError("edge %s out of range for n=%d" % (e, n))
            if e in seen:
                raise ValueError("duplicate edge %s" % (e,))
            seen.add(e)
        self._n = n
        self._edges = tuple(sorted(seen))
        self._edge_set = frozenset(seen)
        self._nonedges = tuple(p for p in combinations(range(1, n + 1), 2)
                               if p not in seen)

    @property
    def n(self):
        return self._n

    @property
    def edges(self):
        return self._edges

    @property
    def vertices(self):
        return tuple(range(1, self._n + 1))

    def nonedges(self):
        """Nonedge pairs (i, j), i < j, lexicographic."""
        return self._nonedges

    def has_edge(self, i, j):
        return _norm_pair((i, j)) in self._edge_set

    def neighbors(self, v):
        if v not in range(1, self._n + 1):
            raise KeyError(v)
        return frozenset(j if i == v else i for i, j in self._edges if v in (i, j))

    def degree(self, v):
        return len(self.neighbors(v))

    def degree_sequence(self):
        return tuple(sorted(self.degree(v) for v in self.vertices))

    def __eq__(self, other):
        return isinstance(other, Graph) and self._n == other._n and self._edges == other._edges

    def __hash__(self):
        return hash((self._n, self._edges))

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self._n, len(self._edges))


def build_graph(n, edges=()):
    return Graph(n, edges)


def complement(g: Graph) -> Graph:
    return Graph(g.n, g.nonedges())


def add_edges(g: Graph, pairs) -> Graph:
    """Supergraph of g with the given nonedge pairs added."""
    pairs = edge_pairs(pairs)
    for e in pairs:
        if e in g._edge_set:
            raise ValueError("pair %s is already an edge" % (e,))
    return Graph(g.n, g.edges + tuple(pairs))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g on 1..|g|, then h shifted to |g|+1..|g|+|h|."""
    off = g.n
    shifted = tuple((i + off, j + off) for i, j in h.edges)
    return Graph(g.n + h.n, g.edges + shifted)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product. Vertex (u, v) maps to index (u-1)*|h| + v."""
    nh = h.n
    edges = []
    for u in g.vertices:
        for (v, w) in h.edges:
            edges.append(((u - 1) * nh + v, (u - 1) * nh + w))
    for (u, w) in g.edges:
        for v in h.vertices:
            edges.append(((u - 1) * nh + v, (w - 1) * nh + v))
    return Graph(g.n * nh, edges)


def product_index(u, v, nh):
    """Flat label of product vertex (u, v) when the second factor has nh vertices."""
    return (u - 1) * nh + v


# ---------------------------------------------------------------------------
# Edge sets

@dataclass(frozen=True)
class EdgeSet:
    """A set of vertex pairs tagged by role.

    tag "nonedges": pairs avoid the edges of the graph they were built against.
    tag "bridging": every pair has one endpoint in 1..first_block and the other
    in first_block+1..first_block+second_block (labels of a disjoint union).
    """

    pairs: tuple
    tag: str = "nonedges"
    first_block: int | None = None

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)


def edge_pairs(pairs):
    """Normalize an EdgeSet or iterable of pairs to sorted pair tuples."""
    if isinstance(pairs, EdgeSet):
        pairs = pairs.pairs
    out = []
    seen = set()
    for p in pairs:
        e = _norm_pair(p)
        if e in seen:
            raise ValueError("duplicate pair %s" % (e,))
        seen.add(e)
        out.append(e)
    return tuple(sorted(out))


def nonedge_set(g: Graph, pairs) -> EdgeSet:
    pairs = edge_pairs(pairs)
    bad = [e for e in pairs if e in g._edge_set]
    if bad:
        raise ValueError("pairs %s are edges of the graph" % bad)
    for i, j in pairs:
        if i < 1 or j > g.n:
            raise ValueError("pair (%d,%d) out of range" % (i, j))
    return EdgeSet(pairs, "nonedges")


def bridge_set(m, n, pairs) -> EdgeSet:
    """Bridging pairs between blocks 1..m and m+1..m+n (union labels). An
    EdgeSet given must be a bridging set built for the same first block."""
    if isinstance(pairs, EdgeSet):
        if pairs.tag != "bridging":
            raise ValueError("expected a bridging pair set, got %r" % pairs.tag)
        if pairs.first_block != m:
            raise ValueError("bridge set built for block size %s, not %d"
                             % (pairs.first_block, m))
    pairs = edge_pairs(pairs)
    for i, j in pairs:
        if not (1 <= i <= m and m + 1 <= j <= m + n):
            raise ValueError("pair (%d,%d) does not bridge the blocks" % (i, j))
    return EdgeSet(pairs, "bridging", first_block=m)


# ---------------------------------------------------------------------------
# Text format: line 1 "n m", then m lines "i j" (1-based, i < j).

def parse_graph_text(text: str) -> Graph:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("graph text needs a leading 'n m' line")
    n, m = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != 2 * m:
        raise ValueError("expected %d edge numbers, got %d" % (2 * m, len(body)))
    edges = [(int(body[2 * k]), int(body[2 * k + 1])) for k in range(m)]
    for i, j in edges:
        if not i < j:
            raise ValueError("edge lines must satisfy i < j, got (%d,%d)" % (i, j))
    return Graph(n, edges)


def format_graph_text(g: Graph) -> str:
    lines = ["%d %d" % (g.n, len(g.edges))]
    lines += ["%d %d" % e for e in g.edges]
    return "\n".join(lines) + "\n"


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def write_graph(g: Graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_text(g))


# ---------------------------------------------------------------------------
# Catalog

@dataclass(frozen=True)
class CatalogEntry:
    """A named graph given as base + bridge construction (beta may be empty)."""

    name: str
    base: Graph
    beta: tuple

    @cached_property
    def graph(self) -> Graph:
        return add_edges(self.base, self.beta) if self.beta else self.base


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n):
    return Graph(n, combinations(range(1, n + 1), 2))


def complete_bipartite(s, t):
    """Parts {1..s} and {s+1..s+t}."""
    return Graph(s + t, [(i, s + j) for i in range(1, s + 1) for j in range(1, t + 1)])


def star_graph(m):
    """K_{1,m} with center 1 and leaves 2..m+1."""
    return Graph(m + 1, [(1, j) for j in range(2, m + 2)])


def empty_graph(n):
    return Graph(n)


def _named_entries():
    entries = {}

    def put(name, base, beta=()):
        entries[name] = CatalogEntry(name, base, edge_pairs(beta) if beta else ())

    # Six-vertex atlas graphs, each as base pattern plus bridge set.
    put("G100", disjoint_union(star_graph(3), path_graph(2)), [(4, 5), (4, 6)])
    put("G127", disjoint_union(complete_graph(3), path_graph(3)), [(1, 6), (3, 4)])
    put("G151", disjoint_union(star_graph(3), complete_graph(2)),
        [(3, 5), (4, 5), (2, 6), (4, 6)])
    put("G163", disjoint_union(complete_graph(3), path_graph(3)),
        [(1, 6), (1, 5), (3, 5), (3, 4)])
    put("G169", disjoint_union(complete_graph(4), complete_graph(2)), [(2, 6), (4, 5)])
    # Figure-derived entries: the adjacency below was fixed from the drawn
    # figures, in the figures' own labels.
    g30_in_g129_labels = Graph(6, [(1, 2), (2, 3), (3, 4), (2, 6)])  # vertex 5 isolated
    put("G129", g30_in_g129_labels, [(1, 5), (4, 5), (5, 6)])
    put("G145", entries["G129"].graph, [(2, 5)])
    put("G153", entries["G129"].graph, [(1, 6)])
    c5_plus_k1 = Graph(6, cycle_graph(5).edges)
    put("G171", c5_plus_k1, [(1, 6), (3, 6), (4, 6), (5, 6)])
    put("G187", entries["G171"].graph, [(2, 6)])
    # K_{3,3} with parts {2,4,6} / {1,3,5}; base is the star on {6;1,3,5}.
    put("G175", Graph(6, [(1, 6), (3, 6), (5, 6)]),
        [(1, 2), (2, 3), (1, 4), (3, 4), (2, 5), (4, 5)])
    put("prism", disjoint_union(cycle_graph(4), path_graph(2)),
        [(1, 5), (2, 5), (3, 6), (4, 6)])
    return entries


_NAMED = _named_entries()

_ATOM_RE = re.compile(r"^(?:(\d+))?([PCK])(\d+)(?:,(\d+))?$")


def _atom(token):
    if token in _NAMED:
        return _NAMED[token].graph
    m = _ATOM_RE.match(token)
    if not m:
        raise KeyError("unknown catalog name: %r" % token)
    mult, fam, a, b = m.groups()
    if mult is not None and int(mult) == 0:
        raise ValueError("copy count 0 in catalog name %r" % token)
    a = int(a)
    if fam == "P":
        g = path_graph(a)
    elif fam == "C":
        g = cycle_graph(a)
    elif b is not None:
        b = int(b)
        g = star_graph(b) if a == 1 else complete_bipartite(a, int(b))
    else:
        g = complete_graph(a)
    if mult:
        out = g
        for _ in range(int(mult) - 1):
            out = disjoint_union(out, g)
        g = out
    return g


def catalog_entry(name: str) -> CatalogEntry:
    """Resolve a catalog name to its base-plus-bridge construction."""
    if name in _NAMED:
        return _NAMED[name]
    g = catalog(name)
    return CatalogEntry(name, g, ())


def catalog(name: str) -> Graph:
    """Resolve a catalog name to a Graph.

    Supported: parameterized families Pn, Cn, Kn, Ks,t, K1,n (optionally with a
    positive copy count like 2K1; a count of 0 raises ValueError), named
    six-vertex entries (G100 ... G187, prism), 'u'-joined disjoint unions
    (K4uK1), 'x'-joined box products (P3xP4), and a '-base' suffix selecting
    a named entry's base pattern (G151-base).
    """
    name = name.strip()
    if name.endswith("-base"):
        stem = name[: -len("-base")]
        if stem not in _NAMED:
            raise KeyError("no base form for catalog name %r" % stem)
        return _NAMED[stem].base
    parts = name.split("u")
    graphs = []
    for part in parts:
        factors = [_atom(tok) for tok in part.split("x")]
        g = factors[0]
        for f in factors[1:]:
            g = cartesian_product(g, f)
        graphs.append(g)
    out = graphs[0]
    for g in graphs[1:]:
        out = disjoint_union(out, g)
    return out

