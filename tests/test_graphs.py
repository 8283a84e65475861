import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liberatrix import RatMatrix, has_strong_property_wrt
from liberatrix.graphs import (
    Graph,
    add_edges,
    bridge_set,
    build_graph,
    cartesian_product,
    catalog,
    catalog_entry,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_pairs,
    format_graph_text,
    nonedge_set,
    parse_graph_text,
    path_graph,
    product_index,
    star_graph,
)


def test_basic_construction_and_ordering():
    g = Graph(4, [(3, 1), (1, 2)])
    assert g.edges == ((1, 2), (1, 3))
    assert g.nonedges() == ((1, 4), (2, 3), (2, 4), (3, 4))
    assert g.degree(1) == 2 and g.degree(4) == 0
    assert g.neighbors(2) == frozenset({1})


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 2), (2, 1)])


def test_complement_involution():
    for g in [path_graph(5), cycle_graph(6), star_graph(4), Graph(3)]:
        assert complement(complement(g)) == g
    # complement edge count
    g = cycle_graph(5)
    assert len(complement(g).edges) == 5 * 4 // 2 - 5


def test_disjoint_union_labels_and_associativity():
    g = disjoint_union(path_graph(2), path_graph(3))
    assert g.n == 5
    assert g.edges == ((1, 2), (3, 4), (4, 5))
    a, b, c = path_graph(2), cycle_graph(3), Graph(1)
    assert disjoint_union(disjoint_union(a, b), c) == disjoint_union(a, disjoint_union(b, c))


def test_product_degree_formula():
    # deg_{GxH}((u,v)) = deg_G(u) + deg_H(v); checked via the degree sum.
    for g, h in [(cycle_graph(4), path_graph(2)), (path_graph(3), path_graph(4)),
                 (cycle_graph(3), cycle_graph(3))]:
        p = cartesian_product(g, h)
        expected = sum(g.degree(u) + h.degree(v)
                       for u in g.vertices for v in h.vertices)
        assert sum(p.degree(w) for w in p.vertices) == expected
        assert len(p.edges) == expected // 2


def test_c4p2_product_edge_count():
    # degree-sum oracle: every product vertex has degree 2 + 1 = 3, so 8*3/2 = 12.
    p = cartesian_product(cycle_graph(4), path_graph(2))
    assert p.n == 8
    assert len(p.edges) == 12
    assert all(p.degree(v) == 3 for v in p.vertices)


def test_p2_box_p2_is_c4():
    p = cartesian_product(path_graph(2), path_graph(2))
    c = cycle_graph(4)
    assert p.n == c.n and len(p.edges) == len(c.edges)
    assert p.degree_sequence() == c.degree_sequence()


def test_add_edges_checks_collisions():
    g = path_graph(3)
    h = add_edges(g, [(1, 3)])
    assert h == cycle_graph(3)
    with pytest.raises(ValueError):
        add_edges(g, [(1, 2)])


def test_edge_set_tags():
    g = path_graph(4)
    s = nonedge_set(g, [(1, 3), (1, 4)])
    assert s.tag == "nonedges" and len(s) == 2
    with pytest.raises(ValueError):
        nonedge_set(g, [(1, 2)])
    b = bridge_set(2, 2, [(1, 3), (2, 4)])
    assert b.tag == "bridging" and b.first_block == 2
    with pytest.raises(ValueError):
        bridge_set(2, 2, [(1, 2)])
    assert edge_pairs([(2, 1)]) == ((1, 2),)


def test_text_format_round_trip():
    g = catalog("G151")
    text = format_graph_text(g)
    assert text.splitlines()[0] == "6 8"
    assert parse_graph_text(text) == g
    with pytest.raises(ValueError):
        parse_graph_text("2 1\n2 1\n")  # i < j required


def test_catalog_families():
    assert catalog("P4") == path_graph(4)
    assert catalog("C6uC8") == disjoint_union(cycle_graph(6), cycle_graph(8))
    assert catalog("K5") == complete_graph(5)
    assert catalog("K2,3") == complete_bipartite(2, 3)
    assert catalog("K1,4") == star_graph(4)
    assert catalog("2K1") == Graph(2)
    assert catalog("P3xP4") == cartesian_product(path_graph(3), path_graph(4))
    with pytest.raises(KeyError):
        catalog("Q3")
    with pytest.raises(ValueError, match="copy count 0"):
        catalog("0K3")


def test_catalog_named_entries():
    sizes = {
        "G100": 6, "G127": 7, "G129": 7, "G145": 8, "G151": 8, "G153": 8,
        "G163": 9, "G169": 9, "G171": 9, "G175": 9, "G187": 10, "prism": 9,
    }
    for name, m in sizes.items():
        g = catalog(name)
        assert g.n == 6, name
        assert len(g.edges) == m, name


def test_catalog_base_forms():
    e = catalog_entry("G151")
    assert e.base == catalog("G151-base")
    assert e.base == disjoint_union(star_graph(3), complete_graph(2))
    assert set(e.beta) == {(3, 5), (4, 5), (2, 6), (4, 6)}
    assert add_edges(e.base, e.beta) == catalog("G151")
    # supergraph chain for the figure-derived entries
    assert catalog("G145") == add_edges(catalog("G129"), [(2, 5)])
    assert catalog("G153") == add_edges(catalog("G129"), [(1, 6)])
    assert catalog("G187") == add_edges(catalog("G171"), [(2, 6)])


def test_g175_is_complete_bipartite():
    g = catalog("G175")
    assert g.degree_sequence() == (3, 3, 3, 3, 3, 3)
    parts = ({2, 4, 6}, {1, 3, 5})
    for i, j in g.edges:
        assert (i in parts[0]) != (j in parts[0])
    assert len(g.edges) == 9


def test_prism_is_two_triangles_joined():
    g = catalog("prism")
    assert g.degree_sequence() == (3, 3, 3, 3, 3, 3)
    assert g.has_edge(1, 2) and g.has_edge(1, 5) and g.has_edge(2, 5)
    assert g.has_edge(3, 4) and g.has_edge(3, 6) and g.has_edge(4, 6)


def test_has_edge_reversed_looped_and_out_of_range_labels():
    g = path_graph(4)
    assert g.has_edge(2, 1) and g.has_edge(1, 2) and g.has_edge(4, 3)
    assert not g.has_edge(3, 1) and not g.has_edge(1, 3)
    for i, j in ((0, 1), (4, 5), (5, 4), (-1, 2), (9, 10)):
        assert not g.has_edge(i, j)
    with pytest.raises(ValueError):
        g.has_edge(2, 2)
    with pytest.raises(ValueError):
        g.has_edge(7, 7)


def test_cartesian_product_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261018)

    def draw():
        n = rng.randint(1, 5)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        return Graph(n, [p for p in pairs if rng.random() < 0.5])

    def to_nx(g):
        out = nx.Graph()
        out.add_nodes_from(g.vertices)
        out.add_edges_from(g.edges)
        return out

    for _ in range(60):
        g, h = draw(), draw()
        ref = nx.cartesian_product(to_nx(g), to_nx(h))
        want = {tuple(sorted((product_index(*p, h.n), product_index(*q, h.n))))
                for p, q in ref.edges}
        prod = cartesian_product(g, h)
        assert prod.n == ref.number_of_nodes() == g.n * h.n
        assert set(prod.edges) == want


# A drawn graph comes with its order and edge set worked out independently,
# so every form a Graph keeps is checked against a value it did not compute.

def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


CATALOG_NAMES = ("G100", "G129", "G145", "G151", "G175", "G187", "prism",
                 "G151-base", "K4uK1", "P3xP4", "K2,3", "2K1", "C5")


@st.composite
def built_graphs(draw):
    n = draw(st.integers(1, 6))
    edges = draw(st.lists(st.sampled_from(_pairs(n)), unique=True)
                 if n > 1 else st.just([]))
    given_pairs = [(j, i) if draw(st.booleans()) else (i, j) for i, j in edges]
    return build_graph(n, given_pairs), n, frozenset(edges)


@st.composite
def catalog_graphs(draw):
    # the catalog's own edges are pinned by the catalog tests; here they
    # seed the oracle for the forms derived from them
    g = catalog(draw(st.sampled_from(CATALOG_NAMES)))
    return g, g.n, frozenset(g.edges)


@st.composite
def grown(draw, parts):
    op = draw(st.sampled_from(("add", "complement", "union", "product")))
    g, n, e = draw(parts)
    if op == "add":
        free = [p for p in _pairs(n) if p not in e]
        new = draw(st.lists(st.sampled_from(free), unique=True)
                   if free else st.just([]))
        return add_edges(g, new), n, e | frozenset(new)
    if op == "complement":
        return complement(g), n, frozenset(_pairs(n)) - e
    h, m, f = draw(parts)
    if op == "union":
        return (disjoint_union(g, h), n + m,
                e | {(i + n, j + n) for i, j in f})
    if n * m > 16:
        return g, n, e
    flat = {}
    for u in range(1, n + 1):
        for v in range(1, m + 1):
            flat[u, v] = (u - 1) * m + v
    want = set()
    for (u, v), x in flat.items():
        for (w, y), z in flat.items():
            if x < z and ((u == w and tuple(sorted((v, y))) in f)
                          or (v == y and tuple(sorted((u, w))) in e)):
                want.add((x, z))
    return cartesian_product(g, h), n * m, frozenset(want)


graph_draws = st.recursive(built_graphs() | catalog_graphs(), grown,
                           max_leaves=4)


@settings(max_examples=200, deadline=None)
@given(graph_draws, st.randoms(use_true_random=False))
def test_graph_forms_match_independent_oracle(drawn, rng):
    g, n, e = drawn
    assert g.n == n
    assert g.edges == tuple(sorted(e))
    assert g.nonedges() == tuple(p for p in _pairs(n) if p not in e)
    assert g.nonedges() is g.nonedges()
    for i in range(-1, n + 3):
        for j in range(-1, n + 3):
            if i == j:
                with pytest.raises(ValueError, match="loops are not allowed"):
                    g.has_edge(i, j)
            else:
                assert g.has_edge(i, j) == ((min(i, j), max(i, j)) in e)
    for v in range(1, n + 1):
        nbrs = frozenset(u for u in range(1, n + 1)
                         if (min(u, v), max(u, v)) in e)
        assert g.neighbors(v) == nbrs
        assert g.degree(v) == len(nbrs)
    for v in (0, n + 1, -1, "1"):
        with pytest.raises(KeyError):
            g.neighbors(v)
    assert g.degree_sequence() == tuple(sorted(g.degree(v)
                                               for v in range(1, n + 1)))
    shuffled = [(j, i) for i, j in e]
    rng.shuffle(shuffled)
    same = Graph(n, shuffled)
    assert same == g and hash(same) == hash(g)
    assert Graph(n + 1, e) != g
    if n > 1:
        p = rng.choice(_pairs(n))
        other = Graph(n, e ^ {p})
        assert other != g and other.edges != g.edges


def test_named_catalog_graphs_are_built_once():
    for name in ("G151", "G145", "prism", "G175"):
        assert catalog(name) is catalog(name)
        assert catalog_entry(name).graph is catalog(name)


def test_pair_refusal_messages():
    g = path_graph(4)
    with pytest.raises(ValueError, match=re.escape(
            "pair (2, 3) is already an edge")):
        add_edges(g, [(1, 3), (3, 2)])
    with pytest.raises(ValueError, match=re.escape(
            "pairs [(1, 2), (3, 4)] are edges of the graph")):
        nonedge_set(g, [(4, 3), (1, 3), (2, 1)])
    a = RatMatrix.from_rows([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1],
                             [0, 0, 1, 0]])
    h = Graph(4, [(1, 2), (1, 3)])
    with pytest.raises(ValueError, match=re.escape(
            "not a supergraph: missing edges [(2, 3), (3, 4)]")):
        has_strong_property_wrt(a, g, h, "ssp")


def test_labels_are_checked_not_truncated():
    g = catalog("P3")
    # a float or a string is refused: truncated or parsed, (1.7, 3) would
    # be the edge (1, 3), has_edge("2", 1) and has_edge(2.9, 1) would read
    # the edge (1, 2), and n = 2.9 would build a graph on two vertices
    for call in (lambda: build_graph(3, [(1.7, 3)]),
                 lambda: build_graph(3, [(1, 3.0)]),
                 lambda: g.has_edge("2", 1),
                 lambda: g.has_edge(2.9, 1),
                 lambda: g.has_edge(1, np.float64(2.0)),
                 lambda: add_edges(g, [(1, "3")]),
                 lambda: nonedge_set(g, [(1.0, 3)]),
                 lambda: edge_pairs([(1, 2.5)])):
        with pytest.raises(ValueError, match="a vertex label must be an integer"):
            call()
    for n in (2.9, 3.0, "3", None):
        with pytest.raises(ValueError, match="the vertex count must be an integer"):
            build_graph(n)
    # Python and numpy integers of any width still pass
    assert g.has_edge(np.int64(2), np.int32(1)) and g.has_edge(True, 2)
    h = build_graph(np.int64(3), [(np.int8(1), np.uint16(3))])
    assert (h.n, h.edges) == (3, ((1, 3),))
    assert type(h.n) is int and all(type(v) is int for v in h.edges[0])
