import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liberatrix.directsum import directsum_liberation
from liberatrix.exactla import RatMatrix
from liberatrix.graphs import build_graph, cartesian_product, catalog, product_index
from liberatrix.zeroforcing import (
    closure,
    cover_to_bridge,
    is_local_zf_cover,
    is_zf_cover,
    is_zf_set,
    local_closure,
    zero_forcing_number,
    zf_liberation,
)

SEED = 20260816

# path 1-2-3-4 with a leaf at 3, and the same with the extra edge 4-5
G30 = build_graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
G36 = build_graph(5, [(1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])

PRISM_COVER = [(1, 1), (2, 1), (3, 2), (4, 2)]


def test_closure_path_from_leaf():
    state = closure(catalog("P5"), [1])
    assert state.complete
    assert state.log == ((1, 2, "standard"), (2, 3, "standard"),
                         (3, 4, "standard"), (4, 5, "standard"))


def test_closure_cycle():
    c6 = catalog("C6")
    stalled = closure(c6, [1])
    assert not stalled.complete
    assert stalled.blue == frozenset([1])
    assert stalled.log == ()
    assert closure(c6, [1, 2]).complete


def test_closure_schedule_independent():
    rng = random.Random(SEED)
    for _ in range(6):
        n = rng.randint(4, 10)
        edges = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                 if rng.random() < 0.4]
        g = build_graph(n, edges)
        filled = [v for v in range(1, n + 1) if rng.random() < 0.4] or [1]
        want = closure(g, filled).blue
        for _ in range(50):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            assert closure(g, filled, schedule=order).blue == want


def test_closure_validates():
    g = catalog("P3")
    with pytest.raises(ValueError):
        closure(g, [4])
    with pytest.raises(ValueError):
        closure(g, [1], schedule=[1, 2])


def test_zero_forcing_numbers():
    assert zero_forcing_number(catalog("P5")).value == 1
    assert zero_forcing_number(catalog("C6")).value == 2
    assert zero_forcing_number(catalog("P3xP4")).value == 3
    assert zero_forcing_number(catalog("C4xP2")).value == 4
    assert zero_forcing_number(catalog("C3xC3")).value == 5
    assert zero_forcing_number(catalog("C3xC4")).value == 6
    assert zero_forcing_number(catalog("3K1")).value == 3
    with pytest.raises(ValueError):
        zero_forcing_number(catalog("P3xP3xP2"))


def test_zero_forcing_witness_is_optimal():
    res = zero_forcing_number(catalog("C3xC3"))
    g = catalog("C3xC3")
    assert is_zf_set(g, res.witness)
    # nothing smaller forces: spot check all subsets one below
    from itertools import combinations

    for cand in combinations(range(1, 10), res.value - 1):
        assert not is_zf_set(g, cand)


def test_zf_cover_examples():
    assert is_zf_cover(catalog("K1,3"), [2, 3, 4])
    assert is_zf_cover(G30, [1, 4, 5])
    assert is_zf_cover(G36, [1, 4, 5])
    # all-leaves minus one is a zf set but the remainder is not a cover
    assert not is_zf_cover(G30, [1, 4])
    assert is_zf_cover(catalog("P4"), [1, 4])
    # vacuous edge: empty set
    assert is_zf_cover(catalog("P3"), [])


def test_union_of_disjoint_zf_sets_is_cover():
    rng = random.Random(SEED + 1)
    found = 0
    from itertools import combinations

    for _ in range(12):
        n = rng.randint(3, 8)
        edges = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                 if rng.random() < 0.45]
        g = build_graph(n, edges)
        w1 = zero_forcing_number(g).witness
        rest = [v for v in range(1, n + 1) if v not in w1]
        w2 = None
        for k in range(1, len(rest) + 1):
            for cand in combinations(rest, k):
                if is_zf_set(g, cand):
                    w2 = cand
                    break
            if w2:
                break
        if w2 is None:
            continue
        found += 1
        assert is_zf_cover(g, list(w1) + list(w2))
    assert found >= 5


def test_local_closure_prism_cover():
    c4, k2 = catalog("C4"), catalog("K2")
    assert is_local_zf_cover(c4, k2, PRISM_COVER)
    # second coordinates are product labels, never bridge ends
    with pytest.raises(ValueError):
        is_local_zf_cover(c4, k2, [(1, 5), (2, 5), (3, 6), (4, 6)])
    state = local_closure(c4, k2, PRISM_COVER)
    assert state.complete
    assert all(tag in ("G-local", "H-local") for (_, _, tag) in state.log)


def test_standard_forces_are_locally_legal():
    # replay every standard force on a product and check it is locally legal
    g, h = catalog("C4"), catalog("P2")
    prod = cartesian_product(g, h)
    filled = zero_forcing_number(prod).witness
    state = closure(prod, filled)
    assert state.complete
    blue = set(filled)
    for (p, q, tag) in state.log:
        assert tag == "standard"
        pu, pv = (p - 1) // h.n + 1, (p - 1) % h.n + 1
        qu, qv = (q - 1) // h.n + 1, (q - 1) % h.n + 1
        if pv == qv:
            copy_whites = [w for w in g.neighbors(pu)
                           if product_index(w, pv, h.n) not in blue]
            assert copy_whites == [qu]
        else:
            assert pu == qu
            copy_whites = [w for w in h.neighbors(pv)
                           if product_index(pu, w, h.n) not in blue]
            assert copy_whites == [qv]
        blue.add(q)


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return build_graph(n, [p for p, keep in zip(pairs, mask) if keep])


@st.composite
def products(draw):
    g, h = draw(graphs(4)), draw(graphs(4))
    pairs = draw(st.lists(st.tuples(st.integers(1, g.n), st.integers(1, h.n)),
                          unique=True))
    return g, h, pairs


@settings(max_examples=100, deadline=None)
@given(graphs(9), st.data())
def test_closure_blue_set_ignores_schedule(g, data):
    filled = data.draw(st.lists(st.integers(1, g.n), unique=True))
    order = data.draw(st.permutations(range(1, g.n + 1)))
    assert closure(g, filled, order).blue == closure(g, filled).blue


@settings(max_examples=100, deadline=None)
@given(products(), st.data())
def test_local_closure_blue_set_ignores_schedule(gh, data):
    g, h, pairs = gh
    order = data.draw(st.permutations(range(1, g.n * h.n + 1)))
    assert (local_closure(g, h, pairs, order).blue
            == local_closure(g, h, pairs).blue)


@settings(max_examples=100, deadline=None)
@given(products())
def test_standard_closure_inside_local_closure(gh):
    # a standard force is unique among all neighbors, hence within the copy
    # that holds it, so the per-copy rule forces at least as much
    g, h, pairs = gh
    labels = [product_index(u, v, h.n) for (u, v) in pairs]
    standard = closure(cartesian_product(g, h), labels).blue
    assert standard <= local_closure(g, h, pairs).blue


def relabeled(g, perm):
    """Vertex v of g becomes perm[v - 1] + 1."""
    return build_graph(g.n, [(perm[i - 1] + 1, perm[j - 1] + 1)
                             for i, j in g.edges])


@settings(max_examples=100, deadline=None)
@given(products(), st.data())
def test_covers_under_product_relabeling(gh, data):
    # sigma on G and tau on H move (u, v) to (sigma(u), tau(v)) and map
    # forcing closures, and so covers, onto each other
    g, h, pairs = gh
    sg = data.draw(st.permutations(range(g.n)))
    sh = data.draw(st.permutations(range(h.n)))
    g2, h2 = relabeled(g, sg), relabeled(h, sh)

    def move(u, v):
        return sg[u - 1] + 1, sh[v - 1] + 1
    moved = [move(u, v) for (u, v) in pairs]
    flat = {product_index(u, v, h.n): product_index(*move(u, v), h.n)
            for u in range(1, g.n + 1) for v in range(1, h.n + 1)}
    assert (local_closure(g2, h2, moved).blue
            == {flat[x] for x in local_closure(g, h, pairs).blue})
    assert is_local_zf_cover(g2, h2, moved) == is_local_zf_cover(g, h, pairs)
    labels = [product_index(u, v, h.n) for (u, v) in pairs]
    assert (is_zf_cover(cartesian_product(g2, h2), [flat[x] for x in labels])
            == is_zf_cover(cartesian_product(g, h), labels))


def test_cover_to_bridge():
    c4, k2 = catalog("C4"), catalog("K2")
    beta = cover_to_bridge(c4, k2, PRISM_COVER)
    assert beta.pairs == ((1, 5), (2, 5), (3, 6), (4, 6))
    assert beta.tag == "bridging"
    assert cover_to_bridge(c4, k2, []).pairs == ()

    p3, p4 = catalog("P3"), catalog("P4")
    f = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]
    labels = [product_index(u, v, p4.n) for (u, v) in f]
    assert is_zf_cover(catalog("P3xP4"), labels)
    assert cover_to_bridge(p3, p4, f).pairs == (
        (1, 4), (2, 4), (2, 5), (3, 4), (3, 5))


def test_zf_liberation_ssp():
    a = RatMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 1, 0]])  # path, spectrum has 0
    b = RatMatrix.from_rows([[0]])
    report = zf_liberation(a, b, [(1, 1), (3, 1)], kind="ssp")
    assert report.combinatorial
    assert report.algebraic.answer
    assert report.agree
    assert bool(report)
    assert report.beta.pairs == ((1, 4), (3, 4))
    assert report.force_log.complete
    assert report.note == ""


def test_zf_liberation_one_directional_gap():
    a = RatMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    b = RatMatrix.from_rows([[5]])
    report = zf_liberation(a, b, [(1, 1), (2, 1)], kind="ssp")
    assert not report.combinatorial
    assert report.algebraic.answer
    assert not report.agree
    assert "one-directional" in report.note


def test_zf_liberation_sap_prism():
    a = RatMatrix.from_rows([[0, 1, 0, 1],
                             [1, 0, 1, 0],
                             [0, 1, 0, 1],
                             [1, 0, 1, 0]])
    b = RatMatrix.from_rows([[1, 1], [1, 1]])
    report = zf_liberation(a, b, PRISM_COVER, kind="sap")
    assert report.combinatorial
    assert report.algebraic.answer
    assert report.agree
    assert report.beta.pairs == ((1, 5), (2, 5), (3, 6), (4, 6))
    assert all(tag != "standard" for (_, _, tag) in report.force_log.log)


def test_zf_liberation_validates():
    a = RatMatrix.from_rows([[0, 1], [1, 0]])
    b = RatMatrix.from_rows([[3]])
    with pytest.raises(ValueError):
        zf_liberation(a, b, [], kind="ssp")


def test_cover_pairs_take_product_labels_only():
    # what a pair means does not depend on the other pairs of the set
    p2, p4 = catalog("P2"), catalog("P4")
    assert cover_to_bridge(p2, p4, [(1, 3), (2, 4)]).pairs == ((1, 5), (2, 6))
    with pytest.raises(ValueError, match="second coordinate 5 outside 1..4"):
        cover_to_bridge(p2, p4, [(1, 3), (2, 5)])
    with pytest.raises(ValueError, match=r"pair \(3,1\) outside"):
        cover_to_bridge(p2, p4, [(3, 1)])


@pytest.mark.parametrize("scale, libsets", [(1, 34), (2, 103)])
def test_k3_k3_covers_lie_inside_liberation_sets(scale, libsets):
    # A = J3 and B = scale * J3 across all 511 nonempty bridge sets: the
    # zero-forcing covers of K3 x K3 are liberation sets of A + B, and with
    # B = J3 they are all of them
    k3 = catalog("K3")
    prod = cartesian_product(k3, k3)
    cells = [(u, v) for u in range(1, 4) for v in range(1, 4)]
    a = RatMatrix.from_rows([[1] * 3] * 3)
    b = RatMatrix.from_rows([[scale] * 3] * 3)
    covers, libs = set(), set()
    for k in range(1, 10):
        for f in combinations(cells, k):
            if is_zf_cover(prod, [product_index(u, v, 3) for u, v in f]):
                covers.add(f)
            if directsum_liberation(a, b, cover_to_bridge(k3, k3, f)):
                libs.add(f)
    assert len(covers) == 34
    assert len(libs) == libsets
    assert covers <= libs
