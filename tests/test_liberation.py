import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liberatrix import liberation, strongprops
from liberatrix.exactla import RatMatrix, charpoly, column_echelon, direct_sum
from liberatrix.graphs import (EdgeSet, add_edges, bridge_set, build_graph,
                               catalog, catalog_entry, complement, nonedge_set)
from liberatrix.liberation import (
    CRITERIA,
    enumerate_minimal_liberation_sets,
    is_graph_liberation_set,
    is_liberation_set,
)
from liberatrix.patterns import SAMPLE_MODES, sample_S
from liberatrix.strongprops import has_strong_property, has_strong_property_wrt
from oracles import (connected_atlas, graph_liberation_reference,
                     minimal_liberation_sets, solve, witness_from_block)

SEED = 20260816


def ones_block_plus(lam, n=4):
    m = RatMatrix.zeros(n + 1, n + 1)
    for i in range(n):
        for j in range(n):
            m[i, j] = Fraction(1)
    m[n, n] = Fraction(lam)
    return m


def bordered_star(b, t, leaves=3):
    m = RatMatrix.zeros(leaves + 1, leaves + 1)
    m[0, 0] = Fraction(b)
    for i in range(1, leaves + 1):
        m[0, i] = Fraction(t)
        m[i, 0] = Fraction(t)
    return m


def all_ones(k, a=1):
    m = RatMatrix.zeros(k, k)
    for i in range(k):
        for j in range(k):
            m[i, j] = Fraction(a)
    return m


def test_k4k1_pair_is_liberation_set():
    a = ones_block_plus(4)
    g = catalog("K4uK1")
    cert = is_liberation_set(a, g, [(3, 5), (4, 5)])
    assert cert.answer and bool(cert)
    assert all(ok for _, ok in cert.per_beta_prime)
    assert all(v for _, v in cert.criteria)
    assert cert.alpha_rank == 2 and cert.alpha_size == 2
    # witness is pinned up to scale: col space forces x3 = -x4, x1 = x2 = 0
    w = cert.witness
    assert w[0] == 0 and w[1] == 0
    assert w[2] == -w[3] != 0


def test_certificate_builds_psi_once(monkeypatch):
    # the drop-one checks read rows of the one verification matrix
    calls = []
    real = strongprops.psi

    def counting_psi(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(liberation, "psi", counting_psi)
    monkeypatch.setattr(strongprops, "psi", counting_psi)
    cert = is_liberation_set(ones_block_plus(4), catalog("K4uK1"),
                             [(2, 5), (3, 5), (4, 5)])
    assert cert.answer and len(cert.per_beta_prime) == 3
    assert len(calls) == 1


def test_integer_path_builds_no_fraction_psi(monkeypatch):
    # the four criteria, enumeration, a "yes" and an obstruction read only
    # psi's integers; the Fraction rows are built once, when the matrix is
    # read
    calls = []
    real = strongprops._pair_rows

    def counting_pair_rows(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(strongprops, "_pair_rows", counting_pair_rows)
    a, g = ones_block_plus(4), catalog("K4uK1")
    assert is_liberation_set(a, g, [(3, 5), (4, 5)]).answer
    assert not is_liberation_set(a, g, [(1, 5)]).answer
    assert is_liberation_set(a, g, [(3, 5), (4, 5)], "sap").answer
    assert len(enumerate_minimal_liberation_sets(a, g, max_size=2)) == 6
    assert has_strong_property(a, g, "sap").answer
    assert calls == []
    vm = strongprops.psi(a, g, "ssp")
    assert vm.ncols == vm.matrix.cols == 10 and vm.matrix == vm.matrix
    assert len(calls) == 1
    vm = strongprops.psi(a, g, "sap")
    assert vm.ncols == vm.matrix.cols == 25
    assert len(calls) == 2
    # an obstruction comes off the integer columns
    res = has_strong_property(a, g, "ssp")
    assert not res.answer and len(res.certificate) == 1
    assert len(calls) == 2


def test_criterion_reads_each_named_verdict():
    a, g = ones_block_plus(4), catalog("K4uK1")
    for beta, answer in (([(3, 5), (4, 5)], True), ([(3, 5)], False)):
        cert = is_liberation_set(a, g, beta)
        assert cert.answer is answer
        assert ({name: cert.criterion(name) for name in CRITERIA}
                == dict.fromkeys(CRITERIA, answer))
    with pytest.raises(KeyError):
        cert.criterion("no-such-criterion")


def test_k4k1_singleton_fails():
    a = ones_block_plus(4)
    g = catalog("K4uK1")
    cert = is_liberation_set(a, g, [(1, 5)])
    assert not cert.answer
    assert cert.witness is None
    assert cert.per_beta_prime == (((1, 5), False),)


def test_two_isolated_vertices():
    g = build_graph(2, [])
    same = RatMatrix.from_rows([[3, 0], [0, 3]])
    assert not is_liberation_set(same, g, [(1, 2)]).answer
    diff = RatMatrix.from_rows([[1, 0], [0, 2]])
    cert = is_liberation_set(diff, g, [(1, 2)])
    assert cert.answer and cert.witness is not None


def g151_family(a=1, b=1, t=1):
    return direct_sum(bordered_star(b, t), all_ones(2, a))


def test_g151_family_member_all_ones_parameters():
    entry = catalog_entry("G151")
    cert = is_liberation_set(g151_family(), entry.base, entry.beta)
    assert cert.answer
    assert len(cert.per_beta_prime) == 4


def test_g151_constructed_counterexample():
    # blocks share two eigenvalues; the intertwining Y below vanishes on the
    # complement of the three kept bridges, so one dropped pair breaks the
    # relative property
    a1 = RatMatrix.from_rows([
        [0, 1, 1, 1],
        [1, -1, 0, 0],
        [1, 0, 0, 0],
        [1, 0, 0, 0]])
    a2 = RatMatrix.from_rows([[0, 1], [1, 1]])
    a = direct_sum(a1, a2)
    entry = catalog_entry("G151")
    cert = is_liberation_set(a, entry.base, entry.beta)
    assert not cert.answer
    per = dict(cert.per_beta_prime)
    assert per[(4, 6)] is False


def test_drop_one_criterion_builds_no_certificate(monkeypatch):
    # the definitional criterion reads verdicts only; the failing drop must
    # not pay for a kernel and its reassembled obstructions
    a = direct_sum(
        RatMatrix.from_rows([[0, 1, 1, 1], [1, -1, 0, 0],
                             [1, 0, 0, 0], [1, 0, 0, 0]]),
        RatMatrix.from_rows([[0, 1], [1, 1]]))
    entry = catalog_entry("G151")
    calls = []
    real = strongprops._kernel_vectors

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(strongprops, "_kernel_vectors", counting)
    cert = is_liberation_set(a, entry.base, entry.beta)
    assert cert.per_beta_prime == (((2, 6), True), ((3, 5), True),
                                   ((4, 5), True), ((4, 6), False))
    assert calls == []
    # the certificate route agrees, and does build the obstruction
    for e, ok in cert.per_beta_prime:
        rest = [f for f in entry.beta if f != e]
        wrt = strongprops.has_strong_property_wrt(
            a, entry.base, add_edges(entry.base, rest), "ssp")
        assert wrt.answer == ok
        assert bool(wrt.certificate) == (not ok)
    assert len(calls) == 1


def test_enumerate_k4k1_pairs():
    a = ones_block_plus(4)
    g = catalog("K4uK1")
    assert enumerate_minimal_liberation_sets(a, g, max_size=1) == []
    found = enumerate_minimal_liberation_sets(a, g, max_size=2)
    got = {f.pairs for f in found}
    expect = {((i, 5), (j, 5)) for i in range(1, 5) for j in range(i + 1, 5)}
    assert got == expect
    with pytest.raises(ValueError):
        enumerate_minimal_liberation_sets(a, g, max_size=5)
    for size in (0, -2):
        with pytest.raises(ValueError):
            enumerate_minimal_liberation_sets(a, g, max_size=size)


def test_enumeration_ranks_each_selection_once(monkeypatch):
    # all of psi for the singletons, then all rows but f for each f: the
    # six pairs share four selections, ranked by the one drop-one routine
    real, ranked = strongprops._selected_rank, []

    def counted(vm, sel_idx):
        ranked.append(tuple(sel_idx))
        return real(vm, sel_idx)
    monkeypatch.setattr(strongprops, "_selected_rank", counted)
    found = enumerate_minimal_liberation_sets(ones_block_plus(4),
                                              catalog("K4uK1"), max_size=2)
    assert len(found) == 6
    assert len(ranked) == len(set(ranked)) == 5
    assert not hasattr(liberation, "_selected_rank")


def test_enumerate_singletons_when_property_holds():
    g = catalog("P4")
    a = sample_S(g, seed=11)
    assert has_strong_property(a, g, "ssp").answer
    found = enumerate_minimal_liberation_sets(a, g, max_size=2)
    assert {f.pairs for f in found} == {((1, 3),), ((1, 4),), ((2, 4),)}


def test_graph_level_star_leaf_sets():
    star = complement(catalog("K4uK1"))  # hub is vertex 5
    for beta in ([(1, 2), (2, 3), (1, 3)], [(1, 2), (1, 3), (1, 4)]):
        v = is_graph_liberation_set(star, beta, trials=9, seed=SEED)
        assert v.verdict == "probabilistic-yes" and bool(v)
        assert v.trials == 9


def test_graph_level_counterexample():
    g = build_graph(2, [])
    v = is_graph_liberation_set(g, [(1, 2)], trials=9, seed=SEED)
    assert v.verdict == "certified-counterexample" and not bool(v)
    a = v.counterexample
    assert a[0, 0] == a[1, 1]


def test_graph_level_seed_policy(monkeypatch):
    star = complement(catalog("K4uK1"))
    beta = [(1, 2), (2, 3), (1, 3)]
    # an int seed draws exactly what random.Random(int) draws
    real, seen = liberation.sample_S, []

    def recorded(g, seed, mode):
        seen.append((seed, mode))
        return real(g, seed=seed, mode=mode)
    monkeypatch.setattr(liberation, "sample_S", recorded)
    is_graph_liberation_set(star, beta, trials=9, seed=SEED)
    rng = random.Random(SEED)
    assert seen == [(rng.randrange(2**63), SAMPLE_MODES[t % len(SAMPLE_MODES)])
                    for t in range(9)]
    # a tuple seed is taken, reproducibly, by the library and the oracle
    for g, b in ((star, beta), (catalog("C4"), [(1, 3)])):
        v = is_graph_liberation_set(g, b, trials=6, seed=(1, 2))
        assert v.seed == (1, 2)
        assert v == is_graph_liberation_set(g, b, trials=6, seed=(1, 2))
        assert v == graph_liberation_reference(g, b, "ssp", 6, (1, 2))


def test_graph_level_empty_beta_is_refused():
    g = catalog("P3")
    for beta in ([], nonedge_set(g, [])):
        with pytest.raises(ValueError, match="must be nonempty"):
            is_graph_liberation_set(g, beta, trials=3)


def _count_calls(monkeypatch, name):
    """Replace liberation.<name> by a wrapper; returns its results so far."""
    fn, seen = getattr(liberation, name), []

    def counted(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(liberation, name, counted)
    return seen


def test_graph_level_certifies_only_the_counterexample(monkeypatch):
    certs = _count_calls(monkeypatch, "is_liberation_set")
    star = complement(catalog("K4uK1"))
    for beta in ([(1, 2), (2, 3), (1, 3)], [(1, 2), (1, 3), (1, 4)]):
        assert is_graph_liberation_set(star, beta, trials=9, seed=SEED)
    assert certs == []
    v = is_graph_liberation_set(catalog("C4"), [(1, 3)], trials=3)
    assert (v.verdict, v.trials) == ("certified-counterexample", 1)
    assert [c.answer for c in certs] == [False]
    assert dict(certs[0].criteria) == dict.fromkeys(liberation.CRITERIA, False)


def test_graph_level_empty_beta_draws_no_sample(monkeypatch):
    draws = _count_calls(monkeypatch, "sample_S")
    with pytest.raises(ValueError):
        is_graph_liberation_set(catalog("P3"), [], trials=3)
    assert draws == []


def test_graph_level_counterexample_certificate_must_agree(monkeypatch):
    # a failing drop-one rank answered yes by the certificate is a bug
    monkeypatch.setattr(liberation, "is_liberation_set",
                        lambda *args: SimpleNamespace(answer=True))
    with pytest.raises(RuntimeError, match="disagree"):
        is_graph_liberation_set(catalog("C4"), [(1, 3)], trials=3)


def test_graph_level_matches_per_sample_certificates():
    # every connected graph on 3-4 vertices, every nonedge set of size 1-2
    queries = 0
    for i, g in connected_atlas(3, 4).items():
        for size in (1, 2):
            for beta in combinations(g.nonedges(), size):
                for kind in ("ssp", "sap"):
                    ref = graph_liberation_reference(g, beta, kind, 12, i)
                    got = is_graph_liberation_set(g, beta, kind, 12, i)
                    assert got == ref, (i, beta, kind)
                    queries += 1
    assert queries == 40


def test_graph_level_reads_every_dropped_pair(monkeypatch):
    # G151's constructed counterexample passes the drop-one check at its
    # first three pairs and fails only at the last, (4, 6)
    a = direct_sum(
        RatMatrix.from_rows([[0, 1, 1, 1], [1, -1, 0, 0],
                             [1, 0, 0, 0], [1, 0, 0, 0]]),
        RatMatrix.from_rows([[0, 1], [1, 1]]))
    entry = catalog_entry("G151")
    monkeypatch.setattr(liberation, "sample_S", lambda *args, **kwargs: a)
    v = is_graph_liberation_set(entry.base, entry.beta, trials=2)
    assert (v.verdict, v.trials, v.counterexample) == (
        "certified-counterexample", 1, a)


def test_random_certificates_have_valid_witnesses():
    rng = random.Random(SEED)
    names = ["P4", "P5", "C5", "K1,3", "2K2", "K4uK1"]
    positives = 0
    for _ in range(40):
        g = catalog(rng.choice(names))
        a = sample_S(g, seed=rng.randrange(10**6),
                     mode=rng.choice(["random-rational", "random-diagonal-collisions"]))
        nonedges = list(g.nonedges())
        size = rng.randint(1, min(3, len(nonedges)))
        beta = rng.sample(nonedges, size)
        kind = rng.choice(["ssp", "sap"])
        cert = is_liberation_set(a, g, beta, kind)
        if cert.answer:
            positives += 1
            assert cert.witness is not None
    assert positives >= 10


@pytest.mark.parametrize("mode", SAMPLE_MODES)
def test_witnesses_lie_in_column_space_with_support_beta(mode):
    # every "yes" carries a witness that the Fraction solver oracle places
    # in Col(psi), supported exactly on beta
    rng = random.Random(SEED)
    names = ["P4", "P5", "C5", "K1,3", "2K2", "K4uK1", "C6"]
    positives = 0
    for _ in range(30):
        g = catalog(rng.choice(names))
        a = sample_S(g, seed=rng.randrange(10**6), mode=mode)
        beta = rng.sample(g.nonedges(), rng.randint(1, min(3, len(g.nonedges()))))
        for kind in ("ssp", "sap"):
            cert = is_liberation_set(a, g, beta, kind)
            if not cert.answer:
                assert cert.witness is None
                continue
            positives += 1
            support = {e for e, x in zip(cert.rows, cert.witness) if x != 0}
            assert support == set(beta)
            vm = strongprops.psi(a, g, kind)
            y = solve(vm.matrix, list(cert.witness))
            assert y is not None
            assert vm.matrix @ RatMatrix.column(y) == RatMatrix.column(cert.witness)
    assert positives >= 10


def test_float_input_needs_exact_matrix(monkeypatch):
    a = np.array(ones_block_plus(4))
    g = catalog("K4uK1")
    # the float paths stay open
    assert strongprops.psi(a, g, "ssp").matrix.shape == (4, 10)
    assert len(enumerate_minimal_liberation_sets(a, g, max_size=2)) == 6
    # the four criteria are exact; float input is refused before psi is built
    monkeypatch.setattr(liberation, "psi",
                        lambda *args: pytest.fail("psi built for float input"))
    with pytest.raises(TypeError, match="exact RatMatrix"):
        is_liberation_set(a, g, [(3, 5), (4, 5)])


def test_input_validation():
    a = ones_block_plus(4)
    g = catalog("K4uK1")
    with pytest.raises(ValueError):
        is_liberation_set(a, g, [])
    with pytest.raises(ValueError):
        is_liberation_set(a, g, [(1, 2)])  # an edge of K4
    with pytest.raises(ValueError):
        is_liberation_set(a, g, bridge_set(4, 1, [(1, 5)]))
    with pytest.raises(ValueError):
        is_graph_liberation_set(g, [(1, 5)], trials=0)



def test_edge_set_input_is_checked_like_a_pair_list():
    # an EdgeSet goes through the same nonedge checks as a list of pairs
    a = ones_block_plus(4)
    g = catalog("K4uK1")
    with pytest.raises(ValueError, match="out of range"):
        is_liberation_set(a, g, EdgeSet(((3, 9),)))
    with pytest.raises(ValueError, match="duplicate pair"):
        is_liberation_set(a, g, EdgeSet(((3, 5), (3, 5))))
    with pytest.raises(ValueError, match="edges of the graph"):
        is_liberation_set(a, g, EdgeSet(((1, 2), (3, 5))))
    flipped = is_liberation_set(a, g, EdgeSet(((5, 3), (5, 4))))
    listed = is_liberation_set(a, g, [(3, 5), (4, 5)])
    assert flipped.beta == listed.beta
    assert (flipped.answer, flipped.criteria) == (listed.answer,
                                                  listed.criteria)
    with pytest.raises(ValueError, match="duplicate pair"):
        is_graph_liberation_set(g, EdgeSet(((3, 5), (3, 5))), trials=2)
    with pytest.raises(ValueError, match="expected a nonedge set"):
        is_graph_liberation_set(g, bridge_set(4, 1, [(1, 5)]), trials=2)


@st.composite
def liberation_instances(draw, max_n=7, modes=SAMPLE_MODES, min_n=2):
    """(a, g, beta): a sample of S(g) in one of the sampling modes, on a
    graph with a nonedge, and a nonempty set beta of up to three nonedges."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    mask[draw(st.integers(0, len(pairs) - 1))] = False
    g = build_graph(n, [e for e, keep in zip(pairs, mask) if keep])
    a = sample_S(g, seed=draw(st.integers(0, 2**32)),
                 mode=draw(st.sampled_from(modes)))
    nonedges = g.nonedges()
    beta = draw(st.lists(st.sampled_from(nonedges), min_size=1,
                         max_size=min(3, len(nonedges)), unique=True))
    return a, g, sorted(beta)


@settings(max_examples=60, deadline=None)
@given(liberation_instances(), st.sampled_from(("ssp", "sap")))
def test_four_criteria_agree_over_sample_modes(case, kind):
    # a disagreement between the four routes raises inside the call; the
    # relative-property verdicts with certificates are a fifth route
    a, g, beta = case
    cert = is_liberation_set(a, g, beta, kind)
    assert all(v == cert.answer for _, v in cert.criteria)
    wrt = [has_strong_property_wrt(a, g, add_edges(g, [f for f in beta if f != e]),
                                   kind).answer for e in beta]
    assert cert.answer == all(wrt)
    assert [v for _, v in cert.per_beta_prime] == wrt


@pytest.mark.parametrize("kind", ("ssp", "sap"))
@pytest.mark.parametrize("mode", SAMPLE_MODES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_witness_matches_fraction_block_oracle(mode, kind, data):
    # the integer witness against the Fraction one, read off the block of
    # the public column echelon of psi's Fraction matrix
    a, g, beta = data.draw(liberation_instances(modes=(mode,)))
    cert = is_liberation_set(a, g, beta, kind)
    vm = strongprops.psi(a, g, kind)
    beta_idx = [vm.rows.index(e) for e in beta]
    ech = column_echelon(vm.matrix, beta_idx)
    want = (witness_from_block(ech.block, beta_idx, len(vm.rows))
            if ech.top_independent else None)
    assert cert.witness == want
    assert cert.answer == (want is not None)


@pytest.mark.parametrize("kind", ("ssp", "sap"))
@pytest.mark.parametrize("mode", SAMPLE_MODES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_enumeration_matches_brute_force_oracle(mode, kind, data):
    # every nonedge subset up to max_size certified one by one, kept when
    # minimal; float input of the same draw gives the same sets
    a, g, _ = data.draw(liberation_instances(max_n=6, modes=(mode,),
                                              min_n=3))
    max_size = data.draw(st.integers(1, min(3, len(g.nonedges()))))
    got = enumerate_minimal_liberation_sets(a, g, kind, max_size=max_size)
    pairs = [f.pairs for f in got]
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == minimal_liberation_sets(a, g, kind, max_size)
    floats = enumerate_minimal_liberation_sets(a.to_float(), g, kind,
                                               max_size=max_size)
    assert [f.pairs for f in floats] == pairs


def _relabel(a, g, beta, perm):
    """Vertex v becomes perm[v - 1] + 1 in the matrix, graph and pairs."""
    n = g.n
    b = RatMatrix.zeros(n, n)
    for i in range(n):
        for j in range(n):
            b[perm[i], perm[j]] = a[i, j]

    def move(pairs):
        return [tuple(sorted((perm[i - 1] + 1, perm[j - 1] + 1)))
                for i, j in pairs]
    return b, build_graph(n, move(g.edges)), sorted(move(beta))


@settings(max_examples=40, deadline=None)
@given(liberation_instances(max_n=6), st.data())
def test_relabeling_equivariance(case, data):
    a, g, beta = case
    perm = data.draw(st.permutations(range(g.n)))
    b, h, beta_h = _relabel(a, g, beta, perm)
    assert charpoly(b) == charpoly(a)
    for kind in ("ssp", "sap"):
        ra, rb = has_strong_property(a, g, kind), has_strong_property(b, h, kind)
        assert (rb.answer, rb.rank, rb.nullity) == (ra.answer, ra.rank, ra.nullity)
        ca, cb = is_liberation_set(a, g, beta, kind), is_liberation_set(b, h, beta_h, kind)
        assert (cb.criteria, cb.answer, cb.alpha_rank) == (ca.criteria, ca.answer,
                                                           ca.alpha_rank)
