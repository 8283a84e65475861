import os
import random
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from liberatrix import liberation
from liberatrix import replays as rp
from liberatrix.replays import ReproduceReport, reproduce

SRC = Path(__file__).resolve().parents[1] / "src"


def test_registry_names():
    assert set(rp.REGISTRY) == set(rp._RUNNERS)
    assert set(rp.REGISTRY) == set(rp.CLAIMS)


def test_unknown_target():
    with pytest.raises(ValueError, match="unknown target"):
        reproduce("g999")


def test_subseed_is_stable():
    assert rp._subseed(1, "a") == rp._subseed(1, "a")
    assert rp._subseed(1, "a") != rp._subseed(1, "b")


def test_k4k1_runs_clean():
    rep = reproduce("k4k1", seed=3)
    assert isinstance(rep, ReproduceReport)
    assert rep and rep.failed_stage is None
    assert all(st.ok for st in rep.stages)
    assert len(rep.data["minimal_sets"]) == 6


def test_g151_family_and_counterexample():
    rep = reproduce("g151", seed=0)
    assert rep
    assert rep.data["failing_deletions"]


def _crafted_g151():
    # the crafted member of test_liberation: it fails the drop-one check
    return rp.direct_sum(
        rp.RatMatrix.from_rows([[0, 1, 1, 1], [1, -1, 0, 0],
                                [1, 0, 0, 0], [1, 0, 0, 0]]),
        rp.RatMatrix.from_rows([[0, 1], [1, 1]]))


def test_g151_certifies_only_the_crafted_matrix(monkeypatch):
    # the fifty family draws are decided by the drop-one rank alone
    real, certs = liberation.is_liberation_set, []

    def counted(*args, **kwargs):
        certs.append(real(*args, **kwargs))
        return certs[-1]
    monkeypatch.setattr(liberation, "is_liberation_set", counted)
    monkeypatch.setattr(rp, "is_liberation_set", counted)
    assert reproduce("g151", seed=0)
    assert [c.answer for c in certs] == [False]


def test_g151_failing_draw_stops_at_its_stage(monkeypatch):
    real, draws = rp._g151_member, []

    def member(*args):
        draws.append(args)
        return _crafted_g151() if len(draws) == 4 else real(*args)
    monkeypatch.setattr(rp, "_g151_member", member)
    rep = reproduce("g151", seed=0)
    assert not rep and rep.failed_stage == "family draw 3 certified"
    assert [st.name for st in rep.stages] == ["family draw 3 certified"]
    assert rep.stages[0].detail == "criteria %s" % (
        tuple((name, False) for name in liberation.CRITERIA),)
    assert len(draws) == 4  # no draw after the failing one


def test_c6c8_repair_pipeline():
    rep = reproduce("c6c8", seed=0)
    assert rep
    names = [st.name for st in rep.stages]
    # the broken printed block is surfaced, not silently swapped out
    assert any("lacks the strong property" in n for n in names)
    assert rep.data["lists"] == {"2x3": [4, 2, 2, 2, 2, 2],
                                 "3x2": [4, 2, 2, 2, 2, 2]}


def test_g129_growth_chain():
    rep = reproduce("g129", seed=1)
    assert rep and rep.failed_stage is None


def test_pmpn_cover_and_merge():
    rep = reproduce("pmpn", seed=2)
    assert rep
    assert rep.data["cover"] == [[1, 1], [2, 1], [2, 2], [3, 1], [3, 2]]


def test_prism_completion():
    rep = reproduce("prism", seed=0)
    assert rep
    assert rep.data["rank"] == 3


def test_failure_is_pinpointed(monkeypatch):
    def broken(run, seed):
        run.check("first stage", True)
        run.check("second stage", False, "deliberate")
        run.check("never reached", True)

    monkeypatch.setitem(rp._RUNNERS, "k4k1", broken)
    rep = reproduce("k4k1")
    assert not rep
    assert rep.failed_stage == "second stage"
    assert [st.name for st in rep.stages] == ["first stage", "second stage"]


def test_crash_becomes_failed_stage(monkeypatch):
    def crashing(run, seed):
        raise KeyError("boom")

    monkeypatch.setitem(rp._RUNNERS, "k4k1", crashing)
    rep = reproduce("k4k1")
    assert not rep
    assert rep.failed_stage == "unhandled"
    assert "KeyError" in rep.stages[-1].detail


def test_table6_single_row():
    done, errors = rp._table6_row("G100", 0)
    assert not errors
    assert len(done) == 2


def test_failed_certificate_stops_at_its_stage(monkeypatch):
    real_ds, real_zf = rp.directsum_liberation, rp.zf_liberation
    monkeypatch.setattr(rp, "directsum_liberation", lambda *a, **k: replace(
        real_ds(*a, **k), answer=False))
    monkeypatch.setattr(rp, "zf_liberation", lambda *a, **k: replace(
        real_zf(*a, **k), combinatorial=False))
    stops = {
        "g100": "bridge pair certified",
        "g127g169": "first split carries (2,1,1,2)",
        "g163": "split carries (1, 1, 3, 1)",
        "g129": "fork pattern carries (1, 3, 1, 1)",
        "g171": "cycle pattern carries (1, 2, 3)",
        "g175": "six-pair cover for (1, 3, 2) certified with two shared "
                "values",
    }
    for name, stage in stops.items():
        rep = reproduce(name)
        assert rep.failed_stage == stage and rep.data == {}, name
    for name in ("G100", "G145"):
        done, errors = rp._table6_row(name, 0, draws=1)
        assert not done and all("certificate failed" in e for e in errors)


_LIST_STAGES = {
    "g100": (["block spectra on target", "blocks carry the strong property",
              "bridge pair certified", "merged matrix carries (1,2,2,1)"],
             ["targets"]),
    "g127g169": (["triangle and path blocks strong",
                  "first split carries (2,1,1,2)",
                  "second split carries (1, 3, 2)",
                  "second split carries (2, 3, 1)"],
                 ["first_targets", "second_targets"]),
    "g163": (["bridge layout is two pairs per shared row",
              "split carries (1, 1, 3, 1)", "split carries (1, 3, 1, 1)"],
             ["targets"]),
    "g129": (["fork pattern carries (1, 3, 1, 1)",
              "fork pattern carries (1, 1, 3, 1)",
              "one added pair reaches the next pattern",
              "a different added pair reaches the other pattern"],
             ["targets"]),
    "g171": (["cycle pattern carries %s" % (m,)
              for m in ((1, 2, 3), (1, 3, 2), (3, 2, 1), (2, 3, 1),
                        (1, 1, 3, 1), (1, 3, 1, 1))]
             + ["one added pair reaches the densest pattern"],
             ["last_targets"]),
    "g175": (["six-pair cover for (1, 3, 2) certified with two shared values",
              "double star carries (1, 3, 2)",
              "six-pair cover for (2, 3, 1) certified with two shared values",
              "double star carries (2, 3, 1)"],
             ["targets"]),
}


@pytest.mark.parametrize("name", sorted(_LIST_STAGES))
def test_list_target_stages_and_data_keys(name):
    rep = reproduce(name, seed=0)
    stages, keys = _LIST_STAGES[name]
    assert rep and [st.name for st in rep.stages] == stages
    assert list(rep.data) == keys


# the ordered lists recorded for each row, written out independently of the
# split table that TABLE6 is read from
_TABLE6_LISTS = {
    "G100": ((1, 2, 2, 1),),
    "G127": ((2, 1, 1, 2),),
    "G129": ((1, 3, 1, 1), (1, 1, 3, 1)),
    "G145": ((1, 1, 3, 1), (1, 3, 1, 1)),
    "G151": ((1, 1, 3, 1), (1, 3, 1, 1), (1, 2, 3), (3, 2, 1),
             (1, 3, 2), (2, 3, 1)),
    "G153": ((1, 1, 3, 1), (1, 3, 1, 1)),
    "G163": ((1, 1, 3, 1), (1, 3, 1, 1)),
    "G169": ((1, 3, 2), (2, 3, 1)),
    "G171": ((1, 2, 3), (1, 3, 2), (3, 2, 1), (2, 3, 1),
             (1, 1, 3, 1), (1, 3, 1, 1)),
    "G175": ((1, 3, 2), (2, 3, 1)),
    "G187": ((1, 1, 3, 1), (1, 3, 1, 1), (1, 2, 3), (3, 2, 1),
             (1, 3, 2), (2, 3, 1)),
}

_SPLIT_LISTS = [(row, mults) for row, lists in rp._SPLITS.items()
                for mults in lists]


@pytest.mark.parametrize("row, mults", _SPLIT_LISTS)
def test_split_blocks_share_out_the_list(row, mults):
    (_, idx_a), (_, idx_b), glue = rp._SPLITS[row][mults]
    assert len(idx_a) + len(idx_b) == 6
    assert Counter(idx_a + idx_b) == dict(enumerate(mults))
    assert glue in rp._GLUE


def test_table6_holds_the_recorded_lists():
    assert len(rp.TABLE6) == 11
    assert sum(len(lists) for lists in rp.TABLE6.values()) == 32
    assert {row: set(lists) for row, lists in rp.TABLE6.items()} == \
        {row: set(lists) for row, lists in _TABLE6_LISTS.items()}


def test_one_pair_rows_carry_their_parents_lists():
    for row, (parent, _) in rp._ONE_PAIR_ROWS.items():
        assert row not in rp._SPLITS
        assert rp.TABLE6[row] == tuple(rp._SPLITS[parent])


@pytest.mark.parametrize("row, mults", _SPLIT_LISTS)
def test_blocks_carry_the_spectrum_their_indices_name(row, mults):
    values = rp._draw_values(random.Random(7), len(mults))
    for shape, idx in rp._SPLITS[row][mults][:2]:
        block = rp._block(shape, idx, values, seed=3)
        got = np.linalg.eigvalsh(block)
        want = sorted(values[i] for i in idx)
        assert np.max(np.abs(got - want)) <= 1e-8, (shape, idx)


@pytest.mark.parametrize("mults", ((1, 2, 3), (3, 2, 1)), ids=("123", "321"))
def test_g151_signed_route_list(mults):
    values = (-2.0, 0.5, 3.0)
    glue = rp._row_glue("G151", mults, values, seed=5)
    assert glue.cert.answer and glue.lib.strong_property_verified
    ok, detail = rp._realized_ok("G151", mults, values, glue.matrix)
    assert ok, detail


@pytest.mark.parametrize("seed", (1, 2, 3, 4))
@pytest.mark.parametrize("name", rp.REGISTRY)
def test_replay_passes_at_other_seeds(name, seed):
    rep = reproduce(name, seed=seed)
    assert rep, "%s at seed %d failed at %s: %s" % (
        name, seed, rep.failed_stage, rep.stages[-1].detail)


@pytest.mark.parametrize("name", rp.REGISTRY)
def test_replay_raises_no_warning(name):
    # a warning turned into an error would become an "unhandled" stage
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = reproduce(name, seed=0)
    assert rep, "%s failed at %s: %s" % (name, rep.failed_stage,
                                         rep.stages[-1].detail)


def test_reproduce_loads_the_replays_on_first_use():
    code = textwrap.dedent("""
        import sys
        import liberatrix
        assert "liberatrix.replays" not in sys.modules
        assert liberatrix.reproduce("k4k1").ok
        assert "liberatrix.replays" in sys.modules
    """)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
