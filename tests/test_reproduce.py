from dataclasses import replace

import pytest

from liberatrix import replays as rp
from liberatrix.replays import ReproduceReport, reproduce


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
    name, done, errors = rp._table6_row("G100", 0)
    assert name == "G100" and not errors
    assert len(done) == 2


def test_table6_workers_capped_at_row_count(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(rp, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(rp, "_table6_row",
                        lambda name, seed: (name, ["stub draw"], []))
    pooled = reproduce("table6", seed=0, jobs=10000)
    assert pooled and started == [len(rp.TABLE6)]
    serial = reproduce("table6", seed=0, jobs=1)
    assert started == [len(rp.TABLE6)]  # one job runs without a pool
    assert serial.stages == pooled.stages
    assert pooled.data == {"realizations": {n: 1 for n in rp.TABLE6}}


def test_failed_certificate_stops_at_its_stage(monkeypatch):
    real_ds, real_zf = rp.directsum_liberation, rp.zf_liberation
    monkeypatch.setattr(rp, "directsum_liberation", lambda *a, **k: replace(
        real_ds(*a, **k), answer=False))
    monkeypatch.setattr(rp, "zf_liberation", lambda *a, **k: replace(
        real_zf(*a, **k), combinatorial=False))
    assert reproduce("g100").failed_stage == "bridge pair certified"
    assert reproduce("g175").failed_stage.startswith("six-pair cover")
    for name in ("G100", "G145"):
        _, done, errors = rp._table6_row(name, 0, draws=1)
        assert not done and all("certificate failed" in e for e in errors)


@pytest.mark.parametrize("mults", ((1, 2, 3), (3, 2, 1)), ids=("123", "321"))
def test_g151_signed_route_list(mults):
    values = (-2.0, 0.5, 3.0)
    glue = rp._row_g151(mults, values, seed=5)
    assert glue.cert.answer and glue.lib.strong_property_verified
    ok, detail = rp._realized_ok("G151", mults, values, glue.matrix)
    assert ok, detail


@pytest.mark.parametrize("seed", (1, 2, 3, 4))
@pytest.mark.parametrize("name", rp.REGISTRY)
def test_replay_passes_at_other_seeds(name, seed):
    rep = reproduce(name, seed=seed)
    assert rep, "%s at seed %d failed at %s: %s" % (
        name, seed, rep.failed_stage, rep.stages[-1].detail)
