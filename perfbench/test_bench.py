"""Fast self-test of the benchmark: python3 -m pytest perfbench/test_bench.py

Runs every workload at a tiny size (short rounds, two replay targets) in
this process, untraced and traced, and checks that each metric named in
spec.py comes out with its unit, that the traced work counts repeat in a
second process and fail the run when they do not, and that BENCHMARK.json
matches spec.py.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets BLAS threads before numpy is imported)
import spec  # noqa: E402
import speed  # noqa: E402

SEED = 99    # not a shipped digest seed: tiny rounds hash differently


@pytest.fixture(scope="module")
def tiny():
    sys.path.insert(0, str(run.SRC))
    import workloads

    saved = (workloads.Certify.round_size, workloads.Construct.round_size,
             workloads.REPLAY_TARGETS)
    workloads.Certify.round_size = 20
    workloads.Construct.round_size = 5
    workloads.REPLAY_TARGETS = ("k4k1", "prism")
    yield
    (workloads.Certify.round_size, workloads.Construct.round_size,
     workloads.REPLAY_TARGETS) = saved


def _run(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [n for n, _ in spec.WORKLOADS])
def test_every_metric_is_emitted_with_its_unit(tiny, workload):
    for trace, wanted in ((0, spec.END_TO_END), (1, spec.per_layer())):
        code, result = _run(workload, trace)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {m[0]: m[1] for m in wanted}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
    metrics = result["metrics"]
    assert metrics["trace.counts_repeat"]["value"] == 1
    assert metrics["fail_share"]["value"] == 0


def test_traced_counts_are_read_from_the_library(tiny):
    _, result = _run("construct", 1)
    m = result["metrics"]
    assert m["continuation.realize_in_pattern.calls"]["value"] >= 1
    assert m["numpy.linalg.eigh.calls"]["value"] > 0
    assert m["continuation.liberate.attempts"]["value"] >= 3
    _, result = _run("certify", 1)
    m = result["metrics"]
    assert m["strongprops.psi.calls"]["value"] > 0
    assert m["exactla.rank.calls"]["value"] > 0
    assert m["numpy.linalg.eigh.calls"]["value"] == 0


def test_counts_that_differ_in_a_second_process_fail_the_run(tiny,
                                                             monkeypatch):
    monkeypatch.setattr(run, "counts_elsewhere", lambda *args: None)
    code, result = _run("certify", 1)
    assert code == 1 and not result["correct"]
    assert result["metrics"]["trace.counts_repeat"]["value"] == 0


def test_latencies_are_scaled_by_the_probes_during_and_around_them():
    sampler = speed.Sampler()
    ref = speed.PROBE_REF_S
    # the core at half speed until t = 10, then at double speed
    for t in range(20):
        sampler.at.append(float(t))
        sampler.took.append(2 * ref if t < 10 else ref / 2)
    assert sampler.scaled(2.0, 4.0, 0.3) == pytest.approx(0.15)
    assert sampler.scaled(12.0, 14.0, 0.3) == pytest.approx(0.6)
    # across the change: 0.15 per second at half speed, 0.6 at double
    assert sampler.scaled(8.0, 11.0, 3.0) == pytest.approx(
        3.0 * (0.5 + 0.5 + 2 + 2) / 4)
    # between two probes: the nearest ones
    assert sampler.scaled(3.4, 3.45, 0.3) == pytest.approx(0.15)


def test_benchmark_json_matches_spec():
    assert (run.ROOT / "BENCHMARK.json").read_text() == spec.benchmark_json()


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode not in (0, None)
    assert '"metrics"' not in proc.stdout
