#!/usr/bin/env python3
"""liberatrix benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory. Each operation starts when the previous one returns, in one
process with one thread (BLAS is pinned to one thread before numpy loads).

A workload's seed makes one round of operations. The run repeats whole
rounds until --seconds of operation time have passed, and at least two.
So every run of a seed does the same work in the same proportions, and
neither a slow operation near the end nor timing noise decides the mix
the latency statistics see. Every time is scaled to a reference speed of
the core by a probe sampled all through the run (speed.py says why).

--trace 0 prints the end-to-end metrics. --trace 1 runs the same window,
then one more round with every layer's public functions wrapped (see
tracer.py), and prints the per-layer metrics: call counts, self time,
attempts, per-target and per-kind latencies and the tracing overhead. A
second process then runs the same round untraced and traced; its work
counts must equal this process's, or the run is not correct.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, digest, per-op latencies) goes to perfbench/out/. Exit code 0
on a correct run, 1 when an output was wrong or an operation failed, 2 when
the benchmark could not run (no library source, bad arguments).
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
# Every run takes at least two whole rounds, so each slot also runs once
# more and is checked against its first verdict.
MIN_ROUNDS = 2
CLOCK = speed.CLOCK
# Set-up steps are scaled by this many probes taken right after them.
SETUP_PROBES = 10
# Times the package import in a fresh interpreter, then probes the speed in
# that interpreter, so that the import is scaled like everything else.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "import liberatrix; "
                "t = time.perf_counter() - t; sys.path.insert(0, %r); "
                "import speed; print(t, speed.factor("
                "[speed.probe() for _ in range(%d)]))")


def _fail(msg):
    print("benchmark error: %s" % msg, file=sys.stderr)
    return 2


def import_seconds():
    """Median time to import the package in a fresh interpreter, scaled to
    the reference speed by a probe in that interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = IMPORT_PROBE % (str(HERE), SETUP_PROBES)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=str(ROOT), capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("cannot import liberatrix from %s:\n%s"
                               % (SRC, proc.stderr.strip()))
        took, scale = map(float, proc.stdout.split()[-2:])
        times.append(took * scale)
    return statistics.median(times)


def generate_seconds(wl, seed):
    """(ops, median time to generate them): scaled to the reference speed
    by the probes run right after each generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = CLOCK()
        ops = wl.generate(seed)
        took = CLOCK() - t0
        times.append(took * speed.factor(
            [speed.probe() for _ in range(SETUP_PROBES)]))
    return ops, statistics.median(times)


def environment(seed):
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def tail(latencies):
    """(value, percentile, n): the 11th largest sample, at the highest
    percentile with at least ten samples beyond it; the maximum when there
    are ten samples or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def run_op(wl, op, first, tracer=None, sampler=None):
    """Run one op and check its result.

    The result is checked fully the first time its slot runs and by
    verdict against that first time on repeats. The latency leaves out the
    time the sampler's probes took during the op.
    """
    from workloads import CheckFailed

    if tracer is not None:
        tracer.op = op.index
        tracer.active = True
    spent = sampler.spent if sampler else 0.0
    t0 = CLOCK()
    try:
        res, err = wl.execute(op), None
    except Exception as ex:  # a raising op is a failed op, not a crash
        res, err = None, "%s: %s" % (type(ex).__name__, ex)
    finally:
        t1 = CLOCK()
        if tracer is not None:
            tracer.active = False
    dt = t1 - t0 - ((sampler.spent - spent) if sampler else 0.0)
    verdict = None
    if err is None:
        try:
            if op.index in first:
                verdict = wl.verdict(op, res)
                if verdict != first[op.index]:
                    err = "check: verdict changed on repeat"
            else:
                verdict = first[op.index] = wl.check(op, res)
        except CheckFailed as ex:
            err = "check: %s" % ex
    return {"slot": op.index, "kind": op.kind, "label": op.label,
            "start": t0, "end": t1, "latency": dt, "error": err,
            "verdict": verdict}


def run_rounds(wl, ops, seconds, first, tracer=None, min_rounds=1,
               sampler=None):
    """Whole rounds, at least `min_rounds` of them, until `seconds` of op
    time have passed; returns (records, busy)."""
    records = []
    busy = 0.0
    while len(records) < min_rounds * len(ops) or busy < seconds:
        for op in ops:
            rec = run_op(wl, op, first, tracer, sampler)
            records.append(rec)
            busy += rec["latency"]
    return records, busy


def slot_latencies(records, latencies):
    """Each slot's median latency over the rounds, with its kind and label."""
    by_slot = {}
    for r, lat in zip(records, latencies):
        by_slot.setdefault(r["slot"], (r["kind"], r["label"], []))[2].append(
            lat)
    return [(kind, label, statistics.median(xs))
            for kind, label, xs in by_slot.values()]


def cpu_seconds():
    """CPU time of this process and of its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def digest(records):
    from workloads import canonical

    blob = json.dumps(canonical([r["verdict"] for r in records]),
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_traced(wl, ops, first, tracer):
    """One round traced; returns (records, traced seconds)."""
    tracer.install()
    try:
        return run_rounds(wl, ops, 0.0, first, tracer)
    finally:
        tracer.uninstall()


def counts_main(workload, ops_path):
    """The second process of a traced run: the pickled round once untraced,
    then once traced; prints the work counts as JSON."""
    from tracer import Tracer
    from workloads import WORKLOADS

    with open(ops_path, "rb") as fh:
        ops = pickle.load(fh)
    wl = WORKLOADS[workload](str(Path(ops_path).parent))
    gc.freeze()
    first = {}
    records, _ = run_rounds(wl, ops, 0.0, first)
    tracer = Tracer(CLOCK)
    records += run_traced(wl, ops, first, tracer)[0]
    failed = sum(1 for r in records if r["error"])
    print(json.dumps({"failed": failed, "counts": tracer.counts()}))
    return 1 if failed else 0


def counts_elsewhere(workload, ops, workdir):
    """The work counts of the same round traced in a fresh interpreter, with
    its own import and hash seed; None if that process failed."""
    ops_path = workdir / "ops.pickle"
    with open(ops_path, "wb") as fh:
        pickle.dump(ops, fh)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--counts-of", str(ops_path)], cwd=str(ROOT), capture_output=True,
        text=True, timeout=150)
    if proc.returncode != 0:
        print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])["counts"]


def per_layer_metrics(spec, slots, traced, extra):
    values = {k: extra[k] for k in ("fail_share", "latency_tail_s",
                                    "latency_tail_percentile",
                                    "latency_samples")}
    values.update(traced["counts"])
    values.update({k + ".self_s": v for k, v in traced["self_s"].items()})
    by_kind = {}
    for kind, label, lat in slots:
        by_kind.setdefault(kind, []).append(lat)
        if kind == "replay":
            values["replays.reproduce.%s.wall_s" % label] = lat
    for kind, xs in by_kind.items():
        values["op.%s.latency_p50_s" % kind] = statistics.median(xs)
    values["trace.overhead_share"] = traced["overhead"]
    values["trace.counts_repeat"] = 1 if traced["counts_repeat"] else 0
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in spec.per_layer()}


def main(argv=None):
    import spec

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=spec.DEV_SEED)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json from spec.py and exit")
    p.add_argument("--counts-of", metavar="OPS_PICKLE",
                   help=argparse.SUPPRESS)   # a traced run's second process
    args = p.parse_args(argv)
    if args.counts_of:
        sys.path.insert(0, str(SRC))
        return counts_main(args.workload, args.counts_of)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
        return 0
    if args.workload is None:
        return _fail("--workload is required")
    if not (SRC / "liberatrix" / "__init__.py").is_file():
        return _fail("no library source at %s" % (SRC / "liberatrix"))

    env = environment(args.seed)
    try:
        import_s = import_seconds()
    except (RuntimeError, subprocess.SubprocessError) as ex:
        return _fail(str(ex))
    sys.path.insert(0, str(SRC))
    import liberatrix

    if Path(liberatrix.__file__).resolve().parent != SRC / "liberatrix":
        return _fail("imported liberatrix from %s" % liberatrix.__file__)
    from tracer import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%d" % os.getpid())
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](str(workdir))
        ops, generate_s = generate_seconds(wl, args.seed)
        setup_s = import_s + generate_s
        # The generated inputs live as long as the run; keep the collector
        # from re-scanning them, which the library's callers would not pay.
        gc.freeze()

        first = {}
        cpu0 = cpu_seconds()
        with speed.Sampler() as sampler:
            records, busy = run_rounds(wl, ops, args.seconds, first,
                                       min_rounds=MIN_ROUNDS, sampler=sampler)
        cpu_s = cpu_seconds() - cpu0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = None
        if args.trace:
            tracer = Tracer(CLOCK)
            plain_s = sum(r["latency"] for r in records[-len(ops):])
            traced_records, traced_s = run_traced(wl, ops, first, tracer)
            tracer.save_spans(OUT / ("spans-%s-seed%d.npz"
                                     % (args.workload, args.seed)))
            counts = tracer.counts()
            traced = {"records": traced_records, "counts": counts,
                      "self_s": dict(tracer.self_s),
                      "overhead": (traced_s - plain_s) / plain_s,
                      "counts_repeat": counts_elsewhere(
                          args.workload, ops, workdir) == counts}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    got_digest = digest(records[:len(ops)])
    shipped = json.loads((HERE / "digests.json").read_text())
    want_digest = shipped.get(args.workload, {}).get(str(args.seed))
    digest_ok = want_digest is None or want_digest == got_digest
    all_records = records + (traced["records"] if traced else [])
    failed = sum(1 for r in all_records if r["error"])
    counts_ok = traced is None or traced["counts_repeat"]
    correct = failed == 0 and digest_ok and counts_ok

    lat = [sampler.scaled(r["start"], r["end"], r["latency"])
           for r in records]
    tail_s, tail_pct, n = tail(lat)
    e2e = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    extra = {
        "fail_share": failed / len(all_records),
        "latency_tail_s": tail_s,
        "latency_tail_percentile": tail_pct,
        "latency_samples": n,
        "rounds": len(records) // len(ops),
        "timed_s": busy,
        "timed_cpu_s": cpu_s,
        "probes": len(sampler.took),
        "probe_p50_s": statistics.median(sampler.took),
        "unscaled_ops_per_s": len(records) / busy,
        "unscaled_latency_p50_s": statistics.median(
            r["latency"] for r in records),
        "import_s": import_s,
        "generate_s": generate_s,
        "digest": got_digest,
        "digest_shipped": want_digest,
        "round_verdicts": wl.summary([r["verdict"] for r in records[:len(ops)]
                                      if r["verdict"] is not None]),
    }
    if args.trace:
        extra["trace.counts_repeat"] = traced["counts_repeat"]
        metrics = per_layer_metrics(spec, slot_latencies(records, lat),
                                    traced, extra)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    for key, val in sorted(env.items()):
        print("env   %-24s %s" % (key, val))
    for key, (val, unit) in e2e.items():
        print("e2e   %-24s %14.6g %s" % (key, val, unit))
    for key, val in extra.items():
        print("run   %-24s %s" % (key, val))
    if args.trace:
        for key, m in metrics.items():
            print("layer %-52s %14.6g %s" % (key, m["value"], m["unit"]))
    for r in [r for r in all_records if r["error"]][:20]:
        print("FAILED %s: %s" % (r["label"], r["error"]))
    if not digest_ok:
        print("FAILED digest %s, shipped %s" % (got_digest, want_digest))
    if not counts_ok:
        print("FAILED work counts differ in a second traced process")

    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": env, "correct": correct,
              "end_to_end": {k: v for k, (v, _) in e2e.items()},
              "extra": extra, "metrics": metrics,
              "ops": [[r["slot"], r["label"], r["start"], r["end"],
                       r["latency"], scaled, r["error"]]
                      for r, scaled in zip(all_records, lat + [None] * len(
                          all_records[len(records):]))],
              "probes": [list(sampler.at), list(sampler.took)]}
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(all_records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
