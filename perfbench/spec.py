"""What the benchmark measures: workloads, metric names, units and bounds.

BENCHMARK.json at the repository root is rendered from this module
(``python3 perfbench/run.py --write-benchmark-json``), and the run reports
exactly these metric names, so the two cannot drift apart.
"""

from __future__ import annotations

import json

from tracer import ATTEMPTS, traced_names

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20
# Seed used while writing a change, and a seed kept back to confirm a
# claimed gain on inputs the change was not tuned on.
DEV_SEED = 1
HELDOUT_SEED = 2

WORKLOADS = (
    ("certify", "exact certificates (psi, rank, liberation criteria, CLI) on "
                "random 5-8 vertex graphs; exercises exactla, strongprops, "
                "liberation and cli, leaves continuation idle"),
    ("construct", "numeric constructions (realize then liberate, rational "
                  "liberate, low-rank completion); almost all continuation "
                  "and numpy.linalg below it"),
    ("replay", "reproduce() on the 13 registry targets other than table6: "
               "the end-to-end pipeline mixing exact and numeric layers"),
)

# (name, unit, better, bound). bound: share of the parent's median by which
# the metric may worsen before a change counts as a regression.
# Times are scaled to a reference core speed (speed.py). On the shared
# 2-core reference machine that cut the spread, (Q3 - Q1) / median, of ten
# runs of unchanged code from 0.12-0.34 to 0.01-0.05 for ops_per_s and
# 0.03-0.12 for latency_p50_s; medians of two such sets agreed within 8%.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.15),
    ("latency_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

REPLAY_TARGETS = ("k4k1", "g151", "g100", "g127g169", "g163", "c6c8", "k14",
                  "k13k13", "g129", "g171", "g175", "pmpn", "prism")
OP_KINDS = ("libset", "strong", "enumerate", "cli", "realize", "liberate",
            "lowrank")


def per_layer():
    """(name, unit, better) for every per-layer metric of the traced run."""
    out = []
    for name in traced_names():
        out.append(("%s.calls" % name, "count", "lower"))
        out.append(("%s.self_s" % name, "s", "lower"))
        if name in ATTEMPTS:
            out.append(("%s.attempts" % name, "count", "lower"))
    out += [("replays.reproduce.%s.wall_s" % t, "s", "lower")
            for t in REPLAY_TARGETS]
    out += [("op.%s.latency_p50_s" % k, "s", "lower") for k in OP_KINDS]
    out += [("trace.overhead_share", "share", "lower"),
            ("trace.counts_repeat", "bool", "higher"),
            ("fail_share", "share", "lower"),
            # The tail is reported here, without a bound: on construct the
            # 11th largest sample falls between distinct corpus items, and
            # it moved by 30% between runs of one seed.
            ("latency_tail_s", "s", "lower"),
            ("latency_tail_percentile", "%", "higher"),
            ("latency_samples", "count", "higher")]
    return out


def benchmark_json() -> str:
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer()],
    }
    return json.dumps(doc, indent=2) + "\n"
