"""Sweeps outside tier-1, one per CI step; each exits nonzero and names
what failed.

    PYTHONPATH=src:tests python -W error::UserWarning \
        -W error::RuntimeWarning tests/sweeps.py replay|cover|sampled|refuse

Under -W error::UserWarning -W error::RuntimeWarning, as in CI, a warning
is a failure: a UserWarning, or numpy's overflow, invalid-value or divide
warning in a solver.

replay   every replay target at seeds 0-30; a failing seed is a defect in
         the library.
cover    a zero-forcing cover of G x H gives a liberation set of the direct
         sum. Over every ordered pair of connected atlas graphs on 2-4
         vertices with |G||H| <= 12, each cover of size Z + 1 and Z + 2 runs
         through zf_liberation on seeded strong blocks, B shifted to share
         A's smallest eigenvalue.
sampled  the sampled pattern-level verdict against the reference that
         certifies every sample. Over every connected atlas graph on 3-5
         vertices, every nonedge set of size 1-2 and both kinds, 12 trials
         at the atlas index as seed, verdict, trials, counterexample and
         mode must be equal.
refuse   realize_in_pattern refuses what no matrix realizes. Over every
         connected atlas graph on 3-5 vertices and every ordered
         multiplicity list whose largest multiplicity exceeds Z(G), with
         values from _draw_values and the pair's index as seed, it must
         raise RuntimeError whose message ends naming one of the solvers'
         failure reasons (oracles.REASONS); the largest Newton step count
         per call is printed.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations

import numpy as np

from liberatrix import (REGISTRY, cartesian_product, continuation,
                        is_graph_liberation_set, is_zf_cover,
                        realize_in_pattern, reproduce, sym_eigen,
                        zero_forcing_number, zf_liberation)
from liberatrix.replays import _draw_values, _realize_ssp
from oracles import (connected_atlas, graph_liberation_reference,
                     names_a_reason)


def replay():
    failed = [(name, seed) for name in REGISTRY for seed in range(31)
              if not reproduce(name, seed=seed).ok]
    if failed:
        sys.exit("failing (target, seed): %s" % failed)
    print("%d targets x 31 seeds: all passed" % len(REGISTRY))


def cover():
    atlas = connected_atlas(2, 4)
    blocks = {i: _realize_ssp(g, _draw_values(random.Random(i), g.n), i)
              for i, g in atlas.items()}
    pairs = [(i, j) for i in atlas for j in atlas
             if atlas[i].n * atlas[j].n <= 12]
    failed, covers = [], 0
    for i, j in pairs:
        g, h, a = atlas[i], atlas[j], blocks[i]
        shift = sym_eigen(a)[0][0] - sym_eigen(blocks[j])[0][0]
        b = blocks[j] + shift * np.eye(h.n)
        prod = cartesian_product(g, h)
        z = zero_forcing_number(prod).value
        ok = True
        for k in (z + 1, z + 2):
            for f in combinations(range(1, prod.n + 1), k):
                if not is_zf_cover(prod, f):
                    continue
                covers += 1
                cover = [((x - 1) // h.n + 1, (x - 1) % h.n + 1) for x in f]
                try:
                    ok &= bool(zf_liberation(a, b, cover))
                except (ValueError, RuntimeError, UserWarning):
                    ok = False
        if not ok:
            failed.append("G%d x G%d" % (i, j))
    if failed:
        sys.exit("covers not certified on: %s" % ", ".join(failed))
    print("%d graph pairs, %d covers: all certified" % (len(pairs), covers))


def sampled():
    atlas = connected_atlas(3, 5)
    queries = [(i, beta, kind) for i, g in atlas.items()
               for size in (1, 2)
               for beta in combinations(g.nonedges(), size)
               for kind in ("ssp", "sap")]
    failed, yes = [], 0
    for i, beta, kind in queries:
        got = is_graph_liberation_set(atlas[i], beta, kind, 12, i)
        if got != graph_liberation_reference(atlas[i], beta, kind, 12, i):
            failed.append("G%d %s %s" % (i, list(beta), kind))
        yes += bool(got)
    if failed:
        sys.exit("sampled verdicts differ on: %s" % "; ".join(failed))
    print("%d graphs, %d queries: all equal (%d yes, %d counterexamples)"
          % (len(atlas), len(queries), yes, len(queries) - yes))


def _ordered_lists(n):
    """Every ordered multiplicity list summing to n."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _ordered_lists(n - first):
            yield (first,) + rest


def refuse():
    atlas = connected_atlas(3, 5)
    pairs = [(i, mults) for i, g in atlas.items()
             for mults in _ordered_lists(g.n)
             if max(mults) > zero_forcing_number(g).value]
    steps = [0]
    newton = continuation._min_norm_newton

    def counting(*args):
        out = newton(*args)
        steps[0] += out[3]
        return out

    continuation._min_norm_newton = counting
    realized, unnamed, most = [], [], 0
    for idx, (i, mults) in enumerate(pairs):
        values = _draw_values(random.Random(idx), len(mults))
        spectrum = [v for v, m in zip(values, mults) for _ in range(m)]
        steps[0] = 0
        try:
            realize_in_pattern(atlas[i], spectrum, seed=idx)
        except RuntimeError as err:
            if not names_a_reason(err):
                unnamed.append("G%d %s: %s" % (i, list(mults), err))
        else:
            realized.append("G%d %s" % (i, list(mults)))
        most = max(most, steps[0])
    if realized or unnamed:
        sys.exit("realized past Z(G): %s\nrefused naming no reason: %s"
                 % ("; ".join(realized), "; ".join(unnamed)))
    print("%d graphs, %d lists past Z(G): all refused naming a reason, at "
          "most %d Newton steps per call" % (len(atlas), len(pairs), most))


SWEEPS = {"replay": replay, "cover": cover, "sampled": sampled,
          "refuse": refuse}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in SWEEPS:
        sys.exit("usage: sweeps.py %s" % "|".join(SWEEPS))
    SWEEPS[sys.argv[1]]()
