"""Command line front end.

Thin argument parsing over the library ops, plus JSON run reports. Graph
arguments take either a file path or ``catalog:NAME``; bare names that are
not files are tried against the catalog too. Matrices are read exactly, so
commands built on rational arithmetic emit byte-identical reports for
identical inputs, seed, and version. Timings are recorded only under
``--timed`` to keep that determinism.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import REGISTRY, __version__
from .continuation import (SHAPES, liberate, realize_in_pattern,
                           realize_spectrum)
from .directsum import directsum_liberation
from .exactla import RatMatrix, parse_entry, read_matrix, write_matrix
from .graphs import EdgeSet, Graph, catalog, read_graph
from .liberation import (enumerate_minimal_liberation_sets,
                         is_graph_liberation_set, is_liberation_set)
from .numla import multiplicity_list, sym_eigen
from .patterns import in_class
from .strongprops import KINDS, has_strong_property, has_strong_property_wrt
from .zeroforcing import (closure, is_local_zf_cover, is_zf_cover,
                          local_closure, zero_forcing_number, zf_liberation)


# ---------------------------------------------------------------------------
# argument and file plumbing

def _load_graph(spec: str) -> Graph:
    if spec.startswith("catalog:"):
        return catalog(spec[len("catalog:"):])
    if os.path.exists(spec):
        return read_graph(spec)
    try:
        return catalog(spec)
    except (KeyError, ValueError):
        raise ValueError("%r is neither a graph file nor a catalog name"
                         % spec) from None


def _parse_pairs(text: str, allow_equal=False):
    """Pair list "3-5,4-5" as 1-based tuples.

    Vertex pairs of one graph must be distinct; product coordinates
    (allow_equal) may repeat a label, as in "1-1".
    """
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        bits = chunk.split("-")
        if len(bits) != 2:
            raise ValueError("bad pair %r; expected i-j" % chunk)
        i, j = int(bits[0]), int(bits[1])
        if i < 1 or j < 1 or (i == j and not allow_equal):
            raise ValueError("bad pair %r; need distinct 1-based labels"
                             % chunk)
        pairs.append((i, j))
    if not pairs:
        raise ValueError("empty pair list")
    return tuple(pairs)


def _parse_vertices(text: str):
    out = tuple(int(tok) for tok in text.split(",") if tok.strip())
    if not out:
        raise ValueError("empty vertex list")
    return out


def _parse_spectrum(text: str):
    try:
        vals = tuple(float(parse_entry(tok)) for tok in text.split(",")
                     if tok.strip())
    except OverflowError:
        raise ValueError("spectrum entry too large for a float") from None
    if not vals:
        raise ValueError("empty spectrum")
    return vals


def _is_spectrum(tok: str) -> bool:
    try:
        _parse_spectrum(tok)
    except ValueError:
        return False
    return True


def _join_spectrum(argv):
    """argv with each --spectrum flag, or an abbreviation argparse accepts
    for it, joined to a value that follows it: argparse takes a value that
    starts with a minus sign, such as "-2,-1,0", for an option string."""
    out = []
    for tok in argv:
        flag = out[-1] if out else ""
        if (len(flag) > 3 and "--spectrum".startswith(flag)
                and _is_spectrum(tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _json_default(obj):
    """The JSON form of what json does not encode itself: a Fraction as its
    str (tested first: witnesses and matrices are mostly Fractions), numpy
    values, RatMatrix, Graph, EdgeSet, dataclasses and sets; anything else
    as its str."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    if isinstance(obj, RatMatrix):
        return {"rows": obj.rows, "cols": obj.cols,
                "entries": [[str(obj[i, j]) for j in range(obj.cols)]
                            for i in range(obj.rows)]}
    if isinstance(obj, Graph):
        return {"n": obj.n, "edges": obj.edges}
    # before the dataclass case: an EdgeSet is a dataclass
    if isinstance(obj, EdgeSet):
        return obj.pairs
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    return str(obj)


def _default_seed():
    raw = os.environ.get("LIBERATRIX_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError("LIBERATRIX_SEED must be an integer, got %r" % raw)


def _tolerance(text):
    """Type of --tol. At a tolerance of zero or below, every rounding
    residue would count toward a numeric rank."""
    val = float(text)
    if not (math.isfinite(val) and val > 0):
        raise argparse.ArgumentTypeError(
            "--tol must be finite and positive, got %r" % val)
    return val


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, verdicts, certificates)

def _cmd_verify(args):
    a = read_matrix(args.matrix)
    g = _load_graph(args.graph)
    if args.wrt:
        h = _load_graph(args.wrt)
        res = has_strong_property_wrt(a, g, h, args.kind)
    else:
        res = has_strong_property(a, g, args.kind)
    print("%s: answer=%s rank=%d/%d nullity=%d"
          % (res.kind, res.answer, res.rank, len(res.rows), res.nullity))
    verdicts = {"answer": res.answer, "kind": res.kind, "rank": res.rank,
                "nullity": res.nullity, "rows": len(res.rows)}
    certs = {"kernel_witnesses": res.certificate} if res.certificate else None
    return (0 if res.answer else 1), verdicts, certs


def _cmd_liberate(args):
    a = read_matrix(args.matrix)
    g = _load_graph(args.graph)
    beta = _parse_pairs(args.beta)
    res = liberate(a, g, beta, tol=args.tol, seed=args.seed)
    # the grown matrix's eigenvalues lie within --tol * scale of a's, so a
    # double root may split by more than multiplicity_list's default 1e-8;
    # cluster for display with the coarser tolerance
    ml = multiplicity_list(res.spectrum, tol=1e-6)
    print("liberated onto %d pairs: residual=%.2e min_entry=%.2e "
          "multiplicities=%s verified=%s"
          % (len(beta), res.residual, res.min_pattern_entry,
             list(ml.multiplicities), res.strong_property_verified))
    if args.out:
        write_matrix(res.matrix, args.out)
        print("matrix written to %s" % args.out)
    verdicts = {"verified": res.strong_property_verified,
                "residual": res.residual,
                "min_pattern_entry": res.min_pattern_entry,
                "attempts": res.attempts, "eps": res.eps,
                "spectrum": res.spectrum, "multiplicities": ml.multiplicities}
    certs = {"matrix": res.matrix, "graph": res.graph, "seed": res.seed}
    return (0 if res.strong_property_verified else 1), verdicts, certs


def _cmd_libset(args):
    a = read_matrix(args.matrix)
    g = _load_graph(args.graph)
    if args.enumerate:
        args.max_size = 3 if args.max_size is None else args.max_size
        found = enumerate_minimal_liberation_sets(a, g, args.kind,
                                                  max_size=args.max_size)
        print("%d minimal liberation set(s) up to size %d"
              % (len(found), args.max_size))
        for s in found:
            print("  " + ",".join("%d-%d" % p for p in s.pairs))
        return 0, {"count": len(found), "sets": found}, None
    if not args.beta:
        raise ValueError("--check needs --beta")
    cert = is_liberation_set(a, g, _parse_pairs(args.beta), args.kind)
    print("liberation set: %s" % cert.answer)
    for name, verdict in cert.criteria:
        print("  %-22s %s" % (name, verdict))
    verdicts = {"answer": cert.answer, "kind": cert.kind,
                "criteria": dict(cert.criteria),
                "alpha_rank": cert.alpha_rank, "alpha_size": cert.alpha_size}
    return (0 if cert.answer else 1), verdicts, cert


def _cmd_directsum(args):
    a = read_matrix(args.matrix_a)
    b = read_matrix(args.matrix_b)
    beta = _parse_pairs(args.beta)
    cert = directsum_liberation(a, b, beta, kind=args.kind, tol=args.tol)
    print("direct-sum liberation: %s (intertwiner dimension %d)"
          % (cert.answer, cert.dimension))
    for name, ok, detail in cert.validators:
        print("  %-22s %-5s %s" % (name, ok, detail))
    verdicts = {"answer": cert.answer, "kind": cert.kind,
                "dimension": cert.dimension, "common": cert.common,
                "ambiguous": cert.ambiguous}
    return (0 if cert.answer else 1), verdicts, cert


def _cmd_graph_libset(args):
    g = _load_graph(args.graph)
    beta = _parse_pairs(args.beta)
    res = is_graph_liberation_set(g, beta, kind=args.kind,
                                  trials=args.trials, seed=args.seed)
    print("graph liberation set: %s" % res.verdict)
    verdicts = {"verdict": res.verdict, "kind": res.kind,
                "trials": res.trials}
    certs = None
    if res.counterexample is not None:
        certs = {"counterexample": res.counterexample,
                 "mode": res.counterexample_mode}
    return (0 if bool(res) else 1), verdicts, certs


def _cmd_zf(args):
    g = _load_graph(args.graph)
    if args.number:
        zn = zero_forcing_number(g)
        print("Z = %d  (witness %s)" % (zn.value, list(zn.witness)))
        return 0, {"value": zn.value, "witness": zn.witness}, None
    if args.closure or args.cover:
        if not args.filled:
            raise ValueError("--closure and --cover need --filled")
        filled = _parse_vertices(args.filled)
        if args.closure:
            state = closure(g, filled)
            print("closure: %d/%d filled, %d forces"
                  % (len(state), g.n, len(state.log)))
            verdicts = {"filled": state.blue, "complete": state.complete,
                        "forces": len(state.log)}
            return 0, verdicts, {"log": state.log}
        ok = is_zf_cover(g, filled)
        print("cover: %s" % ok)
        return (0 if ok else 1), {"cover": ok, "filled": filled}, None
    # --local-cover
    if not args.graph_h or not args.pairs:
        raise ValueError("--local-cover needs --graph-h and --pairs")
    h = _load_graph(args.graph_h)
    pairs = _parse_pairs(args.pairs, allow_equal=True)
    ok = is_local_zf_cover(g, h, pairs)
    state = local_closure(g, h, pairs)
    print("local cover: %s (%d/%d filled under per-copy forcing)"
          % (ok, len(state), g.n * h.n))
    verdicts = {"local_cover": ok, "pairs": pairs}
    return (0 if ok else 1), verdicts, {"log": state.log}


def _cmd_zf_liberate(args):
    a = read_matrix(args.matrix_a)
    b = read_matrix(args.matrix_b)
    pairs = _parse_pairs(args.pairs, allow_equal=True)
    rep = zf_liberation(a, b, pairs, kind=args.kind, tol=args.tol)
    print("zero-forcing liberation: combinatorial=%s algebraic=%s agree=%s"
          % (rep.combinatorial, bool(rep.algebraic), rep.agree))
    if rep.note:
        print("  note: %s" % rep.note)
    verdicts = {"combinatorial": rep.combinatorial,
                "algebraic": bool(rep.algebraic), "agree": rep.agree,
                "kind": rep.kind, "beta": rep.beta}
    certs = {"algebraic": rep.algebraic, "force_log": rep.force_log.log,
             "note": rep.note}
    return (0 if bool(rep) else 1), verdicts, certs


def _cmd_realize(args):
    target = _parse_spectrum(args.spectrum)
    if args.graph:
        g = _load_graph(args.graph)
        arr = realize_in_pattern(g, target, seed=args.seed)
        ok = in_class(arr, g, "S")
    else:
        arr = realize_spectrum(target, args.shape, seed=args.seed).array
        ok = True
    vals = sym_eigen(arr)[0]
    ml = multiplicity_list(vals, tol=1e-6)
    dev = max(abs(a - b) for a, b in zip(vals, sorted(target)))
    print("realized: deviation=%.2e multiplicities=%s"
          % (dev, list(ml.multiplicities)))
    if args.out:
        write_matrix(arr, args.out)
        print("matrix written to %s" % args.out)
    verdicts = {"deviation": dev, "pattern_ok": ok, "spectrum": vals,
                "multiplicities": ml.multiplicities}
    return (0 if ok else 1), verdicts, {"matrix": arr}


def _cmd_reproduce(args):
    from .replays import reproduce

    rep = reproduce(args.name, seed=args.seed)
    print("%s: %s" % (rep.name, "pass" if rep.ok else "FAIL"))
    print("  claim: %s" % rep.claim)
    for st in rep.stages:
        mark = "ok " if st.ok else "BAD"
        line = "  [%s] %s" % (mark, st.name)
        if st.detail:
            line += " -- %s" % st.detail
        print(line)
    verdicts = {"ok": rep.ok, "claim": rep.claim,
                "failed_stage": rep.failed_stage, "stages": rep.stages}
    return (0 if rep.ok else 1), verdicts, {"data": rep.data,
                                            "seed": rep.seed}


# ---------------------------------------------------------------------------
# parser assembly

@functools.cache
def _build_parser():
    """The argument parser, built once per process; parse_args leaves it
    unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", dest="json_path",
                        help="write a JSON run report to PATH")
    common.add_argument("--timed", action="store_true",
                        help="include wall-clock timings in the report")
    # only the numeric and sampled commands read a seed or a tolerance
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: env LIBERATRIX_SEED or 0)")
    tolerant = argparse.ArgumentParser(add_help=False)
    tolerant.add_argument("--tol", type=_tolerance, default=1e-8,
                          help="numeric tolerance")
    # verify alone requires --kind; it keeps its own option
    kinded = argparse.ArgumentParser(add_help=False)
    kinded.add_argument("--kind", choices=KINDS, default="ssp")

    p = argparse.ArgumentParser(
        prog="liberatrix",
        description="liberation-set certificates, direct-sum gluing, and "
                    "zero-forcing covers for symmetric matrix patterns")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("verify", parents=[common],
                       help="strong property of a matrix over a pattern")
    q.add_argument("--kind", choices=KINDS, required=True)
    q.add_argument("--graph", required=True)
    q.add_argument("--matrix", required=True)
    q.add_argument("--wrt", help="check relative to this supergraph")
    q.set_defaults(func=_cmd_verify)

    q = sub.add_parser("liberate", parents=[common, seeded, tolerant],
                       help="perturb into a denser pattern, spectrum fixed")
    q.add_argument("--graph", required=True)
    q.add_argument("--matrix", required=True)
    q.add_argument("--beta", required=True, help='pairs "i-j,k-l", 1-based')
    q.add_argument("--out", help="write the liberated matrix here")
    q.set_defaults(func=_cmd_liberate)

    q = sub.add_parser("libset", parents=[common, kinded],
                       help="check or enumerate liberation sets")
    mode = q.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--enumerate", action="store_true")
    q.add_argument("--graph", required=True)
    q.add_argument("--matrix", required=True)
    q.add_argument("--beta")
    q.add_argument("--max-size", type=int, help="enumerate only; default 3")
    q.set_defaults(func=_cmd_libset)

    q = sub.add_parser("directsum", parents=[common, tolerant, kinded],
                       help="bridge-set certificate for a block pair")
    q.add_argument("--matrix-a", required=True)
    q.add_argument("--matrix-b", required=True)
    q.add_argument("--beta", required=True)
    q.set_defaults(func=_cmd_directsum)

    q = sub.add_parser("graph-libset", parents=[common, seeded, kinded],
                       help="randomized pattern-level liberation check")
    q.add_argument("--graph", required=True)
    q.add_argument("--beta", required=True)
    q.add_argument("--trials", type=int, default=60,
                   help="number of sampled matrices")
    q.set_defaults(func=_cmd_graph_libset)

    q = sub.add_parser("zf", parents=[common],
                       help="zero forcing games and covers")
    mode = q.add_mutually_exclusive_group(required=True)
    mode.add_argument("--closure", action="store_true")
    mode.add_argument("--number", action="store_true")
    mode.add_argument("--cover", action="store_true")
    mode.add_argument("--local-cover", dest="local_cover",
                      action="store_true")
    q.add_argument("--graph", required=True)
    q.add_argument("--graph-h", help="second factor for --local-cover")
    q.add_argument("--filled", help='vertex list "1,4,5"')
    q.add_argument("--pairs", help='product pairs "1-1,2-1" for covers')
    q.set_defaults(func=_cmd_zf)

    q = sub.add_parser("zf-liberate", parents=[common, tolerant, kinded],
                       help="bridge a block pair through a forcing cover")
    q.add_argument("--matrix-a", required=True)
    q.add_argument("--matrix-b", required=True)
    q.add_argument("--pairs", required=True)
    q.set_defaults(func=_cmd_zf_liberate)

    q = sub.add_parser("realize", parents=[common, seeded],
                       help="build a matrix hitting a target spectrum")
    q.add_argument("--spectrum", required=True, help='values "0,0,0,4,4"')
    q.add_argument("--shape", choices=SHAPES, default="path")
    q.add_argument("--graph", help="realize inside this pattern instead")
    q.add_argument("--out", help="write the matrix here")
    q.set_defaults(func=_cmd_realize)

    q = sub.add_parser("reproduce", parents=[common, seeded],
                       help="replay a worked construction end to end")
    q.add_argument("name", choices=REGISTRY)
    q.set_defaults(func=_cmd_reproduce)

    return p


def _collect_inputs(args):
    skip = {"func", "command", "json_path", "timed"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None or val is False:
            continue
        out[key] = val
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_spectrum(argv))
    t0 = time.perf_counter()
    try:
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()
        code, verdicts, certs = args.func(args)
        timings = ({"total_s": round(time.perf_counter() - t0, 6)}
                   if args.timed else {})
        if args.json_path:
            report = {"command": args.command,
                      "inputs": _collect_inputs(args), "verdicts": verdicts,
                      "certificates": certs, "timings": timings,
                      "version": __version__}
            payload = json.dumps(report, sort_keys=True, indent=2,
                                 default=_json_default)
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
    except (ValueError, KeyError, OSError, RuntimeError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
