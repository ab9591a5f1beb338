"""Command-line front end.

Subcommands: shift, thermo, measure, torus, suite.  All outputs are JSON with
sorted keys (byte-stable for identical inputs and seed); traces can also be
written as CSV with header "n,partial_sum".  Exit codes: 0 all checks passed,
1 a check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from typing import Optional

from . import measures, thermo, torus
from .counting import count_words
from .fixtures import get_fixture
from .graphs import ShiftGraph, StructuralViolation, ball, build_graph, load_graph, validate_graph
from .report import dump_json, trace_csv, write_text
from .suite import SuiteConfig, run_suite

USAGE_ERROR = 2


def split_states(text: str) -> list[str]:
    """Split a comma-separated state list, respecting parenthesized labels.

    Labels like "(0,1)" contain commas, so the separator is any comma not
    inside parentheses.
    """
    parts = re.split(r",(?![^(]*\))", text)
    return [s for s in (p.strip() for p in parts) if s]


def _emit_json(payload: dict, out: Optional[str]) -> None:
    sys.stdout.write(write_text(dump_json(payload), out))


def _load_graph_arg(args) -> ShiftGraph:
    if getattr(args, "fixture", None):
        return get_fixture(args.fixture).graph()
    if getattr(args, "graph", None):
        return load_graph(args.graph)
    raise ValueError("one of --graph FILE or --fixture NAME is required")


def _load_family_arg(args) -> measures.ConformalFamily:
    if getattr(args, "fixture", None):
        return get_fixture(args.fixture).family()
    if getattr(args, "family", None):
        with open(args.family, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError(f"malformed family: expected a JSON object, got {type(spec).__name__}")
        if "fixture" in spec:
            return get_fixture(str(spec["fixture"])).family()
        try:
            graph = build_graph(spec["graph"])
            return measures.make_family(graph, float(spec["h"]),
                                        {str(k): float(v) for k, v in spec["psi"].items()})
        except KeyError as exc:
            raise ValueError(f'malformed family: lacks "{exc.args[0]}"') from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed family: {exc}") from None
    raise ValueError("one of --family FILE or --fixture NAME is required")


# -- subcommand handlers ----------------------------------------------------

def _cmd_shift_validate(args) -> int:
    graph = _load_graph_arg(args)
    rep = validate_graph(graph, radius=args.radius)
    _emit_json({
        "max_out_degree": rep.max_out_degree,
        "max_in_degree": rep.max_in_degree,
        "transitive_on_ball": rep.transitive_on_ball,
        "explored": rep.explored,
    }, args.out)
    return 0 if rep.transitive_on_ball else 1


def _cmd_shift_ball(args) -> int:
    graph = _load_graph_arg(args)
    states = sorted(ball(graph, args.center, args.radius))
    _emit_json({"center": args.center, "radius": args.radius, "states": states}, args.out)
    return 0


def _cmd_shift_count(args) -> int:
    graph = _load_graph_arg(args)
    table = count_words(graph, args.origin, args.target, args.n)
    _emit_json({
        "origin": args.origin,
        "target": args.target,
        "counts": [str(c) for c in table.counts],  # exact integers as decimal strings
    }, args.out)
    return 0


def _cmd_thermo_entropy(args) -> int:
    graph = _load_graph_arg(args)
    est = thermo.gurevich_entropy(graph, args.base, args.n, args.method)
    _emit_json({
        "value": est.value,
        "method": est.method,
        "n_max": est.n_max,
        "period": est.period,
        "diagnostics": est.diagnostics,
    }, args.out)
    return 0


def _cmd_thermo_classify(args) -> int:
    graph = _load_graph_arg(args)
    verdict = thermo.classify_recurrence(graph, args.base, args.h, args.n, args.threshold)
    payload = {
        "verdict": verdict.verdict,
        "threshold": verdict.threshold,
        "partial_sum": verdict.trace.total,
        "n_max": verdict.trace.n_max,
    }
    if verdict.tail is not None:
        payload["tail"] = {
            "rho": verdict.tail.rho,
            "power": verdict.tail.power,
            "limit_estimate": verdict.tail.limit_estimate,
        }
    _emit_json(payload, args.out)
    if args.csv:
        write_text(trace_csv(verdict.trace.partial_sums), args.csv)
    return 0


# the optional flags of `thermo harmonic` that each method reads; --base is read by all
_HARMONIC_READS = {"eigen": (), "sarig": ("h", "n", "radius"), "cyr": ("h", "ray", "radius")}


def _cmd_thermo_harmonic(args) -> int:
    for flag in ("h", "ray", "n", "radius"):
        if getattr(args, flag) is not None and flag not in _HARMONIC_READS[args.method]:
            raise ValueError(f"--{flag} is not read by --method {args.method}")
    graph = _load_graph_arg(args)
    base = args.base if args.base is not None else graph.base
    radius = 4 if args.radius is None else args.radius
    if args.method == "eigen":
        hf = thermo.harmonic_finite(graph, base)
    elif args.method == "sarig":
        if args.h is None:
            raise ValueError("--h is required for the sarig method")
        hf = thermo.harmonic_sarig(graph, base, args.h, 40 if args.n is None else args.n,
                                   radius=radius)
    else:  # cyr: argparse's choices admit no other method
        if args.h is None or not args.ray:
            raise ValueError("--h and --ray are required for the cyr method")
        ray = split_states(args.ray)
        hf = thermo.harmonic_cyr(graph, base, ray, args.h, radius=radius)
    _emit_json({
        "method": hf.method,
        "h": hf.h,
        "residual": hf.residual,
        "values": {k: v for k, v in sorted(hf.values.items())},
    }, args.out)
    return 0


def _cmd_measure_cylinder(args) -> int:
    family = _load_family_arg(args)
    future = split_states(args.future) if args.future else []
    value = measures.cylinder_measure(family, args.root, future)
    _emit_json({
        "root": args.root,
        "future": future,
        "value": value,
        "probability": value / family.psi_of(args.root),
        "depth": len(future),
    }, args.out)
    return 0


def _cmd_measure_verify(args) -> int:
    family = _load_family_arg(args)
    root = args.root if args.root else family.graph.base
    con = measures.conformality_check(family, root, args.depth, tol=args.tol)
    sup = measures.support_check(family, root, args.depth)
    hol = measures.symbolic_holonomy_check(family, root, root, min(args.depth, 6))
    payload = {
        "conformality_max_err": con.max_discrepancy,
        "support_ok": sup,
        "consistency_max_err": hol.max_discrepancy,
    }
    _emit_json(payload, args.out)
    ok = con.passed and sup and hol.passed
    return 0 if ok else 1


def _cmd_torus_export(args) -> int:
    p = torus.builtin_partition(args.map_name)
    sys.stdout.write(write_text(torus.partition_to_json(p), args.out))
    return 0


def _cmd_torus_validate(args) -> int:
    with open(args.partition, "r", encoding="utf-8") as fh:
        auto, rects = torus.parse_partition(fh.read())
    rep = torus.validate_partition(auto, rects)
    _emit_json({
        "ok": rep.ok,
        "area": rep.area_total,
        "max_u_cross_err": rep.max_u_cross_err,
        "max_s_fit_err": rep.max_s_fit_err,
        "edges": sorted([list(e) for e in rep.crossings]),
    }, args.out)
    for w in rep.witnesses:
        sys.stderr.write(f"invalid Markov partition: {w}\n")
    return 0 if rep.ok else 1


def _cmd_suite_run(args) -> int:
    # a setting flag left out is absent from args, so SuiteConfig's default holds
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(SuiteConfig)
             if hasattr(args, f.name)}
    report = run_suite(args.fixture, SuiteConfig(**given))
    write_text(report.to_json(), args.out)
    sys.stdout.write("\n".join(report.summary_lines()) + "\n")
    return report.exit_code


# -- parser -----------------------------------------------------------------

def _add_graph_args(sp) -> None:
    sp.add_argument("--graph", help="graph description file (JSON)")
    sp.add_argument("--fixture", help="named fixture instead of a file")


def build_parser() -> argparse.ArgumentParser:
    # --out is global, accepted both before and after the subcommand; --seed
    # and --tol are declared only on the subcommands that read them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the JSON result to this path")

    ap = argparse.ArgumentParser(prog="margulis",
                                 description="countable Markov shifts, entropy, "
                                             "harmonic functions, and leaf measures")
    ap.add_argument("--out", help="write the JSON result to this path")
    sub = ap.add_subparsers(dest="command", required=True)

    shift = sub.add_parser("shift", help="graph structure operations").add_subparsers(
        dest="subcommand", required=True)
    v = shift.add_parser("validate", parents=[common])
    _add_graph_args(v)
    v.add_argument("--radius", type=int, default=6)
    v.set_defaults(func=_cmd_shift_validate)
    b = shift.add_parser("ball", parents=[common])
    _add_graph_args(b)
    b.add_argument("--center", required=True)
    b.add_argument("--radius", type=int, required=True)
    b.set_defaults(func=_cmd_shift_ball)
    c = shift.add_parser("count", parents=[common])
    _add_graph_args(c)
    c.add_argument("--origin", required=True)
    c.add_argument("--target", required=True)
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(func=_cmd_shift_count)

    th = sub.add_parser("thermo", help="entropy, recurrence, harmonic functions")
    ths = th.add_subparsers(dest="subcommand", required=True)
    e = ths.add_parser("entropy", parents=[common])
    _add_graph_args(e)
    e.add_argument("--base", required=True)
    e.add_argument("--n", type=int, default=40)
    e.add_argument("--method", choices=["ratio"], default="ratio")
    e.set_defaults(func=_cmd_thermo_entropy)
    cl = ths.add_parser("classify", parents=[common])
    _add_graph_args(cl)
    cl.add_argument("--base", required=True)
    cl.add_argument("--h", type=float, required=True)
    cl.add_argument("--n", type=int, default=60)
    cl.add_argument("--threshold", type=float, default=15.0)
    cl.add_argument("--csv", help="write the partial-sum trace as CSV")
    cl.set_defaults(func=_cmd_thermo_classify)
    ha = ths.add_parser("harmonic", parents=[common])
    _add_graph_args(ha)
    ha.add_argument("--method", choices=["eigen", "sarig", "cyr"], required=True)
    ha.add_argument("--base")
    ha.add_argument("--h", type=float, help="sarig and cyr only")
    ha.add_argument("--ray", help="comma-separated injective forward path; cyr only")
    ha.add_argument("--n", type=int, help="sarig only (default 40)")
    ha.add_argument("--radius", type=int, help="sarig and cyr only (default 4)")
    ha.set_defaults(func=_cmd_thermo_harmonic)

    me = sub.add_parser("measure", help="conformal cylinder measures")
    mes = me.add_subparsers(dest="subcommand", required=True)
    mc = mes.add_parser("cylinder", parents=[common])
    mc.add_argument("--family", help="family description file (JSON)")
    mc.add_argument("--fixture")
    mc.add_argument("--root", required=True)
    mc.add_argument("--future", default="")
    mc.set_defaults(func=_cmd_measure_cylinder)
    mv = mes.add_parser("verify", parents=[common])
    mv.add_argument("--family")
    mv.add_argument("--fixture")
    mv.add_argument("--root")
    mv.add_argument("--depth", type=int, default=8)
    mv.add_argument("--tol", type=float, default=1e-12)
    mv.set_defaults(func=_cmd_measure_verify)

    to = sub.add_parser("torus", help="toral automorphism model")
    tos = to.add_subparsers(dest="subcommand", required=True)
    tv = tos.add_parser("verify", parents=[common])
    tv.add_argument("--map", choices=["cat"], default="cat")
    tv.add_argument("--depth", type=int, default=argparse.SUPPRESS)
    tv.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    tv.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    tv.set_defaults(func=_cmd_suite_run, fixture="cat")
    te = tos.add_parser("export", parents=[common])
    te.add_argument("--map", dest="map_name", default="cat-adler-weiss")
    te.set_defaults(func=_cmd_torus_export)
    tl = tos.add_parser("validate", parents=[common])
    tl.add_argument("--partition", required=True,
                    help="partition description file (JSON)")
    tl.set_defaults(func=_cmd_torus_validate)

    su = sub.add_parser("suite", help="end-to-end verification suites")
    sus = su.add_subparsers(dest="subcommand", required=True)
    sr = sus.add_parser("run", parents=[common])
    sr.add_argument("--fixture", required=True)
    sr.add_argument("--n", dest="n_max", metavar="N", type=int, default=argparse.SUPPRESS)
    sr.add_argument("--depth", type=int, default=argparse.SUPPRESS)
    sr.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    sr.add_argument("--threshold", type=float, default=argparse.SUPPRESS)
    sr.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sr.set_defaults(func=_cmd_suite_run)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, thermo.NumericalFailure) as exc:
        # str() of a KeyError quotes its message; print the message itself
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        sys.stderr.write(f"error: {msg}\n")
        return USAGE_ERROR
    except StructuralViolation as exc:
        sys.stderr.write(f"structural violation: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
