"""Command-line surface for generation, decomposition, certification, trials.

Exit codes: 0 = success, 1 = domain infeasibility (a witness or a false
verdict was found and printed), 2 = usage error.  Every subcommand is
deterministic given its flags.  Only gen and trials draw random numbers;
they take --seed, with STARDECOMP_SEED as the fallback when it is absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import conditions, experiments, numerics
from . import graph as gr
from .decompose import (
    StarProfile,
    Witness,
    balanced_profile,
    brute_force_condition,
    check_condition_U,
    decompose,
    read_decomposition,
    verify_decomposition,
)

__all__ = ["dispatch", "main"]


def _out_stream(args):
    return open(args.output, "w") if getattr(args, "output", None) else sys.stdout


def _emit(args, payload: dict, text_lines: list[str], csv_header="", csv_rows=()) -> None:
    """Write the subcommand result in the requested format.

    ``csv_header`` names the columns of the tuples in ``csv_rows``.
    """
    fh = _out_stream(args)
    try:
        if args.format == "json":
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        elif args.format == "csv":
            fh.write(csv_header + "\n")
            for row in csv_rows:
                fh.write(",".join(map(str, row)) + "\n")
        else:
            fh.write("\n".join(text_lines) + "\n")
    finally:
        if fh is not sys.stdout:
            fh.close()


def _read_vertex_set(path: str) -> frozenset:
    """One 1-based vertex id per line; blank lines and '#' comments ignored."""
    out = set()
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.add(int(line) - 1)
    return frozenset(out)


def _profile_for(G: gr.SimpleGraph, k: int, a_path: str | None) -> StarProfile:
    A = None if a_path is None else _read_vertex_set(a_path)
    return balanced_profile(G.N, G.d, k, A)


# --------------------------------------------------------------------------
# Subcommand handlers (each returns the process exit code)
# --------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    G = experiments._sample_graph(args.n, args.d, args.seed, args.sampler)
    if args.output:
        gr.write_graph(args.output, G)
    else:
        sys.stdout.write(gr._graph_text(G))
    return 0


def _cmd_decompose(args) -> int:
    G = gr.read_graph(args.graph)
    profile = _profile_for(G, args.k, args.A)
    result = decompose(G, args.k, profile)
    if isinstance(result, Witness):
        _emit(
            args,
            {"feasible": False, "witness": result.to_dict()},
            [
                "infeasible",
                f"witness U = {sorted(v + 1 for v in result.U)}",
                f"e[U] = {result.lhs} > quota sum = {result.rhs}",
            ],
        )
        return 1
    lines = [
        f"{star.center + 1}: " + " ".join(str(e + 1) for e in star.edge_ids)
        for star in result.stars
    ]
    _emit(
        args,
        {
            "feasible": True,
            "stars": [
                {"center": s.center + 1, "edges": [e + 1 for e in s.edge_ids]}
                for s in result.stars
            ],
        },
        lines,
    )
    return 0


def _cmd_verify(args) -> int:
    G = gr.read_graph(args.graph)
    D = read_decomposition(args.decomposition)
    if args.A is not None:
        profile = _profile_for(G, args.k, args.A)
    else:
        centers = D.centers
        if centers.size and (centers.min() < 0 or centers.max() >= G.N):
            _emit(args, {"valid": False, "reason": "star center out of range"},
                  ["invalid: star center out of range"])
            return 1
        profile = StarProfile(k=args.k, j_of=tuple(np.bincount(centers, minlength=G.N).tolist()))
    ok, why = verify_decomposition(G, args.k, profile, D)
    _emit(args, {"valid": ok, "reason": why}, ["valid" if ok else f"invalid: {why}"])
    return 0 if ok else 1


def _cmd_cond_check(args) -> int:
    G = gr.read_graph(args.graph)
    profile = _profile_for(G, args.k, args.A)
    U = frozenset(int(tok) - 1 for tok in args.U.replace(",", " ").split())
    holds_u, holds_uc = check_condition_U(G, profile, U)
    _emit(
        args,
        {"U": sorted(v + 1 for v in U), "holds_U": holds_u, "holds_complement": holds_uc},
        [f"holds_U={holds_u} holds_complement={holds_uc}"],
    )
    return 0 if holds_u and holds_uc else 1


def _cmd_brute_check(args) -> int:
    G = gr.read_graph(args.graph)
    profile = _profile_for(G, args.k, args.A)
    result = brute_force_condition(G, profile)
    if result is True:
        _emit(args, {"holds": True}, ["condition holds for all subsets"])
        return 0
    _emit(
        args,
        {"holds": False, "witness": result.to_dict()},
        [
            f"witness U = {sorted(v + 1 for v in result.U)}",
            f"e[U] = {result.lhs} > quota sum = {result.rhs}",
        ],
    )
    return 1


def _cmd_strong(args) -> int:
    res = conditions.strong_condition(conditions.star_params(args.d, args.k))
    _emit(
        args,
        {"d": args.d, "k": args.k, "holds": res.holds, "margin": res.margin},
        [f"d={args.d} k={args.k} holds={res.holds} margin={res.margin:+.6e}"],
    )
    return 0 if res.holds else 1


def _cmd_ksc(args) -> int:
    ds = [args.d] if args.d is not None else range(13, args.d_max + 1)
    rows = [(row.d, row.k_sc) for row in conditions.k_sc_table(ds)]
    _emit(
        args,
        {"rows": [{"d": d, "k_sc": k} for d, k in rows]},
        [f"{d}\t{k}" for d, k in rows],
        csv_header="d,k_sc",
        csv_rows=rows,
    )
    return 0


def _cmd_gamma(args) -> int:
    val = conditions.gamma_beta(args.beta)
    _emit(args, {"beta": args.beta, "gamma": val}, [f"gamma({args.beta}) = {val:.6f}"])
    return 0


def _cmd_quarter_scan(args) -> int:
    max_value, verdict = conditions.scan_quarter_case(grid=args.grid)
    _emit(
        args,
        {"max": max_value, "threshold": -1.0 / 9.0, "verdict": verdict},
        [f"max = {max_value:.6f}  (< -1/9: {verdict})"],
    )
    return 0 if verdict else 1


def _cmd_weak_cert(args) -> int:
    params = conditions.star_params(args.d, args.k)
    cert = conditions.weak_certificate(
        params, grid_step=args.grid_step, x_minus=args.x_minus, x_plus=args.x_plus
    )
    _emit(
        args,
        cert.to_dict(),
        [
            f"d={args.d} k={args.k} window=[{cert.x_minus:.6g}, {cert.x_plus:.6g}]",
            f"max bound = {cert.max_bound:+.6e}",
            f"verdict = {cert.verdict}",
        ],
        csv_header="case,x,value",
        csv_rows=[(1, x, v) for x, v in cert.case1_curve]
        + [(2, x, v) for x, v in cert.case2_curve],
    )
    return 0 if cert.verdict else 1


def _cmd_bounds_curve(args) -> int:
    params = {
        "d": args.d,
        "k": args.k,
        "grid": args.grid,
        "grid_step": args.grid_step,
        "x_minus": args.x_minus,
        "x_plus": args.x_plus,
    }
    if args.kind == "weak-bound" and (args.d is None or args.k is None):
        raise SystemExit("bounds-curve --kind weak-bound requires --d and --k")
    points = experiments.curve_points(
        args.kind, {k: v for k, v in params.items() if v is not None}
    )
    header = "x,value"
    _emit(
        args,
        {"kind": args.kind, "points": [[x, v] for x, v in points]},
        [header] + [f"{x},{v}" for x, v in points],  # text output is the CSV table
        csv_header=header,
        csv_rows=points,
    )
    return 0


def _cmd_pmr(args) -> int:
    if args.inside is None and args.r is None:
        raise SystemExit("pmr requires --inside or --r")
    if args.inside is not None:
        cell = numerics.SubgraphCount(args.n, args.d, args.m, args.inside)
    else:
        cell = numerics.SubgraphCount.from_average_degree(args.n, args.d, args.m, args.r)
    logp = numerics.exact_P_Mr(cell)
    payload = {
        "N": args.n, "d": args.d, "M": args.m,
        "inside": cell.half_edge_pairs_inside,
        "log_P": logp, "P": math.exp(logp),
    }
    _emit(args, payload, [f"P = {math.exp(logp):.9g}  (log P = {logp:.6f})"])
    return 0


def _cmd_trials(args) -> int:
    if args.trials < 1:
        raise SystemExit("trials requires --trials >= 1")
    report = experiments.run_decomposition_trials(
        d=args.d,
        k=args.k,
        N=args.n,
        trials=args.trials,
        a_mode=args.a_mode,
        seed=args.seed,
        sampler=args.sampler,
        keep_records=args.records,
    )
    payload = report.to_dict(include_records=args.records)
    lo, hi = report.wilson95
    lines = [
        f"{report.successes}/{report.trials} decompositions succeeded "
        f"(rate {report.success_rate:.3f}, wilson95 [{lo:.3f}, {hi:.3f}])"
    ]
    for rec in report.records:
        if not rec.success:
            lines.append(f"  trial {rec.trial}: witness {rec.witness}")
    _emit(args, payload, lines)
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of subcommand ``only`` alone.

    A name that matches no subcommand gives the full parser.  The --seed
    default reads STARDECOMP_SEED here, so each build sees its current value.
    """
    parser = argparse.ArgumentParser(
        prog="stardecomp",
        description="k-star decompositions of regular graphs and their certificates",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, *, seeded=False, formats=("text", "json"), **kwargs):
        if only not in (None, name):
            return None
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        if seeded:  # argparse applies type=int to the string default
            p.add_argument("--seed", type=int, default=os.environ.get("STARDECOMP_SEED", "0"))
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", "-o", default=None)
        return p

    csv = ("text", "json", "csv")
    if p := add("gen", _cmd_gen, seeded=True, formats=(), help="sample a simple d-regular graph"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--sampler", choices=("auto", "reject", "restart"), default="auto")

    if p := add("decompose", _cmd_decompose, help="decompose a graph into k-stars"):
        p.add_argument("--graph", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--A", default=None, help="file listing the (s+1)-star vertices")

    if p := add("verify", _cmd_verify, help="verify a decomposition file"):
        p.add_argument("--graph", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--decomposition", required=True)
        p.add_argument("--A", default=None)

    if p := add("cond-check", _cmd_cond_check, help="evaluate the subset condition for one U"):
        p.add_argument("--graph", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--U", required=True, help="comma/space separated 1-based vertex ids")
        p.add_argument("--A", default=None)

    if p := add("brute-check", _cmd_brute_check, help="check the condition on all subsets"):
        p.add_argument("--graph", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--A", default=None)

    if p := add("strong", _cmd_strong, help="decide the strong condition at (d, k)"):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--k", type=int, required=True)

    if p := add("ksc", _cmd_ksc, formats=csv, help="threshold table k_sc(d)"):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--d", type=int)
        g.add_argument("--d-max", type=int)

    if p := add("gamma", _cmd_gamma, help="threshold ratio at a given beta"):
        p.add_argument("--beta", type=float, required=True)

    if p := add("quarter-scan", _cmd_quarter_scan, help="scan the s >= 2 reduction curve"):
        p.add_argument("--grid", type=int, default=10_000)

    if p := add("weak-cert", _cmd_weak_cert, formats=csv,
                help="build the weak certificate for (d, k)"):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--grid-step", type=float, default=1e-4)
        p.add_argument("--x-minus", type=float, default=None)
        p.add_argument("--x-plus", type=float, default=None)

    if p := add("bounds-curve", _cmd_bounds_curve, formats=csv,
                help="emit a certificate curve (CSV table unless --format json)"):
        p.add_argument("--kind", choices=("gamma", "quarter-case", "weak-bound"), required=True)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--grid-step", type=float, default=None)
        p.add_argument("--x-minus", type=float, default=None)
        p.add_argument("--x-plus", type=float, default=None)

    if p := add("pmr", _cmd_pmr, help="exact subset probability"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--inside", type=int, default=None)
        p.add_argument("--r", type=float, default=None)

    if p := add("trials", _cmd_trials, seeded=True, help="Monte Carlo decomposition trials"):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--trials", type=int, required=True)
        p.add_argument("--a-mode", choices=("random", "fixed"), default="random")
        p.add_argument("--sampler", choices=("auto", "reject", "restart"), default="auto")
        p.add_argument("--records", action="store_true")

    if only is not None and not sub.choices:
        return _build_parser()
    return parser


def dispatch(argv=None) -> int:
    # Building the 13 subparsers costs more than a small command, so only
    # the one argv names is built.  Help, a missing or unknown subcommand and
    # arguments it does not take are reported by the full parser, whose
    # usage line lists every subcommand.
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extra = _build_parser(argv[0] if argv else None).parse_known_args(argv)
        if extra:
            _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
