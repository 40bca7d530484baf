"""Command line front end: instance generation, solving, certification, rounding,
oracle checks, and CSV report assembly.

Exit codes: 0 success, 1 generic failure, 2 usage, 3 infeasible or malformed
problem data, 4 solver divergence, 5 certificate (sandwich) violation.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import admm, certify, model, oracle, reports, rounding
from .graphs import (
    InstanceFormatError,
    KEquipartition,
    SpecValidationError,
    format_number,
    gen_gpkc_instance,
    gen_rand_graph,
    read_instance,
    write_instance,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 3
EXIT_DIVERGED = 4
EXIT_CERT_VIOLATION = 5

def _load_problem(path, args):
    g, spec = read_instance(path)
    problem = args.problem
    if problem is None:
        problem = "gpkc" if spec is not None else "keq"
    if problem == "keq":
        if args.k is None:
            raise SystemExit("--k is required for equipartition runs")
        return g, KEquipartition.for_graph(g.n, args.k)
    if args.k is not None:
        raise ValueError(f"--k applies to equipartition runs, and {path} is solved as a "
                         "knapsack problem; give --problem keq to partition it into k groups")
    if spec is None:
        raise SpecValidationError(f"{path} carries no capacity block")
    return g, spec


def _solver_params(args) -> admm.AdmmParams:
    return admm.AdmmParams(eps_tol=args.eps_tol, max_iter=args.max_iter)


def _pct(new, base) -> float | None:
    """100 (new - base) / base; None unless both bounds are finite and base is nonzero."""
    if new is None or base is None or not (math.isfinite(new) and math.isfinite(base)):
        return None
    return 100.0 * (new - base) / base if abs(base) > 1e-12 else None


def _k_or_w(spec) -> str:
    return str(spec.k) if isinstance(spec, KEquipartition) else format_number(spec.W)


def _read_bound(args, g, spec, side: str) -> float | None:
    """``--lb`` (``side`` "lb"), else the largest lb among the solve rows of ``--lb-csv``
    for this instance and k or W; ``--ub`` ("ub"), else the smallest ub among the
    heuristic rows of ``--ub-csv`` for them."""
    value, path = getattr(args, side), getattr(args, f"{side}_csv")
    if value is not None or not path:
        return value
    kinds, pick = (((reports.SolveRow,), max) if side == "lb"
                   else ((reports.HeurRow, reports.HeurDetailRow), min))
    key = (g.name, _k_or_w(spec))
    return pick((getattr(r, side) for r in reports.read_rows(path)
                 if isinstance(r, kinds) and (r.instance, r.k_or_w) == key), default=None)


def cmd_gen(args) -> int:
    if args.gpkc and args.k is None:
        raise SystemExit("--k is required when generating capacity instances")
    if args.k is not None and not args.gpkc:
        raise ValueError("--k calibrates the capacity of --gpkc instances; give --gpkc too")
    # draw every instance before writing any, so a bad value leaves no directory behind
    drawn = [gen_gpkc_instance(args.n, density, args.k, args.seed) if args.gpkc
             else (gen_rand_graph(args.n, density, args.seed), None)
             for density in args.density]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for g, spec in drawn:
        path = outdir / f"{g.name}.gp"
        write_instance(path, g, spec)
        print(path)
    return EXIT_OK


def _solve_one(args, g, spec) -> list[reports.SolveRow]:
    """Every relaxation through ``certify.cutting_loop``; rows, certificates, trace
    and cut rounds are written from the rounds it returns."""
    trace_rows: list[reports.TraceRow] = []
    latest: list[reports.TraceRow] = []   # the last sweep seen of the running round

    def keep_latest():
        if latest and (not trace_rows or trace_rows[-1] is not latest[0]):
            trace_rows.append(latest[0])  # the final sweep of every round always shows

    def callback(k, state, rec, primal, dual):
        if k == 1:  # a new round: the previous one has ended
            keep_latest()
        latest[:] = [reports.TraceRow(k, *rec.as_tuple(), state.sigma, primal, dual)]
        if k % args.trace_every == 0:
            trace_rows.append(latest[0])

    rounds = certify.cutting_loop(g, spec, args.relaxation, _solver_params(args),
                                  max_rounds=args.max_rounds, m_met=args.m_met,
                                  callback=callback if args.trace else None)
    if args.trace:
        keep_latest()
        reports.write_rows(args.trace, trace_rows)
    if args.cert_out:
        reports.write_rows(args.cert_out, [
            reports.CertRow(g.name, args.relaxation, r.certificate.method, r.bound,
                            r.certificate.perturbation, r.certificate.xbar,
                            r.status in admm.STOPPED) for r in rounds], append=True)
    if args.cuts_out:
        reports.write_rows(args.cuts_out,
                           [reports.CutRoundRow(r.round, r.bound, r.cuts) for r in rounds])
    return [reports.SolveRow(g.name, g.n, _k_or_w(spec), args.relaxation, r.bound,
                             r.iterations, r.seconds, r.status) for r in rounds]


def cmd_solve(args) -> int:
    if args.trace_every < 1:
        raise ValueError(f"--trace-every must be at least 1, got {args.trace_every}")
    if len(args.instance) > 1 and (args.cuts_out or args.trace):
        raise ValueError("--cuts-out and --trace rows carry no instance column; "
                         "give one --instance with them")
    # load and check every instance before the first solve, so a bad one leaves no rows
    loaded = [_load_problem(instance, args) for instance in args.instance]
    all_rows = []
    for g, spec in loaded:
        rows = _solve_one(args, g, spec)
        all_rows.extend(rows)
        for row in rows:
            print(f"{row.n},{row.k_or_w},{row.relaxation},{row.lb:.6f},"
                  f"{row.iterations},{row.cpu_seconds:.3f},{row.status}")
    if args.out:
        reports.write_rows(args.out, all_rows, append=True)
    return EXIT_OK


def cmd_heur(args) -> int:
    if args.samples < 1:
        raise ValueError("samples must be at least 1")
    if not args.time_limit >= 0:   # inf is no limit; NaN compares false
        raise ValueError(f"--time-limit must be nonnegative, got {args.time_limit}")
    if args.distribution != "uniform" and not args.method.startswith("hyp"):
        raise ValueError(f"--distribution {args.distribution} applies to the hyperplane "
                         f"methods only, not --method {args.method}")
    g, spec = _load_problem(args.instance, args)
    problem = model.build(g, spec, args.relaxation)
    result = admm.solve(problem, _solver_params(args))
    heur = rounding.round_relaxation(g, result.state.X, spec, args.method,
                                     samples=args.samples, time_limit=args.time_limit,
                                     seed=args.seed, distribution=args.distribution)
    heur.partition.validate_for(spec)
    gap = _pct(heur.ub, _read_bound(args, g, spec, "lb"))
    row = reports.HeurRow(g.name, _k_or_w(spec), heur.method, heur.ub, gap)
    print(f"{row.instance},{row.method},{row.ub:.6f}," +
          ("" if gap is None else f"{gap:.4f}"))
    if args.out:
        reports.write_rows(args.out, [row], append=True)
    if args.detail_out:
        detail = reports.HeurDetailRow(g.name, row.k_or_w, heur.method, heur.ub,
                                       heur.samples_used, heur.elapsed)
        reports.write_rows(args.detail_out, [detail], append=True)
    return EXIT_OK


def cmd_oracle(args) -> int:
    g, spec = _load_problem(args.instance, args)
    if isinstance(spec, KEquipartition):
        res = oracle.brute_force_keq(g, spec.k)
    else:
        res = oracle.brute_force_gpkc(g, spec.a, spec.W)
    row = reports.OracleRow(g.name, res.opt, res.enumerated)
    print(f"{row.instance},{row.opt},{row.enumerated}")
    if args.out:
        reports.write_rows(args.out, [row], append=True)

    lb, ub = _read_bound(args, g, spec, "lb"), _read_bound(args, g, spec, "ub")
    violated = False
    if lb is not None and lb > res.opt + 1e-9:
        print(f"certificate violation: lb {lb} exceeds optimum {res.opt}", file=sys.stderr)
        violated = True
    if ub is not None and ub < res.opt - 1e-9:
        print(f"certificate violation: ub {ub} undercuts optimum {res.opt}", file=sys.stderr)
        violated = True
    return EXIT_CERT_VIOLATION if violated else EXIT_OK


def cmd_report(args) -> int:
    solve_rows: list[reports.SolveRow] = []
    for path in args.solve_csv:
        solve_rows.extend(r for r in reports.read_rows(path) if isinstance(r, reports.SolveRow))
    heur_rows: list[reports.HeurRow | reports.HeurDetailRow] = []
    for path in args.heur_csv:
        heur_rows.extend(r for r in reports.read_rows(path)
                         if isinstance(r, (reports.HeurRow, reports.HeurDetailRow)))

    # lower and upper bounds join on (instance, k or W); the summary shows the last
    # row per relaxation, and the ub must clear the lb of every row
    lbs: dict[tuple[str, str], dict[str, float]] = {}
    top_lb: dict[tuple[str, str], float] = {}
    sizes: dict[str, int] = {}
    for row in solve_rows:
        key = (row.instance, row.k_or_w)
        lbs.setdefault(key, {})[row.relaxation] = row.lb
        top_lb[key] = max(top_lb.get(key, -math.inf), row.lb)
        sizes[row.instance] = row.n
    best_ub: dict[tuple[str, str], tuple[float, str]] = {}
    for row in heur_rows:
        key = (row.instance, row.k_or_w)
        if key not in best_ub or row.ub < best_ub[key][0]:
            best_ub[key] = (row.ub, row.method)

    summary = []
    violated = False
    for (instance, kw), bounds in sorted(lbs.items()):
        lb_sdp = bounds.get("sdp")
        lb_dnn = bounds.get("dnn")
        lb_met = bounds.get("dnn+met")
        ub, ub_method = best_ub.get((instance, kw), (None, None))
        if ub is not None and ub < top_lb[instance, kw] - 1e-9:
            print(f"certificate violation: {instance} at {kw}: ub {ub} undercuts "
                  f"lb {top_lb[instance, kw]}", file=sys.stderr)
            violated = True
        ref = next((v for v in (lb_met, lb_dnn, lb_sdp) if v is not None), None)
        summary.append(reports.SummaryRow(instance, sizes[instance], kw, lb_sdp, lb_dnn,
                                          _pct(lb_dnn, lb_sdp), lb_met, _pct(lb_met, lb_sdp),
                                          ub, ub_method, _pct(ub, ref)))
    if violated:
        return EXIT_CERT_VIOLATION
    reports.write_rows(args.out, summary)
    print(args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpbound",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by several commands, declared once
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--problem", choices=["keq", "gpkc"])
    problem.add_argument("--k", type=int, help="group count (equipartition)")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--eps-tol", dest="eps_tol", type=float,
                        default=admm.AdmmParams.eps_tol)
    solver.add_argument("--max-iter", dest="max_iter", type=int,
                        default=admm.AdmmParams.max_iter)
    lower = argparse.ArgumentParser(add_help=False)
    lower.add_argument("--lb", type=float, help="lower bound for the gap or sandwich")
    lower.add_argument("--lb-csv", dest="lb_csv", help="read the lower bound from a solve CSV")

    p = sub.add_parser("gen", help="generate random instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, nargs="+", default=[0.2, 0.5, 0.8])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gpkc", action="store_true", help="attach vertex weights and a capacity")
    p.add_argument("--k", type=int, help="group count used to calibrate the capacity")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", parents=[problem, solver],
                       help="solve a relaxation and certify a lower bound")
    p.add_argument("--instance", nargs="+", required=True)
    p.add_argument("--relaxation", choices=["sdp", "dnn", "dnn+met"], default="dnn")
    p.add_argument("--m-met", dest="m_met", type=int, default=None)
    p.add_argument("--max-rounds", dest="max_rounds", type=int, default=10)
    p.add_argument("--out", help="append the result row to this CSV")
    p.add_argument("--cert-out", dest="cert_out", help="append the certificate row here")
    p.add_argument("--cuts-out", dest="cuts_out", help="write per-round cut trace here")
    p.add_argument("--trace", help="write an iteration trace CSV")
    p.add_argument("--trace-every", dest="trace_every", type=int, default=100)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("heur", parents=[problem, solver, lower],
                       help="round a relaxation solution to a feasible partition")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=rounding.ROUNDING_METHODS, default="vc+2opt")
    p.add_argument("--distribution", choices=["uniform", "gaussian"], default="uniform",
                   help="direction sampling for hyperplane rounding")
    p.add_argument("--relaxation", choices=["sdp", "dnn"], default="dnn")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--time-limit", dest="time_limit", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="append the result row to this CSV")
    p.add_argument("--detail-out", dest="detail_out",
                   help="append the samples/elapsed detail row here")
    p.set_defaults(func=cmd_heur)

    p = sub.add_parser("oracle", parents=[problem, lower],
                       help="brute-force an instance; check a bound sandwich")
    p.add_argument("--instance", required=True)
    p.add_argument("--ub", type=float)
    p.add_argument("--ub-csv", dest="ub_csv")
    p.add_argument("--out", help="append the oracle row to this CSV")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("report", help="merge result CSVs into a summary table")
    p.add_argument("--solve-csv", dest="solve_csv", nargs="*", default=[])
    p.add_argument("--heur-csv", dest="heur_csv", nargs="*", default=[])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, SpecValidationError) as exc:
        print(f"infeasible or malformed problem data: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except admm.SolverDivergedError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except oracle.OracleSizeError as exc:
        print(f"instance too large for the oracle: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SystemExit:
        raise
    except Exception as exc:  # surfaced with a stable exit code for scripts
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
