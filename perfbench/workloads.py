"""The benchmark's three workloads, run through gpbound's public surface only.

A pass runs one fresh grid of instances, with instance seeds derived from the
workload seed and the pass index, and returns its timings, the outcome of every
operation, and per-pass layer metrics. Only names in ``gpbound.__all__``,
``gpbound.cli.main``, ``solve``'s ``callback`` and fields of returned results
are used; CSV files written by the command line are parsed here with ``csv``.
"""
from __future__ import annotations

import csv
import io
import math
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from gpbound import (
    AdmmParams,
    KEquipartition,
    SpecValidationError,
    build_gpkc_dnn,
    build_keq_dnn,
    build_keq_sdp,
    certify_bound,
    cut_value,
    gen_gpkc_instance,
    gen_rand_graph,
    hyp_plus_two_opt,
    hyperplane_round,
    read_instance,
    separate_met,
    solve,
    two_opt_multi,
    vc_plus_two_opt,
    vc_round_gpkc,
    vc_round_keq,
    write_instance,
)
from gpbound.cli import main as cli_main

import spans

WORKLOADS = ("keq-eig", "gpkc-lp", "cli-met")
KEQ_GRID = ((200, 4, 0.8), (200, 8, 0.2), (300, 6, 0.5))    # (n, k, density)
KEQ_HYP = 2                                                   # rounded by hyperplanes
GPKC_GRID = ((50, 0.5, 5), (80, 0.5, 4), (80, 0.2, 4))       # (n, density, k)
CLI_N, CLI_K = 60, 3
CLI_DENSITIES = (0.2, 0.5, 0.8)                               # the defaults of `gpbound gen`
CLI_MAX_ROUNDS = 3
SAMPLES = 1000                                                # `gpbound heur`'s default
SOLVE = AdmmParams(eps_tol=1e-5)
TOL = 1e-6


def instance_seed(seed: int, pass_index: int, i: int) -> int:
    return 10_000 * seed + 10 * pass_index + i


def largest_n(workload: str) -> int:
    return {"keq-eig": max(r[0] for r in KEQ_GRID),
            "gpkc-lp": max(r[0] for r in GPKC_GRID),
            "cli-met": CLI_N}[workload]


# ---------------------------------------------------------------- accounting

@dataclass
class Ledger:
    """Operations attempted; failures (any reason) and sandwich violations."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    def record(self, op: str, reasons: list[str], violations: list[str] = ()) -> None:
        self.attempted += 1
        if reasons or violations:
            self.failures.append(f"{op}: " + "; ".join([*reasons, *violations]))
        self.violations += [f"{op}: {v}" for v in violations]

    @property
    def failed(self) -> int:
        return len(self.failures)


def lb_problems(lb: float | None, ub: float | None) -> tuple[list[str], list[str]]:
    """(failures, sandwich violations) of one lower bound, given the instance's ub."""
    if lb is None:
        return ["no lower bound"], []
    if not math.isfinite(lb):
        return [f"non-finite lb {lb!r}"], []
    if ub is not None and lb > ub + TOL * max(1.0, abs(ub)):
        return [], [f"lb {lb!r} > ub {ub!r}"]
    return [], []


def ub_problems(g, spec, heur) -> list[str]:
    """Sandwich violations of one rounded partition: infeasible, or ub is not its cut."""
    try:
        heur.partition.validate_for(spec)
    except SpecValidationError as exc:
        return [f"partition invalid: {exc}"]
    cut = cut_value(g, heur.partition)
    if abs(cut - heur.ub) > TOL * max(1.0, abs(cut)):
        return [f"ub {heur.ub!r} != cut {cut!r}"]
    return []


def gap_pct(lb: float, ub: float) -> float:
    return 100.0 * (ub - lb) / abs(lb)


# ---------------------------------------------------------------- set-up

@dataclass
class Instance:
    g: object
    spec: object
    problems: dict
    rseed: int


def grid(workload: str, seed: int, pass_index: int) -> list[tuple]:
    """(kind, n, k, density, instance seed) for every instance of one pass."""
    if workload == "keq-eig":
        return [("keq", n, k, d, instance_seed(seed, pass_index, i))
                for i, (n, k, d) in enumerate(KEQ_GRID)]
    if workload == "gpkc-lp":
        return [("gpkc", n, k, d, instance_seed(seed, pass_index, i))
                for i, (n, d, k) in enumerate(GPKC_GRID)]
    # `gpbound gen` draws all densities from one seed
    s = instance_seed(seed, pass_index, 0)
    return [("keq", CLI_N, CLI_K, d, s) for d in CLI_DENSITIES]


def make_instances(workload: str, seed: int, pass_index: int, workdir: Path, tr) -> list[Instance]:
    """Generate, write, read back and build every instance of one pass.

    ``cli-met`` builds both relaxations its commands solve; the library workloads
    build the DNN only.
    """
    out = []
    for i, (kind, n, k, d, s) in enumerate(grid(workload, seed, pass_index)):
        tid = f"p{pass_index}/{i}"
        with tr.span("graphs.gen", tid):
            g, spec = gen_gpkc_instance(n, d, k, s) if kind == "gpkc" else (gen_rand_graph(n, d, s), None)
        path = workdir / f"{g.name}.gp"
        with tr.span("graphs.io", tid):
            write_instance(path, g, spec)
            g, spec = read_instance(path)
        with tr.span("model.build", tid):
            if kind == "gpkc":
                problems = {"dnn": build_gpkc_dnn(g, spec)}
            else:
                spec = KEquipartition.for_graph(n, k)
                problems = {"dnn": build_keq_dnn(g, k)}
                if workload == "cli-met":
                    problems["sdp"] = build_keq_sdp(g, k)
        out.append(Instance(g, spec, problems, s))
    return out


# ---------------------------------------------------------------- passes

@dataclass
class PassResult:
    lb_s: float
    ub_s: float
    sandwich_s: float
    gaps: list[float]
    layers: dict[str, float]


def _mean(xs) -> float:
    xs = list(xs)
    return statistics.fmean(xs) if xs else 0.0


def _share(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def library_pass(workload: str, seed: int, j: int, workdir: Path, tr, ledger: Ledger) -> PassResult:
    """keq-eig / gpkc-lp: solve, certify (auto route) and round every instance."""
    insts = make_instances(workload, seed, j, workdir, tr)
    lb_s = ub_s = 0.0
    gaps, results, certs, heurs, steps = [], [], [], [], []
    for i, inst in enumerate(insts):
        tid = f"p{j}/{i}"
        hyp = workload == "keq-eig" and i == KEQ_HYP
        rounder = hyp_plus_two_opt if hyp else vc_plus_two_opt
        lb_err, ub_err = [], []
        result = cert = heur = None
        with tr.span("bench.instance", tid):
            t0 = perf_counter()
            try:
                with tr.span("admm.solve", tid) as sp:
                    result = solve(inst.problems["dnn"], SOLVE, callback=tr.sweep_callback(sp))
                with tr.span("certify", tid) as sp:
                    cert = certify_bound(inst.problems["dnn"], result)
                    sp["name"] = f"certify.{cert.method}"
            except Exception as exc:  # a failed lb operation, counted below
                lb_err.append(repr(exc))
            t1 = perf_counter()
            if result is not None:
                try:
                    with tr.span(f"rounding.{rounder.__name__}", tid):
                        heur = rounder(inst.g, result.state.X, inst.spec,
                                       samples=SAMPLES, seed=inst.rseed)
                except Exception as exc:  # a failed ub operation, counted below
                    ub_err.append(repr(exc))
            else:
                ub_err.append("no relaxation solution to round")
            t2 = perf_counter()
            lb_s += t1 - t0
            ub_s += t2 - t1
            if tr.enabled and heur is not None:
                steps.append(_round_then_refine(tr, tid, inst, result.state.X, hyp))
        lb = cert.value if cert is not None else None
        ub = heur.ub if heur is not None else None
        reasons, viol = lb_problems(lb, ub) if not lb_err else (lb_err, [])
        ledger.record(f"lb {tid}", reasons, viol)
        ledger.record(f"ub {tid}", ub_err, ub_problems(inst.g, inst.spec, heur) if heur else [])
        if lb is not None and ub is not None and math.isfinite(lb) and lb != 0:
            gaps.append(gap_pct(lb, ub))
        results += [result] if result is not None else []
        certs += [cert] if cert is not None else []
        heurs += [heur] if heur is not None else []

    recorded = getattr(tr, "spans", [])
    eig = [c for c in certs if c.method == "eig" and math.isfinite(c.value) and c.value]
    lp = [c for c in certs if c.method == "lp"]
    layers = {
        "admm.solve_s": spans.total(recorded, "admm.solve"),
        "admm.solves": len(results),
        "admm.iterations": sum(r.iterations for r in results),
        "admm.sweep_ms": spans.median_ms(recorded, "admm.sweep"),
        "admm.pre_sweep_ms": spans.median_ms(recorded, "admm.pre_sweep"),
        "admm.converged_share": _share(sum(r.status == "converged" for r in results), len(results)),
        "certify.eig_s": spans.total(recorded, "certify.eig"),
        "certify.perturbation_pct": _mean(100 * abs(c.perturbation) / abs(c.value) for c in eig),
        "certify.lp_s": spans.total(recorded, "certify.lp"),
        "certify.lp_feasible_share": _share(sum(c.feasible for c in lp), len(lp)),
        "rounding.s": spans.total(recorded, "rounding.vc_plus_two_opt",
                                  "rounding.hyp_plus_two_opt"),
        "rounding.round_s": sum(st[1] for st in steps),
        "rounding.two_opt_s": sum(st[2] for st in steps),
        "rounding.samples": sum(h.samples_used for h in heurs),
        "rounding.two_opt_gain_pct": _mean(100 * (st[0] - h.ub) / st[0]
                                           for st, h in zip(steps, heurs)),
    }
    return PassResult(lb_s, ub_s, lb_s + ub_s, gaps, layers)


def _round_then_refine(tr, tid, inst: Instance, X, hyp: bool) -> tuple[float, float, float]:
    """Traced runs only: the two steps of ``*_plus_two_opt`` as separate calls.

    Runs outside the timed sandwich. The combined call seeds one generator, rounds
    with it and hands it on to 2-opt; doing the same here repeats its work step by
    step. Returns (rounded ub, rounding seconds, 2-opt seconds).
    """
    spec = inst.spec
    rng = np.random.default_rng(inst.rseed)
    t0 = perf_counter()
    if hyp:
        with tr.span("rounding.hyperplane_round", tid):
            base = hyperplane_round(inst.g, X, spec.k, spec.m, samples=SAMPLES, seed=rng)
    elif isinstance(spec, KEquipartition):
        with tr.span("rounding.vc_round_keq", tid):
            base = vc_round_keq(inst.g, X, spec.k, spec.m, samples=SAMPLES, seed=rng)
    else:
        with tr.span("rounding.vc_round_gpkc", tid):
            base = vc_round_gpkc(inst.g, X, spec.a, spec.W, samples=SAMPLES, seed=rng)
    t1 = perf_counter()
    with tr.span("rounding.two_opt_multi", tid):
        two_opt_multi(inst.g, base.partition, spec, seed=rng)
    return base.ub, t1 - t0, perf_counter() - t1


def read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(tr, tid: str, argv: list[str]) -> tuple[int, float, str]:
    """One in-process ``gpbound`` command: (exit code, seconds, captured output)."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with tr.span(f"cli.{argv[0]}", tid), redirect_stdout(buf), redirect_stderr(buf):
            code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        buf.write(f"SystemExit({exc.code!r})")
    except Exception as exc:  # main() maps errors to exit codes; anything else is a failure
        code = 1
        buf.write(repr(exc))
    return code, perf_counter() - t0, buf.getvalue()


def join_mismatches(joined: list[dict], summary: list[dict]) -> int:
    """Instances whose own (n, k, sdp/dnn/dnn+met lb, ub) appears in no summary row.

    ``joined`` is the benchmark's per-instance join; ``dnn+met`` is the last
    cutting round, the value the report documents.
    """
    def same(cell, value) -> bool:
        if value is None:
            return cell in ("", None)
        try:
            x = float(cell)
        except (TypeError, ValueError):
            return False
        return abs(x - value) <= 1e-9 * max(1.0, abs(value))

    def matches(row, inst) -> bool:
        return (row.get("n") == str(inst["n"]) and row.get("k_or_w") == str(inst["k"])
                and same(row.get("lb_sdp"), inst["lb_sdp"])
                and same(row.get("lb_dnn"), inst["lb_dnn"])
                and same(row.get("lb_dnn_met"), inst["lb_met"])
                and same(row.get("ub"), inst["ub"]))

    return sum(not any(matches(row, inst) for row in summary) for inst in joined)


def cli_pass(seed: int, j: int, workdir: Path, tr, ledger: Ledger) -> PassResult:
    """cli-met: the README workflow, `gen` to `report`, as in-process commands."""
    d = workdir / f"p{j}"
    d.mkdir(parents=True, exist_ok=True)
    s = instance_seed(seed, j, 0)
    solve_csv, heur_csv, detail_csv = d / "solve.csv", d / "heur.csv", d / "detail.csv"
    certs_csv, summary_csv = d / "certs.csv", d / "summary.csv"
    secs = {"gen": 0.0, "solve": 0.0, "heur": 0.0, "report": 0.0}
    tid = f"p{j}"

    def command(argv, tid):
        code, dt, out = run_cli(tr, tid, argv)
        secs[argv[0]] += dt
        return [] if code == 0 else [f"exit {code}: {out.strip()[-300:]}"]

    with tr.span("bench.instance", tid):
        err = command(["gen", "--n", str(CLI_N), "--seed", str(s), "--outdir", str(d)], tid)
    names = [f"rand{int(round(100 * x))}_n{CLI_N}_s{s}" for x in CLI_DENSITIES]
    missing = [n for n in names if not (d / f"{n}.gp").exists()]
    ledger.record(f"gen {tid}", err + ([f"missing {missing}"] if missing else []))

    joined, met_rows, separate_ms = [], [], []
    for i, name in enumerate(names):
        itid = f"p{j}/{i}"
        inst = str(d / f"{name}.gp")
        base = ["--instance", inst, "--problem", "keq", "--k", str(CLI_K)]
        lbs, errs = {}, {}
        with tr.span("bench.instance", itid):
            for relax, extra in (
                ("sdp", []),
                ("dnn", ["--cert-out", str(certs_csv)]),
                ("dnn+met", ["--max-rounds", str(CLI_MAX_ROUNDS),
                             "--cuts-out", str(d / f"cuts_{name}.csv")]),
            ):
                before = len(read_csv(solve_csv))
                errs[relax] = command(["solve", *base, "--relaxation", relax,
                                       "--out", str(solve_csv), *extra], itid)
                rows = read_csv(solve_csv)[before:]
                lbs[relax] = [float(r["lb"]) for r in rows]
                met_rows += rows if relax == "dnn+met" else []
            before = len(read_csv(heur_csv))
            herr = command(["heur", *base, "--method", "vc+2opt", "--time-limit", "inf",
                            "--seed", str(s + i), "--lb-csv", str(solve_csv),
                            "--out", str(heur_csv), "--detail-out", str(detail_csv)], itid)
        hrows = read_csv(heur_csv)[before:]
        ub = float(hrows[-1]["ub"]) if hrows else None
        if ub is None or not math.isfinite(ub):
            herr = herr + [f"no finite ub in {heur_csv.name}"]
        ledger.record(f"heur {itid}", herr)
        for relax, vals in lbs.items():
            reasons, viol = list(errs[relax]), []
            for lb in vals or [None]:
                r, v = lb_problems(lb, ub)
                reasons += r
                viol += v
            ledger.record(f"solve {relax} {itid}", reasons, viol)
        dnn_lbs = lbs["dnn"] + lbs["dnn+met"]
        best = max(dnn_lbs) if dnn_lbs else None
        if best is not None and ub is not None and math.isfinite(best) and best != 0:
            joined.append({"n": CLI_N, "k": CLI_K, "ub": ub,
                           "lb_sdp": lbs["sdp"][-1] if lbs["sdp"] else None,
                           "lb_dnn": lbs["dnn"][-1] if lbs["dnn"] else None,
                           "lb_met": lbs["dnn+met"][-1] if lbs["dnn+met"] else None,
                           "gap": gap_pct(best, ub)})
        if tr.enabled:
            separate_ms.append(_separate_probe(tr, itid, inst))

    with tr.span("bench.instance", tid):
        err = command(["report", "--solve-csv", str(solve_csv), "--heur-csv", str(heur_csv),
                       "--out", str(summary_csv)], tid)
    mismatches = join_mismatches(joined, read_csv(summary_csv))
    if mismatches:
        err.append(f"{mismatches} instance(s) misjoined in {summary_csv.name}")
    ledger.record(f"report {tid}", err)

    lb_s, ub_s = secs["solve"], secs["heur"]
    layers = _cli_layers(read_csv(solve_csv), met_rows, read_csv(certs_csv),
                         read_csv(detail_csv), d, names, secs)
    layers["model.separate_ms"] = _mean(separate_ms)
    layers["reports.join_mismatches"] = mismatches
    return PassResult(lb_s, ub_s, sum(secs.values()), [r["gap"] for r in joined], layers)


def _separate_probe(tr, tid: str, inst_path: str) -> float:
    """Traced runs only: one `separate_met` on the DNN optimum, as round 1 would see it."""
    g, _ = read_instance(inst_path)
    result = solve(build_keq_dnn(g, CLI_K), SOLVE)
    t0 = perf_counter()
    with tr.span("model.separate_met", tid):
        separate_met(result.state.X, 2 * g.n)
    return 1e3 * (perf_counter() - t0)


def _cli_layers(solve_rows, met_rows, cert_rows, detail_rows, d: Path, names, secs) -> dict:
    """Layer metrics the CLI exposes through its CSV files.

    The commands give no callback, so solver time is the rows' ``cpu_seconds``
    (CPU time of the solve for sdp/dnn; wall time of solve and certificate for a
    cutting round) and the sweep time is that divided by the iterations.
    """
    single = [r for r in solve_rows if r["relaxation"] != "dnn+met"]
    cut_files = [read_csv(d / f"cuts_{name}.csv") for name in names]
    by_round = [int(r["round"]) for rows in cut_files for r in rows]
    cuts = [int(rows[-1]["cuts"]) for rows in cut_files if rows]
    later = [r for r, rnd in zip(met_rows, by_round) if rnd >= 1]
    raised = sum(float(cur["lb"]) > float(prev["lb"])
                 for prev, cur, rnd in zip(met_rows, met_rows[1:], by_round[1:]) if rnd >= 1)
    elapsed = sum(float(r["elapsed_s"]) for r in detail_rows)
    return {
        "admm.solve_s": sum(float(r["cpu_seconds"]) for r in solve_rows),
        "admm.solves": len(solve_rows),
        "admm.iterations": sum(int(r["iterations"]) for r in solve_rows),
        "admm.sweep_ms": statistics.median(1e3 * float(r["cpu_seconds"]) / int(r["iterations"])
                                           for r in single) if single else 0.0,
        "admm.converged_share": _share(sum(r["status"] == "converged" for r in solve_rows),
                                       len(solve_rows)),
        "certify.perturbation_pct": _mean(
            100 * abs(float(r["perturbation"])) / abs(float(r["bound"])) for r in cert_rows
            if r["perturbation"] and math.isfinite(float(r["bound"])) and float(r["bound"])),
        "model.cut_rounds": len(later),
        "model.cuts": sum(cuts),
        "model.round_s": _mean(float(r["cpu_seconds"]) for r in later),
        "model.cut_yield": _share(raised, len(later)),
        "rounding.s": elapsed,
        "rounding.samples": sum(int(r["samples"]) for r in detail_rows),
        "cli.gen_s": secs["gen"],
        "cli.solve_s": secs["solve"],
        "cli.heur_s": secs["heur"],
        "cli.report_s": secs["report"],
        "cli.heur_overhead_s": secs["heur"] - elapsed,
    }


def run_pass(workload: str, seed: int, j: int, workdir: Path, tr, ledger: Ledger) -> PassResult:
    if workload == "cli-met":
        return cli_pass(seed, j, workdir, tr, ledger)
    return library_pass(workload, seed, j, workdir, tr, ledger)
