"""Certified-sandwich benchmark for gpbound.

    python3 perfbench/run.py --workload {keq-eig,gpkc-lp,cli-met,all} \
        --seed N --seconds S --trace {0,1}

One caller, closed loop: each call starts when the previous one returns. A run
first brute-forces tiny instances and checks lb <= opt <= ub (exit 3 on any
violation), then times set-up in fresh interpreters, then runs passes of fresh
instances while another pass still fits in ``--seconds`` (at least MIN_PASSES).
Every lb and ub is checked. End-to-end times are scaled to host speed with a
fixed reference kernel run around every pass (reference.py); the raw wall-clock
medians are printed and recorded beside them. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs each pass untraced and traced and
reports the per-layer metrics from the spans. The last stdout line is one JSON
object; the full record, with the run environment, goes to ``.perfbench-out/``.
``--workload all`` runs each workload in its own process.

Exit codes: 0 done, 1 a bound or partition failed its check (result printed),
2 no gpbound sources in this checkout, 3 oracle gate failed, 4 nothing measured.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1   # one thread measured as fast as two at n=300; pinned before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("keq-eig", "gpkc-lp", "cli-met")

MIN_PASSES = 4        # gap_pct averages exactly these passes, so it is deterministic
MIN_TRACED = 2        # traced runs: untraced + traced pairs
SETUP_REPEATS = 5     # fresh-interpreter set-ups per run; setup_s is their median
PROBE_TIMEOUT_S = 120

END_TO_END = {
    # times are wall seconds scaled to the reference kernel's nominal speed (reference.py)
    "sandwich_s": "s",     # median pass: generated inputs -> every certified lb and checked ub
    "lb_s": "s",           # median pass: the lower-bound part (cli-met: `solve` commands)
    "ub_s": "s",           # median pass: the upper-bound part (cli-met: `heur` commands)
    "setup_s": "s",        # median fresh set-up: import, generate, write/read, build
    "gap_pct": "%",        # mean 100 (ub - lb) / |lb| over the first MIN_PASSES passes
    "ok_share": "share",   # 1 - fail_share: operations that passed every check
    "peak_rss_mb": "MB",   # peak resident memory of the workload's process
}

PER_LAYER = {
    "setup.import_s": "s", "graphs.gen_s": "s", "graphs.io_s": "s", "model.build_s": "s",
    "model.cut_rounds": "count", "model.cuts": "count", "model.round_s": "s",
    "model.separate_ms": "ms", "model.cut_yield": "share",
    "admm.solve_s": "s", "admm.solves": "count", "admm.iterations": "count",
    "admm.sweep_ms": "ms", "admm.pre_sweep_ms": "ms", "admm.converged_share": "share",
    "ref.eigh_ms": "ms", "ref.kernel_ms": "ms",
    "certify.eig_s": "s", "certify.perturbation_pct": "%", "certify.lp_s": "s",
    "certify.lp_feasible_share": "share",
    "rounding.s": "s", "rounding.round_s": "s", "rounding.two_opt_s": "s",
    "rounding.samples": "count", "rounding.two_opt_gain_pct": "%",
    "oracle.s": "s", "oracle.enumerated": "count",
    "cli.gen_s": "s", "cli.solve_s": "s", "cli.heur_s": "s", "cli.report_s": "s",
    "cli.heur_overhead_s": "s",
    "reports.join_mismatches": "count",
    "trace.overhead_pct": "%", "trace.lb_s": "s", "trace.ub_s": "s",
}


def _fail(code: int, message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gpbound").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16], "seed": seed}


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[list[dict], float]:
    """Fresh-interpreter set-ups, and the reference kernel's mean time around them."""
    from reference import reference_seconds

    runs = []
    ref_before = reference_seconds()
    for r in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(workdir / f"setup{r}")],
            cwd=ROOT, text=True, capture_output=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs, 0.5 * (ref_before + reference_seconds())


def eigh_ms(n: int, seed: int) -> float:
    """Bare numpy.linalg.eigh at order n: the floor under one eigendecomposition sweep."""
    import numpy as np

    A = np.random.default_rng(seed).standard_normal((n, n))
    A = A + A.T
    times = []
    for _ in range(9):
        t0 = perf_counter()
        np.linalg.eigh(A)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run_passes(workload, seed, seconds, workdir, traced, ledger):
    """Closed loop over passes, with the reference kernel before each and after the last.

    Returns (untraced passes, traced passes, tracers, reference seconds).
    """
    import spans
    import workloads as wl
    from reference import reference_seconds

    plain, traced_passes, tracers, lengths = [], [], [], []
    t_start = perf_counter()
    refs = [reference_seconds()]
    j = 0
    # a further pass starts only if a typical one still ends within `seconds`
    while j < (MIN_TRACED if traced else MIN_PASSES) or (
            perf_counter() - t_start + statistics.median(lengths) <= seconds):
        t_pass = perf_counter()
        # traced runs alternate which of the two passes of a pair goes first
        modes = ((False, True) if j % 2 == 0 else (True, False)) if traced else (False,)
        for with_trace in modes:
            tr = spans.Tracer() if with_trace else spans.NullTracer()
            sub = workdir / ("traced" if with_trace else "plain")
            sub.mkdir(parents=True, exist_ok=True)
            with tr.span("bench.pass", f"p{j}"):
                res = wl.run_pass(workload, seed, j, sub, tr, ledger)
            if with_trace:
                traced_passes.append(res)
                tracers.append(tr)
            else:
                plain.append(res)
        refs.append(reference_seconds())
        lengths.append(perf_counter() - t_pass)
        j += 1
    return plain, traced_passes, tracers, refs


def end_to_end(plain, refs, setups, setup_ref) -> dict:
    """Medians of times scaled to the nominal reference speed (see reference.py)."""
    from reference import REF_NOMINAL_S

    med = statistics.median
    scales = [2 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    gaps = [g for p in plain[:MIN_PASSES] for g in p.gaps]
    return {
        "sandwich_s": med(p.sandwich_s * c for p, c in zip(plain, scales)),
        "lb_s": med(p.lb_s * c for p, c in zip(plain, scales)),
        "ub_s": med(p.ub_s * c for p, c in zip(plain, scales)),
        "setup_s": med(s["setup_s"] for s in setups) * REF_NOMINAL_S / setup_ref,
        "gap_pct": statistics.fmean(gaps) if gaps else math.nan,
    }


def raw_times(plain, refs, setups) -> dict:
    """Unscaled wall-clock medians and the reference kernel, for the record and table."""
    med = statistics.median
    return {"raw.sandwich_s": med(p.sandwich_s for p in plain),
            "raw.lb_s": med(p.lb_s for p in plain),
            "raw.ub_s": med(p.ub_s for p in plain),
            "raw.setup_s": med(s["setup_s"] for s in setups),
            "ref.kernel_ms": 1e3 * med(refs)}


def per_layer(plain, traced, refs, setups, gate, workload, seed) -> dict:
    import workloads as wl

    med = statistics.median
    out = {name: 0.0 for name in PER_LAYER}
    keys = set().union(*(p.layers for p in traced))
    out.update({k: med(p.layers.get(k, 0.0) for p in traced) for k in keys})
    out.update({
        "setup.import_s": med(s["import_s"] for s in setups),
        "graphs.gen_s": med(s["gen_s"] for s in setups),
        "graphs.io_s": med(s["io_s"] for s in setups),
        "model.build_s": med(s["build_s"] for s in setups),
        "ref.eigh_ms": eigh_ms(wl.largest_n(workload), seed),
        "ref.kernel_ms": 1e3 * med(refs),
        "oracle.s": gate.oracle_s,
        "oracle.enumerated": gate.enumerated,
        "trace.overhead_pct": 100 * med(t.sandwich_s / p.sandwich_s - 1
                                        for p, t in zip(plain, traced)),
        "trace.lb_s": med(t.lb_s for t in traced),
        "trace.ub_s": med(t.ub_s for t in traced),
    })
    return out


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "gpbound" / "__init__.py").is_file():
        return _fail(2, f"no gpbound sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gpbound

    if Path(gpbound.__file__).resolve().parent != (SRC / "gpbound").resolve():
        return _fail(2, f"gpbound imported from {gpbound.__file__}, not from {SRC}")
    import gate as gate_mod
    import spans
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-s{seed}-trace{int(traced)}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        gate = gate_mod.run_gate(seed)
        if gate.violations:
            return _fail(3, "oracle gate failed:\n  " + "\n  ".join(gate.violations))
        setups, setup_ref = measure_setup(workload, seed, workdir)
        ledger = wl.Ledger()
        plain, traced_passes, tracers, refs = run_passes(workload, seed, seconds, workdir,
                                                         traced, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok_share = 1.0 - ledger.failed / ledger.attempted
    if traced:
        values = per_layer(plain, traced_passes, refs, setups, gate, workload, seed)
        units = PER_LAYER
        spans.write_spans(OUT / f"spans-{tag}.json", tracers)
    else:
        values = end_to_end(plain, refs, setups, setup_ref)
        values["ok_share"] = ok_share
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    if not all(math.isfinite(v) for v in values.values()):
        return _fail(4, f"no finite measurement; failures: {ledger.failures[:5]}")
    result = {"correct": not ledger.violations, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    record = {"workload": workload, "seconds": seconds, "trace": int(traced),
              "environment": environment(seed), "result": result,
              "passes": [[p.lb_s, p.ub_s, p.sandwich_s] for p in plain],
              "traced_passes": [[p.lb_s, p.ub_s, p.sandwich_s] for p in traced_passes],
              "gate": {"oracle_s": gate.oracle_s, "enumerated": gate.enumerated,
                       "checks": gate.checks},
              "raw": raw_times(plain, refs, setups), "reference_s": refs,
              "setup_reference_s": setup_ref,
              "setups": setups, "failures": ledger.failures, "violations": ledger.violations}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"# {workload} seed={seed} passes={len(plain)} traced={len(traced_passes)} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']} numpy={env['numpy']} "
          f"scipy={env['scipy']} commit={env['git_commit'] or env['src_sha256']}")
    for name, unit in units.items():
        print(f"{workload:8s} {name:26s} {values[name]:14.6g} {unit}")
    for name, value in record["raw"].items():
        print(f"{workload:8s} {name:26s} {value:14.6g} {name.rsplit('_', 1)[-1]}")
    print(f"{workload:8s} {'fail_share':26s} {1.0 - ok_share:14.6g} share "
          f"({ledger.failed}/{ledger.attempted})")
    for failure in ledger.failures[:5]:
        print(f"#   failed {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb and setup_s are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, text=True, capture_output=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1] if proc.returncode in (0, 1) else lines:
            print(line)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{workload}/{k}": v for k, v in res["metrics"].items()})
    if worst > 1:
        return worst
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
