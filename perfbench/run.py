"""sincount benchmark: one workload per invocation, one caller, closed loop.

    python3 perfbench/run.py --workload mc-known --seed 1 --seconds 20 --trace 0

Run from the root of a sincount checkout; the library is imported from
src/.  --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
metrics (spans are written to perfbench/out/).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every output check passed.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# fresh-process repeats per run: setup_s probes and CLI probes (traced)
REPEATS = {"full": {"setup": 9, "cli": 3}, "smoke": {"setup": 1, "cli": 1}}
# Set-up normalization.  A fresh process spends its set-up loading shared
# libraries and importing modules, and on a shared machine that slows down
# with the neighbours' load far more than the in-process calibration kernel
# does.  So the set-up probes alternate with fresh `import numpy`
# processes, a fixed cost that no change to sincount can move, and setup_s
# is the median over probes of probe wall / mean wall of the two numpy
# imports around it, times NUMPY_IMPORT_REF_S: the set-up seconds where
# `import numpy` takes that long, about the baseline host when it is quiet.
NUMPY_IMPORT_REF_S = 0.125
PROCESS_TIMEOUT_S = 120


def cap_threads():
    """Cap BLAS/OpenMP threads at nproc before numpy loads; children inherit."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sincount benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(REPEATS), default="full",
                        help="smoke: tiny workloads for the benchmark's own tests")
    return parser.parse_args(argv)


def timed_process(cmd):
    """Wall seconds of a child process from start to exit; raises on failure."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return wall, proc.stdout


def summarize(values):
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 20:
        p = math.floor(100 * (1 - 10 / n))
        out[f"p{p}"] = ordered[math.ceil(p / 100 * n) - 1]
    return out


def describe(summary):
    tail = [f"{k} {v:.6g}" for k, v in summary.items() if k.startswith("p")]
    return ", ".join([f"median of {summary['n']}"] + tail)


def provenance(args, wl, nproc):
    import numpy
    import scipy
    import sincount

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "cpu": cpu, "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "sincount": sincount.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": commit, "workload": args.workload, "seed": args.seed,
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
        "definition_sha": {name: wl.definition_sha(defn)
                           for name, defn in wl.DEFINITIONS[args.size].items()},
    }


def end_to_end(args, wl, defn, built, references, ledger):
    """Untraced run: setup_s, pass_s and peak_rss_mb, plus the report lines.

    setup_s and pass_s are normalized seconds (see NUMPY_IMPORT_REF_S and
    workloads.SpeedProbe).  The report lines also give the raw wall times.
    """
    numpy_cmd = [sys.executable, "-c", "import numpy"]
    numpy_walls = [timed_process(numpy_cmd)[0]]
    setup_wall, setup = [], []
    for _ in range(REPEATS[args.size]["setup"]):
        wall = timed_process([sys.executable, str(HERE / "probe.py"), args.workload,
                              args.size])[0]
        numpy_walls.append(timed_process(numpy_cmd)[0])
        setup_wall.append(wall)
        setup.append(wall * NUMPY_IMPORT_REF_S / statistics.fmean(numpy_walls[-2:]))
    if defn["kind"] == "mc":
        units = wl.run_mc(defn, built, args.seed, args.seconds, references, ledger)
        walls = [c["wall_s"] for c in units]
        completed = sum(c["trials"] - c["degenerate"] for c in units)
        unit_of_pass = f"one estimate() call of {defn['trials']} trials"
        workload_lines = [
            ("trials_per_s", completed / sum(walls), "1/s",
             f"completed trials per wall second of {len(units)} estimate() calls"),
            ("design_s", None, "s", "not measured: no closed-form design")]
    else:
        units = wl.run_theory(defn, built, args.seconds, references, ledger)
        walls = [p["wall_s"] for p in units]
        unit_of_pass = "one closed-form design pass"
        workload_lines = [
            ("trials_per_s", None, "1/s", "not measured: no Monte Carlo"),
            ("design_s", statistics.median(walls), "s",
             describe(summarize(walls)) + " design passes, wall time")]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_sum = summarize(setup)
    pass_sum = summarize([u["norm_s"] for u in units])
    metrics = {
        "setup_s": {"value": setup_sum["median"], "unit": "s"},
        "pass_s": {"value": pass_sum["median"], "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    lines = [
        ("setup_s", setup_sum["median"], "s",
         describe(setup_sum) + " fresh processes (import sincount, build inputs), normalized"),
        ("setup wall", statistics.median(setup_wall), "s", "median wall time of the same"),
        ("pass_s", pass_sum["median"], "s", describe(pass_sum) + f"; {unit_of_pass}, normalized"),
        ("pass wall", statistics.median(walls), "s", describe(summarize(walls)) + ", wall time"),
        *workload_lines,
        ("peak_rss_mb", rss_mb, "MB", "peak resident set of this fresh process"),
        ("error_rate", ledger.error_rate, "1",
         f"{ledger.failed} failed of {ledger.attempted} operations"),
    ]
    return metrics, lines


def per_layer(args, traced, defn, built, references, ledger, prov):
    """Traced run: every per-layer metric; spans go to perfbench/out/."""
    tracer = traced.Tracer()
    values = dict.fromkeys(traced.METRIC_UNITS, 0.0)
    values.update(traced.probe_metrics(built))
    runner = traced.traced_mc if defn["kind"] == "mc" else traced.traced_theory
    layer_values, notes = runner(defn, built, args.seed, args.seconds, references,
                                 ledger, tracer)
    values.update(layer_values)
    cli_walls = [timed_process([sys.executable, "-m", "sincount.cli", "consistency",
                                "--config", str(HERE / "consistency.json")])
                 for _ in range(REPEATS[args.size]["cli"])]
    for _, stdout in cli_walls:
        ok = "kappa_i_inf_exact" in stdout
        ledger.record(1, 0 if ok else 1,
                      [] if ok else [f"sincount consistency printed no ranges: {stdout[:200]!r}"])
    values["cli.consistency_wall_s"] = statistics.median(w for w, _ in cli_walls)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(path, {"provenance": prov, "metrics": values, "notes": notes})
    units = traced.METRIC_UNITS
    metrics = {name: {"value": float(v), "unit": units[name]} for name, v in values.items()}
    lines = [(name, v, units[name], "") for name, v in sorted(values.items())]
    self_s = notes.pop("self_s")
    total = sum(self_s.values())
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append((f"self time {layer}", seconds, "s",
                      f"{100 * seconds / total:.1f}% of the traced replay or pass"))
    lines.append(("spans", len(tracer.spans), "count", f"written to {path.relative_to(ROOT)}"))
    lines.append(("notes", None, "", json.dumps(notes)))
    return metrics, lines


def main(argv=None):
    args = parse_args(argv)
    nproc = cap_threads()
    if not (SRC / "sincount" / "__init__.py").is_file():
        print(f"perfbench: no sincount sources at {SRC}; run from the root of a "
              "sincount checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import traced
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "reference.json").read_text())
    defn = wl.DEFINITIONS[args.size][args.workload]
    prov = provenance(args, wl, nproc)
    ledger = wl.Ledger()
    built = wl.build(defn)
    try:
        if args.trace:
            metrics, lines = per_layer(args, traced, defn, built, references, ledger, prov)
        else:
            metrics, lines = end_to_end(args, wl, defn, built, references, ledger)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"sincount benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, size {args.size}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value, unit, detail in lines:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit:<6} {detail}")
    for message in ledger.messages[:20]:
        print(f"  FAILED {message}")
    correct = ledger.failed == 0 and not ledger.messages
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
