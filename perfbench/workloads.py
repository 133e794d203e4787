"""Workload definitions, the untraced workload loops and the output checks.

Every input the library sees is built here from a workload definition and
the benchmark's workload seed: scenarios, criteria and per-call master
seeds.  The definitions are plain data so that each can be hashed into the
run's provenance.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import signal
import statistics
import time

import numpy as np
from scipy.special import gammainc

import sincount as sc

ALL_CRITERIA = (
    {"name": "gic"},
    {"name": "eef"},
    {"name": "pmep-ir", "kappa_ir": 0.25},
    {"name": "pmep-i", "kappa_i": 3.0},
)
CLOSED_FORM = (
    {"name": "gic"},
    {"name": "pmep-ir", "kappa_ir": 0.25},
    {"name": "pmep-i", "kappa_i": 3.0},
)
CLOSED_FORM_NAMES = tuple(d["name"] for d in CLOSED_FORM)
# delta grid of acceptance criterion 10
SWEEP_DELTAS = (0.0, 0.001, 0.002, 0.003, 0.004, 0.006, 0.008, 0.012, 0.016,
                0.02, 0.025, 0.03)
# tuned-penalty intervals of acceptance criterion 09
PAPER_INTERVALS = {"pmep-ir": (0.15, 0.35), "pmep-i": (2.0, 4.0)}
ML_APPROACH = {"kind": "ml", "grid_points": 256, "refine_tol": 1e-6}

# Tolerances of the output checks.  Theory values are compared with frozen
# references at the quadrature target of the abridged formulas (1e-6, the
# tolerance of the frozen values in tests/test_theory.py); the ML-mode laws
# come from an interpolated convolution grid and get a looser bound.
QL_PA_TOL = 1e-6
ML_PA_TOL = 1e-4
TUNE_OBJECTIVE_TOL = 1e-5
CONSISTENCY_RTOL = 1e-9
# Monte Carlo p_e against a reference run: z-score bound of the difference of
# two independent binomial estimates, plus a small absolute slack.
ML_PE_Z = 5.0
ML_PE_SLACK = 1e-3
DEGENERATE_LIMIT = 0.01

DEFINITIONS = {
    "full": {
        "mc-known": {
            "kind": "mc", "snr_db": [-4.0, 0.0, 4.0], "trials": 70001,
            "approach": {"kind": "known"}, "criteria": ALL_CRITERIA,
        },
        "mc-ml": {
            "kind": "mc", "snr_db": [-4.0, 0.0], "trials": 400,
            "approach": ML_APPROACH, "criteria": ALL_CRITERIA,
            "replay_trials": 200,
        },
        "theory-design": {
            "kind": "theory", "ql_snr_db": [-4.0, 0.0, 4.0],
            "criteria": CLOSED_FORM,
            "sweep": {"snr_db": 0.0, "criterion": CLOSED_FORM[1],
                      "deltas": SWEEP_DELTAS},
            "tune": [
                {"family": "pmep-ir", "snr_db": -4.0, "range": [0.05, 0.6],
                 "grid_points": 12, "refine": True},
                {"family": "pmep-i", "snr_db": -4.0, "range": [1.5, 5.0],
                 "grid_points": 4, "refine": False},
            ],
            "ml_snr_db": -4.0, "consistency_snr_db": -4.0,
        },
    },
    # a few seconds per workload: exercises every code path and metric
    "smoke": {
        "mc-known": {
            "kind": "mc", "snr_db": [0.0], "trials": 1001,
            "approach": {"kind": "known"}, "criteria": ALL_CRITERIA,
        },
        "mc-ml": {
            "kind": "mc", "snr_db": [0.0], "trials": 100,
            "approach": ML_APPROACH, "criteria": ALL_CRITERIA,
            "replay_trials": 20,
        },
        "theory-design": {
            "kind": "theory", "ql_snr_db": [-4.0],
            "criteria": CLOSED_FORM[:2],
            "sweep": {"snr_db": 0.0, "criterion": CLOSED_FORM[1],
                      "deltas": SWEEP_DELTAS[:3]},
            "tune": [
                {"family": "pmep-ir", "snr_db": -4.0, "range": [0.05, 0.6],
                 "grid_points": 12, "refine": False},
            ],
            "ml_snr_db": -4.0, "consistency_snr_db": -4.0,
        },
    },
}
WORKLOADS = tuple(DEFINITIONS["full"])


def definition_sha(defn):
    """Short hash of a workload definition, for provenance."""
    canon = json.dumps(defn, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def snr_key(snr):
    return f"{float(snr):+.1f}"


def make_spec(doc):
    kwargs = {k: v for k, v in doc.items() if k != "name"}
    return sc.CRITERIA[doc["name"]](**kwargs)


def make_approach(doc):
    if doc["kind"] == "known":
        return sc.KNOWN_FREQ
    return sc.Ml(grid_points=doc["grid_points"], refine_tol=doc["refine_tol"])


def master_seed(seed, call):
    """Master seed of the call-th estimate() call of a run."""
    state = np.random.SeedSequence((int(seed), int(call))).generate_state(1, np.uint32)
    return int(state[0])


def build(defn):
    """Scenarios, criteria, approach, frequency plans and laws of a workload.

    This is the state a user builds before the first timed call; setup_s
    measures it in a fresh process.
    """
    if defn["kind"] == "mc":
        approach = make_approach(defn["approach"])
        scenarios = {snr: sc.standard_scenario(snr) for snr in defn["snr_db"]}
        plans = {}
        if isinstance(approach, sc.Bl):
            plans = {snr: sc.FrequencyPlan.build(
                s, sc.approach_frequencies(s, approach))
                for snr, s in scenarios.items()}
        return {"scenarios": scenarios, "approach": approach, "plans": plans,
                "specs": [make_spec(d) for d in defn["criteria"]]}
    snrs = set(defn["ql_snr_db"]) | {defn["ml_snr_db"], defn["sweep"]["snr_db"],
                                     defn["consistency_snr_db"]}
    snrs |= {t["snr_db"] for t in defn["tune"]}
    scenarios = {snr: sc.standard_scenario(snr) for snr in sorted(snrs)}
    return {
        "scenarios": scenarios,
        "specs": [make_spec(d) for d in defn["criteria"]],
        "ql_dists": {snr: sc.component_dists(scenarios[snr], mode="ql")
                     for snr in defn["ql_snr_db"]},
        "ml_dists": sc.component_dists(scenarios[defn["ml_snr_db"]], mode="ml"),
    }


# Machine-speed normalization.  On a shared machine the same call can take
# 30-80% longer while neighbours are busy, and such phases outlast a run, so
# no statistic of wall times alone is steady from run to run.  While a
# workload runs, a timer signal every PROBE_INTERVAL_S runs a fixed
# calibration kernel (numpy, scipy.special and interpreter work; no sincount
# code) and records how long it took.  A timed section's normalized time is
# its wall time, less the kernel's own time, scaled by CAL_REF_S over the
# mean kernel time seen during the section: the seconds it would take where
# the kernel takes CAL_REF_S, about the baseline host when it is quiet.
CAL_REF_S = 0.002
PROBE_INTERVAL_S = 0.1
_CAL_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def calibrate():
    """Seconds taken by the fixed calibration kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(60):
        x = np.random.Generator(np.random.Philox(key=k)).standard_normal(64)
        y = _CAL_MATRIX @ x
        acc += float(gammainc(2.5, np.abs(y)).sum())
        for v in y[:16]:
            acc += v * v
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that samples the calibration kernel on SIGALRM and
    converts the wall time of sections run inside it to normalized time."""

    def __enter__(self):
        self.samples = [statistics.median(calibrate() for _ in range(15))]
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        if not self._busy:
            self._busy = True
            self.samples.append(calibrate())
            self._busy = False

    @contextlib.contextmanager
    def section(self):
        """Yields a dict that holds wall_s and norm_s once the section ends."""
        out = {}
        n0 = len(self.samples)
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            wall = time.perf_counter() - t0
            seen = self.samples[n0:]
            out["wall_s"] = wall - sum(seen)
            speed = statistics.fmean(seen or self.samples[-5:])
            out["norm_s"] = out["wall_s"] * CAL_REF_S / speed


class Ledger:
    """Attempted and failed operations plus the messages of failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ops, failed_ops, messages=()):
        self.attempted += int(ops)
        self.failed += int(failed_ops)
        self.messages.extend(messages)

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------- Monte Carlo

def check_mc_call(snr, reports, theory_ref):
    """Per-call checks: p_a <= p_e, correct implies abridged-correct, and
    (known frequencies) p_a within 3 se + 1e-3 of the abridged theory."""
    messages = []
    for rep in reports:
        name = rep.criterion.name
        if not rep.p_a <= rep.p_e + 1e-15:
            messages.append(f"{name}@{snr:+.0f}dB p_a {rep.p_a} > p_e {rep.p_e}")
        if not np.all(rep.correct <= rep.abridged_correct):
            messages.append(f"{name}@{snr:+.0f}dB correct not within abridged-correct")
        if theory_ref is not None and name in theory_ref:
            ref = theory_ref[name]
            se = math.sqrt(rep.p_a * (1.0 - rep.p_a) / rep.trials)
            tol = 3.0 * se + 1e-3
            if not abs(rep.p_a - ref) <= tol:
                messages.append(f"{name}@{snr:+.0f}dB p_a {rep.p_a:.5f} vs "
                                f"theory {ref:.5f} beyond {tol:.2e}")
    return messages


def ml_pe_tolerance(p_ref, n, n_ref):
    return ML_PE_Z * math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / n + 1.0 / n_ref)) + ML_PE_SLACK


def check_ml_pooled(calls, reference):
    """Pooled p_e per (SNR, criterion) against the recorded ML reference run.

    Returns {snr: [messages]}.
    """
    out = {}
    for snr in sorted({c["snr"] for c in calls}):
        group = [c for c in calls if c["snr"] == snr and c["reports"]]
        ref = reference["p_e"][snr_key(snr)]
        messages = []
        names = [r.criterion.name for r in group[0]["reports"]] if group else []
        for j, name in enumerate(names):
            n = sum(c["reports"][j].trials for c in group)
            errors = sum(c["reports"][j].p_e * c["reports"][j].trials for c in group)
            p_hat = errors / n
            tol = ml_pe_tolerance(ref[name], n, reference["trials"])
            if not abs(p_hat - ref[name]) <= tol:
                messages.append(f"ml {name}@{snr:+.0f}dB p_e {p_hat:.4f} vs reference "
                                f"{ref[name]:.4f} beyond {tol:.4f} (n={n})")
        out[snr] = messages
    return out


def run_mc_call(built, snr, trials, seed_value, probe=None):
    """One timed estimate() call; returns the call record."""
    error = None
    with (probe.section() if probe else contextlib.nullcontext({})) as timing:
        t0 = time.perf_counter()
        try:
            reports = sc.estimate(built["scenarios"][snr], built["specs"],
                                  built["approach"], trials, seed_value)
        except sc.SincountError as exc:
            reports, error = [], f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    degenerate = reports[0].degenerate if reports else 0
    return {"snr": snr, "trials": trials, "master_seed": seed_value,
            "wall_s": timing.get("wall_s", wall), "norm_s": timing.get("norm_s"),
            "reports": reports, "degenerate": degenerate, "error": error}


def settle_mc(defn, calls, references, ledger):
    """Check every call, then charge the ledger: degenerate trials and every
    trial of a call that raised or failed a check count as failed."""
    known = defn["approach"]["kind"] == "known"
    failed_calls = {}
    for k, call in enumerate(calls):
        msgs = [f"call {k}: {call['error']}"] if call["error"] else []
        if call["reports"]:
            theory_ref = references["theory"]["ql"].get(snr_key(call["snr"])) if known else None
            msgs += check_mc_call(call["snr"], call["reports"], theory_ref)
        if call["degenerate"] > DEGENERATE_LIMIT * call["trials"]:
            msgs.append(f"call {k}: {call['degenerate']} of {call['trials']} trials degenerate")
        if msgs:
            failed_calls[k] = msgs
    if not known:
        pooled = check_ml_pooled([c for c in calls if not c["error"]], references["mc-ml"])
        for k, call in enumerate(calls):
            if pooled.get(call["snr"]):
                failed_calls.setdefault(k, []).extend(pooled[call["snr"]])
    for k, call in enumerate(calls):
        if k in failed_calls:
            ledger.record(call["trials"], call["trials"], failed_calls[k])
        else:
            ledger.record(call["trials"], call["degenerate"])


def run_mc(defn, built, seed, seconds, references, ledger, call=None):
    """Closed loop of estimate() calls, one caller, cycling over the SNR grid
    until `seconds` have passed and every SNR ran at least once.  `call`
    makes one call and returns its record (the traced run passes its own);
    by default each call is timed under a SpeedProbe."""
    snrs = defn["snr_db"]
    calls = []
    with (contextlib.nullcontext() if call else SpeedProbe()) as probe:
        if call is None:

            def call(*args):
                return run_mc_call(*args, probe=probe)

        start = time.perf_counter()
        k = 0
        while k < len(snrs) or time.perf_counter() - start < seconds:
            calls.append(call(built, snrs[k % len(snrs)], defn["trials"],
                              master_seed(seed, k)))
            k += 1
    settle_mc(defn, calls, references, ledger)
    return calls


# --------------------------------------------------------------------- theory

class NullTracer:
    """Stand-in for the tracer where nothing is recorded."""

    def span(self, name):
        return contextlib.nullcontext()

    def wrap_dists(self, dist_set):
        return dist_set


def _close(value, ref, tol):
    return abs(float(value) - float(ref)) <= tol


def theory_pass(defn, built, tracer, references):
    """One closed-form design pass.  Returns (results, ops, messages).

    An operation is one abridged probability (including each sweep point),
    one tune call, or the consistency range; it fails when it raises a
    SincountError or its output check fails.
    """
    ref = references["theory"]
    scenarios = built["scenarios"]
    results = {"ql": {}, "ml": {}}
    ops = 0
    messages = []

    def attempt(label, fn, count=1):
        nonlocal ops
        ops += count
        try:
            return fn()
        except sc.SincountError as exc:
            messages.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(label, ok, detail):
        if not ok:
            messages.append(f"{label}: {detail}")
        return ok

    for snr in defn["ql_snr_db"]:
        with tracer.span("theory.component_dists.ql"):
            dists = sc.component_dists(scenarios[snr], mode="ql")
        dists = tracer.wrap_dists(dists)
        row = results["ql"][snr_key(snr)] = {}
        for spec in built["specs"]:
            with tracer.span(f"theory.abridged.{spec.name}.ql"):
                rep = attempt(f"abridged {spec.name}@{snr:+.0f}dB",
                              lambda: sc.abridged_for(dists, spec))
            if rep is not None:
                row[spec.name] = rep.p_a
                want = ref["ql"][snr_key(snr)][spec.name]
                check(f"abridged {spec.name}@{snr:+.0f}dB", _close(rep.p_a, want, QL_PA_TOL),
                      f"p_a {rep.p_a!r} vs reference {want!r}")

    sweep_def = defn["sweep"]
    deltas = list(sweep_def["deltas"])
    with tracer.span("theory.ql_sweep"):
        sweep = attempt("ql_sweep", lambda: sc.ql_sweep(
            scenarios[sweep_def["snr_db"]], make_spec(sweep_def["criterion"]), deltas),
            count=len(deltas))
    if sweep is not None:
        results["sweep"] = [float(p) for p in sweep.p_a]
        for delta, p, want in zip(deltas, sweep.p_a, ref["sweep"]):
            check(f"ql_sweep delta={delta}", _close(p, want, QL_PA_TOL),
                  f"p_a {p!r} vs reference {want!r}")

    results["tune"] = {}
    for tdef in defn["tune"]:
        family = tdef["family"]
        with tracer.span(f"tuner.tune.{family}"):
            res = attempt(f"tune {family}", lambda: sc.tune(
                family, scenarios[tdef["snr_db"]], search_range=tuple(tdef["range"]),
                grid_points=tdef["grid_points"], refine=tdef["refine"]))
        if res is None:
            continue
        results["tune"][family] = {"kappa_opt": res.kappa_opt,
                                   "objective_value": res.objective_value,
                                   "evals": int(res.search_trace.shape[0])}
        lo, hi = PAPER_INTERVALS[family]
        label = f"tune {family}"
        check(label, lo <= res.kappa_opt <= hi and res.consistency_ok,
              f"kappa {res.kappa_opt:.4f} outside paper interval [{lo}, {hi}] "
              f"or inconsistent ({res.consistency_ok})")
        tref = ref["tune"][family]
        if tdef["refine"]:
            check(label, _close(res.objective_value, tref["objective_value"],
                                TUNE_OBJECTIVE_TOL),
                  f"objective {res.objective_value!r} vs reference {tref['objective_value']!r}")
        elif [k for k, _ in tref["trace"]] == [float(k) for k in res.search_trace[:, 0]]:
            check(label, all(_close(v, w, QL_PA_TOL) for (_, w), v in
                             zip(tref["trace"], res.search_trace[:, 1])),
                  "grid objective values differ from the reference trace")

    ml_snr = defn["ml_snr_db"]
    with tracer.span("theory.component_dists.ml"):
        ml_dists = attempt("component_dists ml",
                           lambda: sc.component_dists(scenarios[ml_snr], mode="ml"), count=0)
    if ml_dists is not None:
        ml_dists = tracer.wrap_dists(ml_dists)
        for spec in built["specs"]:
            with tracer.span(f"theory.abridged.{spec.name}.ml"):
                rep = attempt(f"abridged {spec.name} ml", lambda: sc.abridged_for(
                    ml_dists, spec, params_per_signal=3))
            if rep is not None:
                results["ml"][spec.name] = rep.p_a
                want = ref["ml"][spec.name]
                check(f"abridged {spec.name} ml", _close(rep.p_a, want, ML_PA_TOL),
                      f"p_a {rep.p_a!r} vs reference {want!r}")

    cscen = scenarios[defn["consistency_snr_db"]]
    with tracer.span("theory.consistency_range"):
        ranges = attempt("consistency_range", lambda: sc.consistency_range(
            sc.residual_means(cscen, cscen.all_frequencies)[1][:cscen.nu0],
            cscen.max_order, cscen.nu0))
    if ranges is not None:
        for field, want in ref["consistency"].items():
            got = getattr(ranges, field)
            check(f"consistency {field}", abs(got - want) <= CONSISTENCY_RTOL * abs(want),
                  f"{got!r} vs reference {want!r}")
    return results, ops, messages


def run_theory(defn, built, seconds, references, ledger):
    """Repeat the design pass until `seconds` have passed (at least once)."""
    passes = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            with probe.section() as timing:
                results, ops, messages = theory_pass(defn, built, NullTracer(), references)
            passes.append({**timing, "results": results, "ops": ops})
            ledger.record(ops, min(len(messages), ops), messages)
    return passes
