"""Traced runs: per-layer numbers from spans around calls into each module.

Spans (name, start, end, parent) are kept in memory and written out when
the run ends.  The hot distribution callables are too fine-grained for a
span each; their time is accounted to the enclosing span and summed into
counters instead.  Layer names are the module names of sincount.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import statistics
import time
from collections import defaultdict

import numpy as np

import sincount as sc
import workloads as wl

LAYERS = ("montecarlo", "likelihood", "criteria", "distributions", "theory", "tuner")
CRITERION_NAMES = tuple(d["name"] for d in wl.ALL_CRITERIA)
MODES = ("ql", "ml")
# spans below these roots are the traced replay of the workload; other
# top-level spans (the untraced reference calls) stay out of the self times
ROOTS = ("replay", "pass")


class Tracer:
    """In-memory span recorder with counters and wrapped distributions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, accounted child time]
        self._stack = []
        self.counters = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, 0.0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def account(self, counter, seconds):
        """Charge time spent outside any span to the enclosing span."""
        if self._stack:
            self.spans[self._stack[-1]][4] += seconds
        self.counters[counter] += seconds

    def _wrap(self, fn, kind):
        counters = self.counters

        def wrapped(x):
            t0 = time.perf_counter()
            out = fn(x)
            self.account("distributions.kernel_s", time.perf_counter() - t0)
            counters[f"distributions.{kind}_calls"] += 1
            counters[f"distributions.{kind}_points"] += np.size(x)
            return out

        return wrapped

    def wrap_dist(self, dist):
        """Copy of a Dist whose cdf/pdf callables are counted."""
        return dataclasses.replace(dist, cdf=self._wrap(dist.cdf, "cdf"),
                                   pdf=self._wrap(dist.pdf, "pdf"))

    def wrap_dists(self, dist_set):
        """Copy of a ComponentDistSet whose cdf/pdf callables are counted."""
        return dataclasses.replace(dist_set,
                                   dists=tuple(self.wrap_dist(d) for d in dist_set.dists))

    def count_points(self, counter, fn):
        """fn, counting the length of its third argument (the evaluation points)."""
        counters = self.counters

        def wrapped(*args):
            counters[counter] += len(args[2])
            return fn(*args)

        return wrapped

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def total(self, name):
        return float(sum(self.durations(name)))

    def accounted(self, name):
        """Kernel time charged to the spans called name."""
        return float(sum(rec[4] for rec in self.spans if rec[0] == name))

    def _root(self, idx):
        while self.spans[idx][3] is not None:
            idx = self.spans[idx][3]
        return idx

    def self_times(self):
        """Self seconds per layer over the spans below ROOTS.

        A span's self time is its duration minus its child spans and the
        accounted kernel time; accounted kernel time is the distributions
        layer's, and a root's own self time is the benchmark's loop.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, parent, accounted) in enumerate(self.spans):
            if self.spans[self._root(idx)][0] not in ROOTS:
                continue
            layer = "bench" if parent is None else name.split(".")[0]
            out[layer] += end - start - child[idx] - accounted
            out["distributions"] += accounted
        return dict(out)

    def dump(self, path, extra):
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                      for n, s, e, p, _ in self.spans],
            "counters": dict(self.counters),
        }
        doc.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")


@contextlib.contextmanager
def patched(module, name, wrap):
    """Temporarily rebind a module-level name to wrap(original), restored on
    exit.  A name the module no longer has is left alone."""
    if not hasattr(module, name):
        yield None
        return
    original = getattr(module, name)
    replacement = wrap(original)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


def spanned(tracer, span_name, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            return fn(*args, **kwargs)

    return wrapper


def wrapping(wrap, fn):
    """fn, with wrap applied to what it returns."""
    return lambda *args, **kwargs: wrap(fn(*args, **kwargs))


def _metric_units():
    units = {
        "montecarlo.trial_seed_us": "us", "montecarlo.batch_samples_s": "s",
        "montecarlo.noise_ns_per_sample": "ns", "montecarlo.estimate_self_s": "s",
        "montecarlo.trials": "count", "montecarlo.chunks": "count",
        "likelihood.plan_build_ms": "ms", "likelihood.logliks_batch_ns_per_trial": "ns",
        "likelihood.ml_search_ms_p50": "ms", "likelihood.ml_search_ms_p99": "ms",
        "likelihood.ml_grid_points_computed": "count", "likelihood.degenerate": "count",
        "distributions.cdf_calls": "count", "distributions.cdf_points": "count",
        "distributions.pdf_calls": "count", "distributions.pdf_points": "count",
        "distributions.points_per_call": "points", "distributions.kernel_s": "s",
        "distributions.ncx2_cdf_ns_per_point": "ns",
        "theory.component_dists_ml_s": "s", "theory.ql_sweep_s": "s",
        "theory.self_s": "s",
        "tuner.tune_s.pmep-ir": "s", "tuner.tune_s.pmep-i": "s",
        "tuner.objective_evals": "count",
        "cli.consistency_wall_s": "s", "trace.overhead_pct": "%",
    }
    units.update({f"criteria.decision_ns_per_trial.{c}": "ns" for c in CRITERION_NAMES})
    units.update({f"theory.abridged_ms.{c}.{m}": "ms"
                  for c in wl.CLOSED_FORM_NAMES for m in MODES})
    units.update({f"self_pct.{layer}": "%" for layer in LAYERS})
    return units


# every per-layer metric with its unit; work a workload does not do reads 0
METRIC_UNITS = _metric_units()


def _repeat_timing(fn, min_seconds=0.05):
    """Per-call seconds of fn(), repeated until min_seconds have passed."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / calls


def probe_metrics(built):
    """Fixed small timings measured on every workload."""
    scen = next(iter(built["scenarios"].values()))
    seed_batches = []
    for rep in range(11):
        t0 = time.perf_counter()
        for k in range(rep * 500, (rep + 1) * 500):
            sc.trial_seed(12345, k)
        seed_batches.append((time.perf_counter() - t0) / 500)
    freqs = scen.all_frequencies
    builds = [_repeat_timing(lambda: sc.FrequencyPlan.build(scen, freqs), 0.01)
              for _ in range(15)]
    per_point = []
    for s in built["scenarios"].values():
        _, lambdas = sc.residual_means(s, s.all_frequencies)
        for lam in lambdas[lambdas > 0]:
            law = sc.nc_chisq2(float(lam))
            grid = np.linspace(0.0, law.support_hint, 1024)
            per_point.append(_repeat_timing(lambda: law.cdf(grid)) / grid.size)
    return {
        "montecarlo.trial_seed_us": statistics.median(seed_batches) * 1e6,
        "likelihood.plan_build_ms": statistics.median(builds) * 1e3,
        "distributions.ncx2_cdf_ns_per_point": statistics.median(per_point) * 1e9,
    }


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _shares(tracer):
    """(self_pct metrics, self seconds per layer) of the traced replay or pass."""
    selfs = tracer.self_times()
    total = sum(selfs.values())
    if total <= 0:
        return {}, selfs
    return {f"self_pct.{layer}": 100.0 * selfs.get(layer, 0.0) / total
            for layer in LAYERS}, selfs


def replay(tracer, built, snr, trials, seed_value, n_search):
    """estimate()'s pipeline through its public pieces: batch_samples per
    chunk, then logliks_batch (or one ML search per trial, for the first
    n_search trials), then decision_values and argmin_order per criterion.
    Returns the ladders and the number of rows the criteria decided."""
    scen, approach = built["scenarios"][snr], built["approach"]
    known = isinstance(approach, sc.Bl)
    chunk = getattr(sc.montecarlo, "_CHUNK", 65536)
    ladders = np.empty((n_search, scen.max_order))
    with tracer.span("replay"):
        for start in range(0, trials, chunk):
            count = min(chunk, trials - start)
            with tracer.span("montecarlo.batch_samples"):
                samples = sc.batch_samples(scen, seed_value, start, count)
            if known:
                with tracer.span("likelihood.logliks_batch"):
                    ladders[start:start + count] = built["plans"][snr].logliks_batch(samples)
                continue
            for k in range(start, min(start + count, n_search)):
                with tracer.span("likelihood.ml_search"):
                    try:
                        ladders[k] = sc.observation_logliks(samples[k - start], scen, approach)[0]
                    except sc.DegenerateStatsError:
                        ladders[k] = np.nan
        valid = ladders[~np.isnan(ladders[:, 0])]
        for spec in built["specs"]:
            with tracer.span(f"criteria.decision.{spec.name}"):
                sc.argmin_order(sc.decision_values(
                    spec, valid, params_per_signal=approach.params_per_signal))
    return ladders, valid.shape[0]


def traced_mc_call(tracer, defn, built, snr, trials, seed_value):
    """One call: the reference estimate() and collect_logliks(), then the
    replay untraced and traced; their difference is the tracing overhead."""
    scen, approach = built["scenarios"][snr], built["approach"]
    with tracer.span("montecarlo.estimate"):
        record = wl.run_mc_call(built, snr, trials, seed_value)
    with tracer.span("montecarlo.collect_logliks"):
        reference = sc.collect_logliks(scen, approach, trials, seed_value)
    # estimate() minus its ladder collection: rerun it on the collected ladders
    with patched(sc.montecarlo, "collect_logliks", lambda _: lambda *args: reference):
        with tracer.span("montecarlo.estimate_self"):
            sc.estimate(scen, built["specs"], approach, trials, seed_value)
    n_search = trials if isinstance(approach, sc.Bl) else min(defn["replay_trials"], trials)
    t0 = time.perf_counter()
    replay(wl.NullTracer(), built, snr, trials, seed_value, n_search)
    t1 = time.perf_counter()
    # every frequency at which the ML search evaluates its statistic, grid
    # and refinement alike
    with patched(sc.likelihood, "_grid_quadrature_increment",
                 lambda fn: tracer.count_points("likelihood.ml_grid_points", fn)):
        ladders, decided = replay(tracer, built, snr, trials, seed_value, n_search)
    t2 = time.perf_counter()
    equal = bool(np.array_equal(ladders, reference[:n_search], equal_nan=True))
    return record, {"equal": equal, "n_decided": decided,
                    "plain_s": t1 - t0, "traced_s": t2 - t1}


def traced_mc(defn, built, seed, seconds, references, ledger, tracer):
    replays = []

    def call(built, snr, trials, seed_value):
        record, replay = traced_mc_call(tracer, defn, built, snr, trials, seed_value)
        if not replay["equal"]:
            record["error"] = "replayed ladders differ from collect_logliks"
        replays.append(replay)
        return record

    calls = wl.run_mc(defn, built, seed, seconds, references, ledger, call=call)
    known = defn["approach"]["kind"] == "known"
    n_calls = len(calls)
    trials = defn["trials"]
    scen = next(iter(built["scenarios"].values()))
    plain_s = sum(r["plain_s"] for r in replays)
    traced_s = sum(r["traced_s"] for r in replays)
    decided = sum(r["n_decided"] for r in replays)
    batch_s = tracer.total("montecarlo.batch_samples")
    search_ms = [d * 1e3 for d in tracer.durations("likelihood.ml_search")]
    metrics = {
        "montecarlo.batch_samples_s": batch_s / n_calls,
        "montecarlo.noise_ns_per_sample": batch_s / (n_calls * trials * scen.n_samples) * 1e9,
        "montecarlo.estimate_self_s": tracer.total("montecarlo.estimate_self") / n_calls,
        "montecarlo.trials": float(trials),
        "montecarlo.chunks": float(math.ceil(trials / getattr(sc.montecarlo, "_CHUNK", 65536))),
        "likelihood.degenerate": float(sum(c["degenerate"] for c in calls)),
        "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
    }
    for name in CRITERION_NAMES:
        if any(s.name == name for s in built["specs"]):
            metrics[f"criteria.decision_ns_per_trial.{name}"] = (
                tracer.total(f"criteria.decision.{name}") / decided * 1e9)
    if known:
        metrics["likelihood.logliks_batch_ns_per_trial"] = (
            tracer.total("likelihood.logliks_batch") / (n_calls * trials) * 1e9)
    else:
        metrics["likelihood.ml_search_ms_p50"] = statistics.median(search_ms)
        metrics["likelihood.ml_search_ms_p99"] = _percentile(search_ms, 99)
        metrics["likelihood.ml_grid_points_computed"] = (
            tracer.counters["likelihood.ml_grid_points"] / len(search_ms))
    shares, selfs = _shares(tracer)
    metrics.update(shares)
    notes = {"calls": n_calls, "ml_searches": len(search_ms),
             "plain_replay_s": plain_s, "traced_replay_s": traced_s, "self_s": selfs}
    return metrics, notes


def traced_theory(defn, built, seed, seconds, references, ledger, tracer):
    """An untraced design pass, then the traced pass on wrapped laws; the
    two must give identical abridged probabilities."""
    t0 = time.perf_counter()
    plain_results, plain_ops, plain_messages = wl.theory_pass(
        defn, built, wl.NullTracer(), references)
    plain = {"wall_s": time.perf_counter() - t0, "results": plain_results}
    ledger.record(plain_ops, min(len(plain_messages), plain_ops), plain_messages)
    t0 = time.perf_counter()
    with contextlib.ExitStack() as stack:
        # the tuner's objective calls into theory; span them so that tuner
        # self time is the search itself
        for name in ("abridged_pmep_ir", "abridged_pmep_i"):
            stack.enter_context(patched(sc.tuner, name, lambda fn, name=name: spanned(
                tracer, f"theory.tune_objective.{name}", fn)))
        # count every law the pass evaluates: the tuner's and the sweep's
        # component laws and the PMEP-I partial-sum law built inside theory
        stack.enter_context(patched(sc.tuner, "component_dists", lambda fn: spanned(
            tracer, "theory.tune_objective.component_dists", wrapping(tracer.wrap_dists, fn))))
        stack.enter_context(patched(sc.theory, "component_dists",
                                    lambda fn: wrapping(tracer.wrap_dists, fn)))
        stack.enter_context(patched(sc.theory, "_lower_sum_dist",
                                    lambda fn: wrapping(tracer.wrap_dist, fn)))
        with tracer.span("pass"):
            results, ops, messages = wl.theory_pass(defn, built, tracer, references)
    traced_wall = time.perf_counter() - t0
    ledger.record(ops, min(len(messages), ops), messages)
    for key in ("ql", "ml", "sweep", "tune"):
        if results.get(key) != plain["results"].get(key):
            ledger.record(0, max(1, len(results.get(key) or ())),
                          [f"{key} results differ on wrapped laws: "
                           f"{results.get(key)} vs {plain['results'].get(key)}"])
    c = tracer.counters
    calls = c["distributions.cdf_calls"] + c["distributions.pdf_calls"]
    points = c["distributions.cdf_points"] + c["distributions.pdf_points"]
    abridged = [f"theory.abridged.{n}.{m}" for n in wl.CLOSED_FORM_NAMES for m in MODES]
    metrics = {
        "distributions.cdf_calls": c["distributions.cdf_calls"],
        "distributions.cdf_points": c["distributions.cdf_points"],
        "distributions.pdf_calls": c["distributions.pdf_calls"],
        "distributions.pdf_points": c["distributions.pdf_points"],
        "distributions.points_per_call": points / calls if calls else 0.0,
        "distributions.kernel_s": c["distributions.kernel_s"],
        "theory.component_dists_ml_s": tracer.total("theory.component_dists.ml"),
        "theory.ql_sweep_s": tracer.total("theory.ql_sweep"),
        "theory.self_s": sum(tracer.total(n) - tracer.accounted(n) for n in abridged),
        "tuner.objective_evals": float(sum(t["evals"] for t in results["tune"].values())),
        "trace.overhead_pct": 100.0 * (traced_wall - plain["wall_s"]) / plain["wall_s"],
    }
    for n in wl.CLOSED_FORM_NAMES:
        for m in MODES:
            durations = tracer.durations(f"theory.abridged.{n}.{m}")
            if durations:
                metrics[f"theory.abridged_ms.{n}.{m}"] = statistics.fmean(durations) * 1e3
    for family in ("pmep-ir", "pmep-i"):
        metrics[f"tuner.tune_s.{family}"] = tracer.total(f"tuner.tune.{family}")
    shares, selfs = _shares(tracer)
    metrics.update(shares)
    notes = {"plain_pass_s": plain["wall_s"], "traced_pass_s": traced_wall,
             "self_s": selfs,
             "caveat": "building a law (component_dists, the PMEP-I partial-sum law) "
                       "counts as theory time; evaluating it counts as distributions"}
    return metrics, notes
