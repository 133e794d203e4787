"""Reproducible experiment runner.

One JSON config document drives every subcommand; outputs are CSV tables
(with a # metadata line carrying the config hash and seed) or JSON
documents mirroring the report dataclasses, so runs are traceable back to
their exact configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys

import numpy as np

from . import montecarlo, theory, tuner
from .criteria import CRITERIA, Eef
from .errors import SincountError, ValidationError, finite_float, nonneg_int
from .likelihood import Bl, Ml, approach_frequencies
from .signal_model import (scenario_from_dict, standard_scenario, synthesize,
                           with_snr_db)


def config_sha(doc):
    """Short stable hash of the canonical config serialization."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config: invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config: top level must be an object")
    return doc


def _object(value, key):
    """A config section that must be a JSON object."""
    if not isinstance(value, dict):
        raise ValidationError(f"{key} must be an object, got {value!r}")
    return value


def _bool(value, key):
    """A config flag: JSON true or false only (bool("false") is true)."""
    if not isinstance(value, bool):
        raise ValidationError(f"{key} must be true or false, got {value!r}")
    return value


def _numbers(values, key):
    if not isinstance(values, list) or not values:
        raise ValidationError(f"{key} must be a nonempty list of numbers, got {values!r}")
    return [finite_float(v, f"{key}[{j}]") for j, v in enumerate(values)]


# keys of scenario.standard beside snr_db: standard_scenario's parameters
# after the SNR
_STANDARD_KEYS = tuple(inspect.signature(standard_scenario).parameters)[1:]


def build_scenario(doc):
    if "scenario" not in doc:
        raise ValidationError("scenario: required")
    node = _object(doc["scenario"], "scenario")
    if "standard" in node:
        std = dict(_object(node["standard"], "scenario.standard"))
        if "snr_db" not in std:
            raise ValidationError("scenario.standard.snr_db: required")
        snr = finite_float(std.pop("snr_db"), "scenario.standard.snr_db")
        for key in std:
            if key not in _STANDARD_KEYS:
                raise ValidationError(f"scenario.standard.{key}: unknown key")
        return standard_scenario(snr, **std)
    try:
        return scenario_from_dict(node)
    except ValidationError as exc:
        raise ValidationError(f"scenario: {exc}") from exc


def build_criteria(doc):
    specs = []
    nodes = doc.get("criteria", [])
    if not isinstance(nodes, list):
        raise ValidationError(f"criteria must be a list of objects, got {nodes!r}")
    for j, node in enumerate(nodes):
        path = f"criteria[{j}]"
        _object(node, path)
        if "name" not in node:
            raise ValidationError(f"{path}.name: required")
        name = node["name"]
        if name not in CRITERIA:
            raise ValidationError(
                f"{path}.name: unknown criterion {name!r} "
                f"(choices: {sorted(CRITERIA)})")
        kwargs = {k: v for k, v in node.items() if k != "name"}
        try:
            specs.append(CRITERIA[name](**kwargs))
        except (TypeError, ValidationError) as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    if not specs:
        raise ValidationError("criteria: at least one criterion required")
    return specs


_APPROACH_KEYS = {"known": set(), "bl": {"delta_omega", "frequencies"},
                  "ml": {"grid_points", "refine_tol"}}


def build_approach(doc):
    node = _object(doc.get("approach", {"kind": "known"}), "approach")
    kind = node.get("kind", "known")
    if kind not in _APPROACH_KEYS:
        raise ValidationError(f"approach.kind: unknown kind {kind!r}")
    unread = set(node) - _APPROACH_KEYS[kind] - {"kind"}
    if kind == "bl" and "frequencies" in node:
        # explicit frequencies replace the offset rule
        unread |= {"delta_omega"} & set(node)
    if unread:
        raise ValidationError(f"approach: kind {kind!r} does not read {sorted(unread)}")
    if kind == "known":
        return Bl(0.0)
    if kind == "bl":
        if "frequencies" in node:
            return Bl(frequencies=tuple(_numbers(node["frequencies"], "approach.frequencies")))
        return Bl(delta_omega=finite_float(node.get("delta_omega", 0.0), "approach.delta_omega"))
    return Ml(grid_points=nonneg_int(node.get("grid_points", 256), "approach.grid_points"),
              refine_tol=finite_float(node.get("refine_tol", 1e-6), "approach.refine_tol"))


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(out, fmt, command, sha, seed, columns, rows):
    """Emit one table to a path (or stdout when out is None)."""
    if fmt == "csv":
        lines = [f"# sincount {command} config_sha={sha} seed={seed}"]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({
            "subcommand": command,
            "config_sha": sha,
            "seed": seed,
            "columns": list(columns),
            "rows": [list(row) for row in rows],
        }, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _snr_grid(args, doc):
    if args.snr_db:
        try:
            grid = [float(v) for v in args.snr_db.split(",")]
        except ValueError:
            raise ValidationError(
                f"--snr-db must be comma-separated numbers, got {args.snr_db!r}") from None
        return _numbers(grid, "--snr-db")
    grid = doc.get("snr_grid_db")
    if not grid:
        raise ValidationError("snr_grid_db: required (or pass --snr-db)")
    return _numbers(grid, "snr_grid_db")


def _delta_grid(doc):
    grid = doc.get("delta_omega_grid")
    if not grid:
        raise ValidationError("delta_omega_grid: required")
    return _numbers(grid, "delta_omega_grid")


def _seed(args, doc):
    seed = args.seed if args.seed is not None else doc.get("master_seed", 0)
    return nonneg_int(seed, "master_seed")


def _trials(args, doc, default=100000):
    trials = args.trials if args.trials is not None else doc.get("trials", default)
    return nonneg_int(trials, "trials")


def cmd_synth(args, doc, sha):
    scenario = build_scenario(doc)
    seed = _seed(args, doc)
    obs = synthesize(scenario, seed)
    rows = [(t + 1, float(x)) for t, x in enumerate(obs.samples)]
    write_table(args.out, args.format, "synth", sha, seed, ("t", "x"), rows)
    return 0


def cmd_mc(args, doc, sha):
    scenario = build_scenario(doc)
    specs = build_criteria(doc)
    approach = build_approach(doc)
    seed = _seed(args, doc)
    trials = _trials(args, doc)
    columns = ("snr_db", "criterion", "approach", "trials", "p_e", "p_e_lo",
               "p_e_hi", "p_a", "p_a_lo", "p_a_hi", "ratio_gt1_eq1", "degenerate")
    rows = []
    for snr in _snr_grid(args, doc):
        scen = with_snr_db(scenario, snr)
        for rep in montecarlo.estimate(scen, specs, approach, trials, seed):
            rows.append((snr, rep.criterion.name, rep.approach_label, rep.trials,
                         rep.p_e, rep.p_e_ci[0], rep.p_e_ci[1],
                         rep.p_a, rep.p_a_ci[0], rep.p_a_ci[1],
                         rep.ratio_gt1_eq1, rep.degenerate))
    write_table(args.out, args.format, "mc", sha, seed, columns, rows)
    return 0


def cmd_theory(args, doc, sha):
    scenario = build_scenario(doc)
    specs = build_criteria(doc)
    approach = build_approach(doc)
    if isinstance(approach, Ml):
        raise ValidationError("approach.kind: theory tables use known/bl frequencies")
    if any(isinstance(s, Eef) for s in specs):
        raise ValidationError(
            "criteria: eef has no closed-form abridged error; use mc or ql-sweep")
    seed = _seed(args, doc)
    columns = ("snr_db", "criterion", "mode", "p_a", "error")
    rows = []
    for snr in _snr_grid(args, doc):
        scen = with_snr_db(scenario, snr)
        dists = theory.component_dists(
            scen, mode="ql", frequencies=approach_frequencies(scen, approach))
        for spec in specs:
            rep = theory.abridged_for(dists, spec,
                                      params_per_signal=approach.params_per_signal)
            rows.append((snr, spec.name, rep.mode, rep.p_a, rep.error))
    write_table(args.out, args.format, "theory", sha, seed, columns, rows)
    return 0


def cmd_tune(args, doc, sha):
    scenario = build_scenario(doc)
    if "tune" not in doc:
        raise ValidationError("tune: required for the tune subcommand")
    node = _object(doc["tune"], "tune")
    if "family" not in node:
        raise ValidationError("tune.family: required")
    seed = _seed(args, doc)
    search_range = None
    if "range" in node:
        search_range = tuple(_numbers(node["range"], "tune.range"))
        if len(search_range) != 2:
            raise ValidationError(f"tune.range must be [lo, hi], got {node['range']!r}")
    result = tuner.tune(
        node["family"],
        scenario,
        objective=node.get("objective", "abridged_theory"),
        search_range=search_range,
        grid_points=nonneg_int(node.get("grid_points", 32), "tune.grid_points"),
        refine=_bool(node.get("refine", True), "tune.refine"),
        trials=_trials(args, doc),
        master_seed=seed,
        approach=build_approach(doc),
    )
    columns = ("family", "kappa_opt", "objective", "objective_value",
               "consistency_ok", "flat")
    rows = [(result.family, result.kappa_opt, result.objective,
             result.objective_value, result.consistency_ok, result.flat)]
    write_table(args.out, args.format, "tune", sha, seed, columns, rows)
    return 0


def cmd_ql_sweep(args, doc, sha):
    scenario = build_scenario(doc)
    specs = build_criteria(doc)
    seed = _seed(args, doc)
    grid = _delta_grid(doc)
    trials = _trials(args, doc, default=20000)
    columns = ("criterion", "delta_omega", "p_a", "error", "mode", "p_aq")
    rows = []
    for spec in specs:
        sweep = theory.ql_sweep(scenario, spec, grid, trials=trials,
                                master_seed=seed)
        for d, p, e in zip(sweep.deltas, sweep.p_a, sweep.errors):
            rows.append((spec.name, float(d), float(p), float(e), sweep.mode,
                         sweep.p_aq))
    write_table(args.out, args.format, "ql-sweep", sha, seed, columns, rows)
    return 0


def cmd_bl_interval(args, doc, sha):
    scenario = build_scenario(doc)
    specs = build_criteria(doc)
    seed = _seed(args, doc)
    grid = _delta_grid(doc)
    trials = _trials(args, doc, default=20000)
    ml_trials = nonneg_int(doc.get("ml_trials", 2000), "ml_trials")
    approach = build_approach(doc) if "approach" in doc else Ml()
    if not isinstance(approach, Ml):
        raise ValidationError(
            "approach.kind: bl-interval takes its reference from the ml approach")
    ml_reports = montecarlo.estimate(scenario, specs, approach, ml_trials, seed)
    columns = ("criterion", "ml_reference_pe", "width", "saturated")
    rows = []
    for spec, ml_rep in zip(specs, ml_reports):
        sweep = theory.ql_sweep(scenario, spec, grid, trials=trials,
                                master_seed=seed)
        interval = theory.bl_interval(sweep, ml_rep.p_e)
        rows.append((spec.name, ml_rep.p_e, interval.width, interval.saturated))
    write_table(args.out, args.format, "bl-interval", sha, seed, columns, rows)
    return 0


def cmd_consistency(args, doc, sha):
    node = _object(doc.get("consistency", {}), "consistency")
    if "d_n_sq" in node:
        d_n_sq = np.asarray(_numbers(node["d_n_sq"], "consistency.d_n_sq"))
        nu0 = len(d_n_sq)
        n_total = nonneg_int(node.get("n_total", nu0), "consistency.n_total")
    else:
        scenario = build_scenario(doc)
        _, lambdas = theory.residual_means(scenario, scenario.all_frequencies)
        d_n_sq = lambdas[:scenario.nu0]
        nu0 = scenario.nu0
        n_total = scenario.max_order
    ranges = theory.consistency_range(d_n_sq, n_total, nu0)
    seed = _seed(args, doc)
    columns = ("quantity", "value")
    rows = [
        ("nu0", ranges.nu0),
        ("n_total", ranges.n_total),
        ("rho", ranges.rho),
        ("kappa_ir_sup_exact", ranges.kappa_ir_sup_exact),
        ("kappa_ir_sup_simple", ranges.kappa_ir_sup_simple),
        ("kappa_i_inf_exact", ranges.kappa_i_inf_exact),
        ("kappa_i_inf_simple", ranges.kappa_i_inf_simple),
    ]
    write_table(args.out, args.format, "consistency", sha, seed, columns, rows)
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "mc": cmd_mc,
    "theory": cmd_theory,
    "tune": cmd_tune,
    "ql-sweep": cmd_ql_sweep,
    "bl-interval": cmd_bl_interval,
    "consistency": cmd_consistency,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sincount",
        description="Model-order selection experiments for sinusoids in noise.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides config)")
        p.add_argument("--trials", type=int, default=None,
                       help="trial count (overrides config)")
        p.add_argument("--snr-db", default=None,
                       help="comma-separated SNR grid in dB (overrides config)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        doc = load_config(args.config)
        return _COMMANDS[args.command](args, doc, config_sha(doc))
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SincountError as exc:
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
