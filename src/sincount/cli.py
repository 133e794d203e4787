"""Reproducible experiment runner.

One JSON config document drives every subcommand.  parse_config reads it
once, with the command-line overrides, into a frozen RunConfig: every field
goes through one reader that names its key path, and a key outside its
object's allowed set is an error.  Outputs are CSV tables (with a # metadata
line carrying the config hash and seed) or JSON documents mirroring the
report dataclasses, so runs are traceable back to their exact configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import sys

import numpy as np

from . import montecarlo, theory, tuner
from .criteria import CRITERIA, Eef
from .errors import (SincountError, ValidationError, checked_keys, finite_float,
                     nonneg_int)
from .likelihood import KNOWN_FREQ, Bl, Ml, approach_frequencies
from .signal_model import (scenario_from_dict, standard_scenario, synthesize,
                           with_snr_db)


def config_sha(doc):
    """Short stable hash of the canonical config serialization."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config: invalid JSON in {path}: {exc}") from exc


def _bool(value, key):
    """A config flag: JSON true or false only (bool("false") is true)."""
    if not isinstance(value, bool):
        raise ValidationError(f"{key} must be true or false, got {value!r}")
    return value


def _numbers(values, key):
    if not isinstance(values, list) or not values:
        raise ValidationError(f"{key} must be a nonempty list of numbers, got {values!r}")
    return tuple(finite_float(v, f"{key}[{j}]") for j, v in enumerate(values))


def _one_of(choices):
    """A check for a JSON string among choices."""
    def check(value, key):
        if not (isinstance(value, str) and value in choices):
            raise ValidationError(f"{key}: unknown value {value!r} (choices: {sorted(choices)})")
        return value

    return check


_REQUIRED = object()


def _field(node, key, path, check, default=_REQUIRED):
    """node[key] read through check(value, key path); default when absent,
    or '<key path>: required' when there is none."""
    name = f"{path}.{key}" if path else key
    if key in node:
        return check(node[key], name)
    if default is _REQUIRED:
        raise ValidationError(f"{name}: required")
    return default


def _init_keys(cls):
    return tuple(f.name for f in dataclasses.fields(cls) if f.init)


# each criterion name and approach kind: the class built and the config
# keys beside the name or kind, its init fields
_CRITERIA = {name: (cls, _init_keys(cls)) for name, cls in CRITERIA.items()}
_APPROACHES = {"known": (Bl, ()), "bl": (Bl, _init_keys(Bl)), "ml": (Ml, _init_keys(Ml))}


def _build(node, path, key, table, default=_REQUIRED):
    """make(**rest) for (make, keys) = table[node[key]] (default when absent),
    rest being node's other keys, which must lie in keys."""
    make, keys = table[_field(checked_keys(node, path), key, path, _one_of(table), default)]
    checked_keys(node, path, (key, *keys))
    try:
        return make(**{k: v for k, v in node.items() if k != key})
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _criteria(nodes, key):
    if not isinstance(nodes, list) or not nodes:
        raise ValidationError(f"{key} must be a nonempty list of objects, got {nodes!r}")
    return tuple(_build(node, f"{key}[{j}]", "name", _CRITERIA) for j, node in enumerate(nodes))


# scenario.standard: standard_scenario's parameters, the SNR as snr_db
_STANDARD_KEYS = ("snr_db", *tuple(inspect.signature(standard_scenario).parameters)[1:])


def _scenario(node, key):
    if not (isinstance(node, dict) and "standard" in node):
        return scenario_from_dict(node)
    std = checked_keys(checked_keys(node, key, ("standard",))["standard"],
                       f"{key}.standard", _STANDARD_KEYS)
    snr = _field(std, "snr_db", f"{key}.standard", finite_float)
    try:
        return standard_scenario(snr, **{k: v for k, v in std.items() if k != "snr_db"})
    except ValidationError as exc:
        raise ValidationError(f"{key}.standard: {exc}") from exc


def _tune(node, key):
    """tuner.tune's keyword arguments from the tune section."""
    checked_keys(node, key, ("family", "objective", "range", "grid_points", "refine"))
    search_range = _field(node, "range", key, _numbers, None)
    if search_range is not None and len(search_range) != 2:
        raise ValidationError(f"{key}.range must be [lo, hi], got {node['range']!r}")
    return {
        "family": _field(node, "family", key, _one_of(("pmep-ir", "pmep-i"))),
        "objective": _field(node, "objective", key,
                            _one_of(("abridged_theory", "monte_carlo")), "abridged_theory"),
        "search_range": search_range,
        "grid_points": _field(node, "grid_points", key, nonneg_int, 32),
        "refine": _field(node, "refine", key, _bool, True),
    }


def _consistency(node, key):
    """(d_n_sq, n_total) of the section; without it they come from the scenario."""
    checked_keys(node, key, ("d_n_sq", "n_total"))
    d_n_sq = _field(node, "d_n_sq", key, _numbers)
    return d_n_sq, _field(node, "n_total", key, nonneg_int, len(d_n_sq))


_TOP_KEYS = ("scenario", "criteria", "approach", "snr_grid_db", "delta_omega_grid",
             "trials", "ml_trials", "master_seed", "tune", "consistency")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A config document read once, with the command-line overrides; an
    absent section is None."""

    sha: str
    seed: int
    trials: int | None
    ml_trials: int
    snr_grid_db: tuple | None
    delta_omega_grid: tuple | None
    scenario: object
    criteria: tuple | None
    approach: object
    tune: dict | None
    consistency: tuple | None

    def need(self, key):
        """The section key, or '<key>: required' when it is absent."""
        value = getattr(self, key)
        if value is None:
            raise ValidationError(f"{key}: required")
        return value

    def trials_or(self, default):
        return default if self.trials is None else self.trials


def _number_list(text, name):
    """A comma-separated command-line list of finite numbers."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"{name} must be comma-separated numbers, got {text!r}") from None
    return _numbers(values, name)


def parse_config(doc, args):
    """RunConfig of a config document and args' --seed, --trials and --snr-db;
    every section present is checked, whichever subcommand runs."""
    checked_keys(doc, "", _TOP_KEYS)
    seed = _field(doc, "master_seed", "", nonneg_int, 0)
    trials = _field(doc, "trials", "", nonneg_int, None)
    snr_grid_db = _field(doc, "snr_grid_db", "", _numbers, None)
    return RunConfig(
        sha=config_sha(doc),
        seed=seed if args.seed is None else nonneg_int(args.seed, "--seed"),
        trials=trials if args.trials is None else nonneg_int(args.trials, "--trials"),
        ml_trials=_field(doc, "ml_trials", "", nonneg_int, 2000),
        snr_grid_db=_number_list(args.snr_db, "--snr-db") if args.snr_db else snr_grid_db,
        delta_omega_grid=_field(doc, "delta_omega_grid", "", _numbers, None),
        scenario=_field(doc, "scenario", "", _scenario, None),
        criteria=_field(doc, "criteria", "", _criteria, None),
        approach=_field(doc, "approach", "", lambda node, key: _build(
            node, key, "kind", _APPROACHES, "known"), None),
        tune=_field(doc, "tune", "", _tune, None),
        consistency=_field(doc, "consistency", "", _consistency, None),
    )


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def write_table(args, cfg, columns, rows):
    """Emit one table to args.out (or stdout when it is None)."""
    if args.format == "csv":
        lines = [f"# sincount {args.command} config_sha={cfg.sha} seed={cfg.seed}",
                 ",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"subcommand": args.command, "config_sha": cfg.sha, "seed": cfg.seed,
                           "columns": list(columns), "rows": [list(row) for row in rows]},
                          indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


# each subcommand maps the parsed config to its table's columns and rows

def cmd_synth(cfg):
    obs = synthesize(cfg.need("scenario"), cfg.seed)
    return ("t", "x"), [(t + 1, float(x)) for t, x in enumerate(obs.samples)]


def cmd_mc(cfg):
    scenario, specs = cfg.need("scenario"), cfg.need("criteria")
    rows = []
    for snr in cfg.need("snr_grid_db"):
        for rep in montecarlo.estimate(with_snr_db(scenario, snr), specs,
                                       cfg.approach or KNOWN_FREQ,
                                       cfg.trials_or(100000), cfg.seed):
            rows.append((snr, rep.criterion.name, rep.approach_label, rep.trials,
                         rep.p_e, rep.p_e_ci[0], rep.p_e_ci[1],
                         rep.p_a, rep.p_a_ci[0], rep.p_a_ci[1],
                         rep.ratio_gt1_eq1, rep.degenerate))
    return ("snr_db", "criterion", "approach", "trials", "p_e", "p_e_lo", "p_e_hi",
            "p_a", "p_a_lo", "p_a_hi", "ratio_gt1_eq1", "degenerate"), rows


def cmd_theory(cfg):
    scenario, specs = cfg.need("scenario"), cfg.need("criteria")
    approach = cfg.approach or KNOWN_FREQ
    if isinstance(approach, Ml):
        raise ValidationError("approach.kind: theory tables use known/bl frequencies")
    if any(isinstance(s, Eef) for s in specs):
        raise ValidationError("criteria: eef has no closed-form abridged error; use mc or ql-sweep")
    rows = []
    for snr in cfg.need("snr_grid_db"):
        scen = with_snr_db(scenario, snr)
        dists = theory.component_dists(
            scen, mode="ql", frequencies=approach_frequencies(scen, approach))
        for spec in specs:
            rep = theory.abridged_for(dists, spec,
                                      params_per_signal=approach.params_per_signal)
            rows.append((snr, spec.name, rep.mode, rep.p_a, rep.error))
    return ("snr_db", "criterion", "mode", "p_a", "error"), rows


def cmd_tune(cfg):
    scenario, kwargs = cfg.need("scenario"), cfg.need("tune")
    try:
        result = tuner.tune(scenario=scenario, trials=cfg.trials_or(100000), master_seed=cfg.seed,
                            approach=cfg.approach or KNOWN_FREQ, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"tune: {exc}") from exc
    return (("family", "kappa_opt", "objective", "objective_value", "consistency_ok", "flat"),
            [(result.family, result.kappa_opt, result.objective,
              result.objective_value, result.consistency_ok, result.flat)])


def cmd_ql_sweep(cfg):
    scenario, specs = cfg.need("scenario"), cfg.need("criteria")
    rows = []
    for spec in specs:
        sweep = theory.ql_sweep(scenario, spec, cfg.need("delta_omega_grid"),
                                trials=cfg.trials_or(20000), master_seed=cfg.seed)
        for d, p, e in zip(sweep.deltas, sweep.p_a, sweep.errors):
            rows.append((spec.name, float(d), float(p), float(e), sweep.mode,
                         sweep.p_aq))
    return ("criterion", "delta_omega", "p_a", "error", "mode", "p_aq"), rows


def cmd_bl_interval(cfg):
    scenario, specs = cfg.need("scenario"), cfg.need("criteria")
    grid = cfg.need("delta_omega_grid")
    approach = cfg.approach or Ml()
    if not isinstance(approach, Ml):
        raise ValidationError(
            "approach.kind: bl-interval takes its reference from the ml approach")
    ml_reports = montecarlo.estimate(scenario, specs, approach, cfg.ml_trials, cfg.seed)
    rows = []
    for spec, ml_rep in zip(specs, ml_reports):
        sweep = theory.ql_sweep(scenario, spec, grid, trials=cfg.trials_or(20000),
                                master_seed=cfg.seed)
        interval = theory.bl_interval(sweep, ml_rep.p_e)
        rows.append((spec.name, ml_rep.p_e, interval.width, interval.saturated))
    return ("criterion", "ml_reference_pe", "width", "saturated"), rows


def cmd_consistency(cfg):
    if cfg.consistency is not None:
        d_n_sq, n_total = cfg.consistency
        nu0 = len(d_n_sq)
    else:
        scenario = cfg.need("scenario")
        d_n_sq = theory.residual_means(scenario, scenario.all_frequencies)[1][:scenario.nu0]
        nu0, n_total = scenario.nu0, scenario.max_order
    ranges = theory.consistency_range(np.asarray(d_n_sq), n_total, nu0)
    names = ("nu0", "n_total", "rho", "kappa_ir_sup_exact", "kappa_ir_sup_simple",
             "kappa_i_inf_exact", "kappa_i_inf_simple")
    return ("quantity", "value"), [(name, getattr(ranges, name)) for name in names]


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
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--trials", type=int, help="trial count (overrides config)")
        p.add_argument("--snr-db", help="comma-separated SNR grid in dB (overrides config)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(load_config(args.config), args)
        write_table(args, cfg, *_COMMANDS[args.command](cfg))
        return 0
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SincountError as exc:
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
