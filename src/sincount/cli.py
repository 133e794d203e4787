"""Reproducible experiment runner.

One JSON config document drives every subcommand.  Its top-level keys are
the fields of the frozen RunConfig, and parse_config reads it once, with the
command-line overrides, through errors.from_dict, which reads every level:
each key goes through one reader that names its key path, and a key outside
its maker's signature is an error.  Outputs are CSV tables (with a # metadata
line carrying the config hash and seed) or JSON documents holding the same
columns, rows, hash and seed, so runs trace back to their exact configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
from functools import partial

from . import montecarlo
from .criteria import CRITERIA, FAMILIES, Eef
from .errors import (SincountError, ValidationError, checked_keys, finite_float,
                     finite_floats, from_dict, nonneg_int)
from .likelihood import KNOWN_FREQ, Bl, FrequencyPlan, Ml, approach_frequencies
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


def _numbers(values, key, size=None):
    """A config list of finite numbers (of size of them when given), as a
    tuple of floats."""
    return tuple(finite_floats(values, key, size).tolist())


def _one_of(choices):
    """A check for a JSON string among choices."""
    def check(value, key):
        if not (isinstance(value, str) and value in choices):
            raise ValidationError(f"{key}: unknown value {value!r} (choices: {sorted(choices)})")
        return value

    return check


# each approach kind and its maker; known takes no keys beside the kind
_APPROACHES = {"known": lambda: KNOWN_FREQ, "bl": Bl, "ml": Ml}


def _build(node, path, key, table, default=None):
    """from_dict of table[node[key]] on node's other keys; without the key,
    of table[default], or '<path>.<key>: required' when default is None."""
    if key not in checked_keys(node, path) and default is None:
        raise ValidationError(f"{path}.{key}: required")
    make = table[_one_of(table)(node.get(key, default), f"{path}.{key}")]
    return from_dict(make, {k: v for k, v in node.items() if k != key}, path)


def _criteria(nodes, key):
    if not isinstance(nodes, list) or not nodes:
        raise ValidationError(f"{key} must be a nonempty list of objects, got {nodes!r}")
    return tuple(_build(node, f"{key}[{j}]", "name", CRITERIA) for j, node in enumerate(nodes))


_approach = partial(_build, key="kind", table=_APPROACHES, default="known")


def _scenario(node, key):
    """standard_scenario of the parameters under "standard", or a full
    scenario document."""
    if not (isinstance(node, dict) and "standard" in node):
        return scenario_from_dict(node)
    checked_keys(node, key, ("standard",))
    return from_dict(standard_scenario, node["standard"], f"{key}.standard",
                     snr_db=finite_float)


def _tune_kwargs(family, objective=None, range=None, grid_points=None, refine=None):
    """tuner.tune's keyword arguments of the keys the tune section sets; the
    others keep tune's defaults."""
    kwargs = dict(family=family, objective=objective, search_range=range,
                  grid_points=grid_points, refine=refine)
    return {k: v for k, v in kwargs.items() if v is not None}


_tune = partial(from_dict, _tune_kwargs, family=_one_of(FAMILIES),
                objective=_one_of(("abridged_theory", "monte_carlo")),
                range=partial(_numbers, size=2),
                grid_points=nonneg_int, refine=_bool)


def _weights(d_n_sq, n_total=None):
    """(d_n_sq, n_total) of the consistency section; n_total defaults to
    the number of weights."""
    return d_n_sq, len(d_n_sq) if n_total is None else n_total


_consistency = partial(from_dict, _weights, d_n_sq=_numbers, n_total=nonneg_int)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A config document read once, with the command-line overrides: its
    top-level keys are these fields, and an absent section is None."""

    master_seed: int = 0
    trials: int | None = None
    snr_grid_db: tuple | None = None
    scenario: object = None
    approach: object = None
    ml_trials: int = 2000
    delta_omega_grid: tuple | None = None
    criteria: tuple | None = None
    tune: dict | None = None
    consistency: tuple | None = None

    def __post_init__(self):
        if self.scenario is not None and isinstance(self.approach, Bl):
            # the frequency count and band check every command that reads the
            # approach would make, so that the others do not accept it
            try:
                FrequencyPlan.build(self.scenario,
                                    approach_frequencies(self.scenario, self.approach))
            except ValidationError as exc:
                raise ValidationError(f"approach: {exc}") from exc

    def need(self, key):
        """The section key, or '<key>: required' when it is absent."""
        value = getattr(self, key)
        if value is None:
            raise ValidationError(f"{key}: required")
        return value

    def trials_kwargs(self):
        """{"trials": trials} when the config or --trials sets it, else {}, so
        that the callee's default applies."""
        return {} if self.trials is None else {"trials": self.trials}


def _number_list(text, name):
    """A comma-separated command-line list of finite numbers."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"{name} must be comma-separated numbers, got {text!r}") from None
    return _numbers(values, name)


def parse_config(doc, args):
    """RunConfig of a config document and args' --seed, --trials and --snr-db
    (absent where the subcommand has no such flag); every section present is
    checked, whichever subcommand runs."""
    cfg = from_dict(RunConfig, doc, "", master_seed=nonneg_int, trials=nonneg_int,
                    snr_grid_db=_numbers, scenario=_scenario, approach=_approach,
                    ml_trials=nonneg_int, delta_omega_grid=_numbers, criteria=_criteria,
                    tune=_tune, consistency=_consistency)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = nonneg_int(args.seed, "--seed")
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = nonneg_int(args.trials, "--trials")
    if getattr(args, "snr_db", None) is not None:
        overrides["snr_grid_db"] = _number_list(args.snr_db, "--snr-db")
    return dataclasses.replace(cfg, **overrides)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _json_value(value):
    """value with NaN as null and +-inf as the strings "inf" and "-inf",
    which strict JSON has no number for."""
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def open_out(path):
    """path opened for writing (stdout when None) before the subcommand runs,
    as a shell redirection is, so that an unwritable --out exits 2 at once."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"--out: cannot write {path}: {exc}") from exc


def write_table(out, args, sha, seed, columns, rows):
    """Write one table to the stream out."""
    if args.format == "csv":
        lines = [f"# sincount {args.command} config_sha={sha} seed={seed}",
                 ",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        out.write("\n".join(lines) + "\n")
    else:
        out.write(json.dumps({"subcommand": args.command, "config_sha": sha, "seed": seed,
                              "columns": list(columns),
                              "rows": [[_json_value(v) for v in row] for row in rows]},
                             indent=2, sort_keys=True, allow_nan=False) + "\n")


# each subcommand maps the parsed config to its table's columns and rows

def cmd_synth(cfg):
    obs = synthesize(cfg.need("scenario"), cfg.master_seed)
    return ("t", "x"), [(t + 1, float(x)) for t, x in enumerate(obs.samples)]


def cmd_mc(cfg):
    scenario, specs = cfg.need("scenario"), cfg.need("criteria")
    rows = []
    for snr in cfg.need("snr_grid_db"):
        for rep in montecarlo.estimate(with_snr_db(scenario, snr), specs,
                                       cfg.approach or KNOWN_FREQ,
                                       100000 if cfg.trials is None else cfg.trials,
                                       cfg.master_seed):
            rows.append((snr, rep.criterion.name, rep.approach_label, rep.trials,
                         rep.p_e, rep.p_e_ci[0], rep.p_e_ci[1],
                         rep.p_a, rep.p_a_ci[0], rep.p_a_ci[1],
                         rep.ratio_gt1_eq1, rep.degenerate))
    return ("snr_db", "criterion", "approach", "trials", "p_e", "p_e_lo", "p_e_hi",
            "p_a", "p_a_lo", "p_a_hi", "ratio_gt1_eq1", "degenerate"), rows


def cmd_theory(cfg):
    from . import theory

    scenario, specs = cfg.need("scenario"), cfg.need("criteria")
    approach = cfg.approach or KNOWN_FREQ
    # the SNR sets amplitudes only, so the frequencies hold for every grid point
    freqs = approach_frequencies(scenario, approach)
    if any(isinstance(s, Eef) for s in specs):
        raise ValidationError("criteria: eef has no closed-form abridged error; use mc or ql-sweep")
    rows = []
    for snr in cfg.need("snr_grid_db"):
        dists = theory.component_dists(with_snr_db(scenario, snr), mode="ql", frequencies=freqs)
        for spec in specs:
            rep = theory.abridged_for(dists, spec,
                                      params_per_signal=approach.params_per_signal)
            rows.append((snr, spec.name, rep.mode, rep.p_a, rep.error))
    return ("snr_db", "criterion", "mode", "p_a", "error"), rows


def cmd_tune(cfg):
    from . import tuner

    scenario, kwargs = cfg.need("scenario"), cfg.need("tune")
    try:
        result = tuner.tune(scenario=scenario, master_seed=cfg.master_seed,
                            approach=cfg.approach or KNOWN_FREQ, **kwargs,
                            **cfg.trials_kwargs())
    except ValidationError as exc:
        raise ValidationError(f"tune: {exc}") from exc
    return (("family", "kappa_opt", "objective", "objective_value", "consistency_ok", "flat"),
            [(result.family, result.kappa_opt, result.objective,
              result.objective_value, result.consistency_ok, result.flat)])


def cmd_ql_sweep(cfg):
    from . import theory

    scenario, specs = cfg.need("scenario"), cfg.need("criteria")
    rows = []
    for spec in specs:
        sweep = theory.ql_sweep(scenario, spec, cfg.need("delta_omega_grid"),
                                master_seed=cfg.master_seed, **cfg.trials_kwargs())
        for d, p, e in zip(sweep.deltas, sweep.p_a, sweep.errors):
            rows.append((spec.name, float(d), float(p), float(e), sweep.mode))
    return ("criterion", "delta_omega", "p_a", "error", "mode"), rows


def cmd_bl_interval(cfg):
    from . import theory

    scenario, specs = cfg.need("scenario"), cfg.need("criteria")
    grid = cfg.need("delta_omega_grid")
    approach = cfg.approach or Ml()
    if not isinstance(approach, Ml):
        raise ValidationError(
            "approach.kind: bl-interval takes its reference from the ml approach")
    ml_reports = montecarlo.estimate(scenario, specs, approach, cfg.ml_trials,
                                     cfg.master_seed)
    rows = []
    for spec, ml_rep in zip(specs, ml_reports):
        sweep = theory.ql_sweep(scenario, spec, grid, master_seed=cfg.master_seed,
                                **cfg.trials_kwargs())
        interval = theory.bl_interval(sweep, ml_rep.p_e)
        rows.append((spec.name, ml_rep.p_e, interval.width, interval.saturated))
    return ("criterion", "ml_reference_pe", "width", "saturated"), rows


def cmd_consistency(cfg):
    from . import theory

    if cfg.consistency is not None:
        d_n_sq, n_total = cfg.consistency
        ranges = theory.consistency_range(d_n_sq, n_total, len(d_n_sq))
    else:
        ranges = theory.scenario_consistency(cfg.need("scenario"))
    names = ("nu0", "n_total", "rho", "kappa_ir_sup_exact", "kappa_ir_sup_simple",
             "kappa_i_inf_exact", "kappa_i_inf_simple")
    return ("quantity", "value"), [(name, getattr(ranges, name)) for name in names]


# each subcommand's function and the flags it reads beside --config, --seed
# (every table's metadata line prints it), --out and --format
_COMMANDS = {
    "synth": (cmd_synth, ()),
    "mc": (cmd_mc, ("--trials", "--snr-db")),
    "theory": (cmd_theory, ("--snr-db",)),
    "tune": (cmd_tune, ("--trials",)),
    "ql-sweep": (cmd_ql_sweep, ("--trials",)),
    "bl-interval": (cmd_bl_interval, ("--trials",)),
    "consistency": (cmd_consistency, ()),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sincount",
        description="Model-order selection experiments for sinusoids in noise.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        if "--trials" in flags:
            p.add_argument("--trials", type=int, help="trial count (overrides config)")
        if "--snr-db" in flags:
            p.add_argument("--snr-db", help="comma-separated SNR grid in dB (overrides config)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        doc = load_config(args.config)
        cfg = parse_config(doc, args)
        with open_out(args.out) as out:
            write_table(out, args, config_sha(doc), cfg.master_seed,
                        *_COMMANDS[args.command][0](cfg))
        return 0
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SincountError as exc:
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
