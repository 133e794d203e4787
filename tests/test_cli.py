import hashlib
import inspect
import json
import math
import os
import re

import pytest

import sincount as sc
from sincount import cli, tuner
from sincount.cli import config_sha, main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "synth.csv")

BASE_CONFIG = {
    "scenario": {"standard": {"snr_db": -4.0}},
    "criteria": [{"name": "gic"}, {"name": "pmep-ir", "kappa_ir": 0.25}],
    "approach": {"kind": "known"},
    "snr_grid_db": [-4.0],
    "trials": 500,
    "master_seed": 11,
}


@pytest.fixture
def config_path(tmp_path):
    def write(doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_synth_matches_golden_file(config_path, capsys):
    rc, out, _ = run(["synth", "--config", config_path(BASE_CONFIG)], capsys)
    assert rc == 0
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        assert out == fh.read()


def test_seed_flag_overrides_config(config_path, capsys):
    path = config_path(BASE_CONFIG)
    rc, out, _ = run(["synth", "--config", path, "--seed", "99"], capsys)
    assert rc == 0
    header = out.splitlines()[0]
    assert header.endswith("seed=99")
    assert f"config_sha={config_sha(BASE_CONFIG)}" in header


def test_config_sha_is_order_insensitive():
    doc = {"b": 1, "a": [1, 2]}
    again = {"a": [1, 2], "b": 1}
    assert config_sha(doc) == config_sha(again)
    assert len(config_sha(doc)) == 12


def test_mc_csv_schema_and_determinism(config_path, capsys):
    path = config_path(BASE_CONFIG)
    rc, out1, _ = run(["mc", "--config", path], capsys)
    assert rc == 0
    rc, out2, _ = run(["mc", "--config", path], capsys)
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0].startswith("# sincount mc config_sha=")
    assert lines[1] == ("snr_db,criterion,approach,trials,p_e,p_e_lo,p_e_hi,"
                        "p_a,p_a_lo,p_a_hi,ratio_gt1_eq1,degenerate")
    rows = [line.split(",") for line in lines[2:]]
    assert [r[1] for r in rows] == ["gic", "pmep-ir"]
    for r in rows:
        assert 0.0 <= float(r[4]) <= 1.0


def test_mc_json_format(config_path, tmp_path, capsys):
    out_file = tmp_path / "report.json"
    rc, out, _ = run(["mc", "--config", config_path(BASE_CONFIG),
                      "--format", "json", "--out", str(out_file)], capsys)
    assert rc == 0
    assert out == ""
    doc = json.loads(out_file.read_text())
    assert doc["subcommand"] == "mc"
    assert doc["seed"] == 11
    assert doc["columns"][0] == "snr_db"
    assert len(doc["rows"]) == 2


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("args, doc, row, value", [
    # PMEP-I makes no error here, so its ratio_gt1_eq1 (errors by more than one
    # order over errors by one) is NaN
    (["mc", "--trials", "200", "--snr-db=10"],
     dict(BASE_CONFIG, criteria=[{"name": "gic"}, {"name": "pmep-i", "kappa_i": 3.0}]),
     ("pmep-i", -2), None),
    (["consistency"], {"scenario": {"standard": {"snr_db": 0, "nu0": 1, "max_order": 3}}},
     ("kappa_ir_sup_exact", 1), "inf"),
], ids=["nan_as_null", "inf_as_string"])
def test_json_output_is_strict_json(config_path, capsys, args, doc, row, value):
    # used to write the bare tokens NaN and Infinity
    rc, out, _ = run(args + ["--config", config_path(doc), "--format", "json"], capsys)
    assert rc == 0
    name, column = row
    assert [r[column] for r in _strict_json(out)["rows"] if name in r] == [value]


def test_json_values_of_non_finite_floats():
    assert ([cli._json_value(v) for v in (math.nan, math.inf, -math.inf, 1.5, "x")]
            == [None, "inf", "-inf", 1.5, "x"])


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_unwritable_out_exits_2_before_the_run(config_path, tmp_path, capsys, monkeypatch,
                                               target):
    # used to raise FileNotFoundError / IsADirectoryError, exit 1, after the run
    out = tmp_path / "missing" / "x.csv" if target == "missing_directory" else tmp_path

    def never(*args):
        raise AssertionError("the subcommand ran")

    monkeypatch.setattr(cli.montecarlo, "estimate", never)
    rc, stdout, err = run(["mc", "--config", config_path(BASE_CONFIG), "--out", str(out)],
                          capsys)
    assert rc == 2
    assert stdout == ""
    assert err.startswith(f"config error: --out: cannot write {out}: ")


def test_snr_flag_expands_grid(config_path, capsys):
    rc, out, _ = run(["mc", "--config", config_path(BASE_CONFIG),
                      "--snr-db=-4,0", "--trials", "200"], capsys)
    assert rc == 0
    rows = out.splitlines()[2:]
    assert len(rows) == 4  # two SNRs x two criteria


def test_theory_subcommand(config_path, capsys):
    rc, out, _ = run(["theory", "--config", config_path(BASE_CONFIG)], capsys)
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    # frozen known-frequency abridged values at -4 dB
    assert float(rows[0][3]) == pytest.approx(0.0278246232, abs=1e-8)
    assert float(rows[1][3]) == pytest.approx(0.0342676445, abs=1e-6)


def test_theory_explicit_bl_frequencies_match_offset(config_path, capsys):
    nominal = sc.standard_scenario(-4.0).all_frequencies
    tables = []
    for approach in ({"kind": "bl", "frequencies": [float(f) + 0.004 for f in nominal]},
                     {"kind": "bl", "delta_omega": 0.004}):
        doc = dict(BASE_CONFIG, criteria=[{"name": "gic"}], approach=approach)
        rc, out, _ = run(["theory", "--config", config_path(doc)], capsys)
        assert rc == 0
        tables.append(out.splitlines()[2:])
    assert tables[0] == tables[1]
    # the offset moves p_a away from the known-frequency value
    assert float(tables[0][0].split(",")[3]) != pytest.approx(0.0278246232, abs=1e-5)


BL_INTERVAL_CONFIG = dict(BASE_CONFIG, criteria=[{"name": "gic"}],
                          delta_omega_grid=[0.0, 0.002], ml_trials=100)


@pytest.mark.parametrize("approach,expect", [
    (None, sc.Ml()),
    ({"kind": "ml", "grid_points": 64, "refine_tol": 1e-4},
     sc.Ml(grid_points=64, refine_tol=1e-4)),
])
def test_bl_interval_ml_reference_uses_configured_approach(
        approach, expect, config_path, capsys, monkeypatch):
    doc = {k: v for k, v in BL_INTERVAL_CONFIG.items() if k != "approach"}
    if approach is not None:
        doc["approach"] = approach
    seen = []
    estimate = cli.montecarlo.estimate

    def spy(scenario, specs, approach, trials, seed):
        seen.append(approach)
        return estimate(scenario, specs, approach, trials, seed)

    monkeypatch.setattr(cli.montecarlo, "estimate", spy)
    rc, out, _ = run(["bl-interval", "--config", config_path(doc)], capsys)
    assert rc == 0
    assert seen == [expect]
    assert out.splitlines()[1] == "criterion,ml_reference_pe,width,saturated"


@pytest.mark.parametrize("kind", ["known", "bl"])
def test_bl_interval_non_ml_approach_exits_2(kind, config_path, capsys):
    doc = dict(BL_INTERVAL_CONFIG, approach={"kind": kind})
    rc, _, err = run(["bl-interval", "--config", config_path(doc)], capsys)
    assert rc == 2
    assert "approach.kind" in err


@pytest.mark.parametrize("trials", [{"trials": 200}, {}], ids=["config_trials", "default"])
def test_ql_sweep_rows_match_library_sweep(trials, config_path, capsys):
    # without a trials key the sweep keeps ql_sweep's own default
    grid = [0.0, 0.002]
    doc = dict({k: v for k, v in BASE_CONFIG.items() if k != "trials"}, **trials,
               criteria=[{"name": "gic"}, {"name": "pmep-ir"}, {"name": "eef"}],
               delta_omega_grid=grid)
    rc, out, err = run(["ql-sweep", "--config", config_path(doc)], capsys)
    assert rc == 0, err
    expected = []
    for name, mode in (("gic", "theory"), ("pmep-ir", "theory"), ("eef", "mc")):
        sweep = sc.ql_sweep(sc.standard_scenario(-4.0), sc.CRITERIA[name](), grid,
                            master_seed=11, **trials)
        assert sweep.mode == mode
        expected.extend([name, repr(float(d)), repr(float(p)), repr(float(e)), mode]
                        for d, p, e in zip(sweep.deltas, sweep.p_a, sweep.errors))
    assert out.splitlines()[1] == "criterion,delta_omega,p_a,error,mode"
    assert [line.split(",") for line in out.splitlines()[2:]] == expected


def test_consistency_subcommand_with_direct_weights(config_path, capsys):
    doc = {"consistency": {"d_n_sq": [1.0, 1.0, 1.0], "n_total": 5}}
    rc, out, _ = run(["consistency", "--config", config_path(doc)], capsys)
    assert rc == 0
    values = dict(line.split(",") for line in out.splitlines()[2:])
    assert float(values["rho"]) == 1.0
    assert float(values["kappa_i_inf_simple"]) == pytest.approx(8.8274691196)


def test_missing_criteria_exits_2(config_path, capsys):
    doc = dict(BASE_CONFIG)
    del doc["criteria"]
    rc, _, err = run(["mc", "--config", config_path(doc)], capsys)
    assert rc == 2
    assert "criteria" in err


def test_unknown_criterion_exits_2(config_path, capsys):
    doc = dict(BASE_CONFIG)
    doc["criteria"] = [{"name": "bic"}]
    rc, _, err = run(["mc", "--config", config_path(doc)], capsys)
    assert rc == 2
    assert "bic" in err


def test_missing_config_file_exits_2(capsys):
    rc, _, err = run(["mc", "--config", "/nonexistent/config.json"], capsys)
    assert rc == 2
    assert "cannot read" in err


def test_invalid_json_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"trials": 500,')
    rc, out, err = run(["mc", "--config", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert "invalid JSON" in err


def test_eef_theory_request_exits_2(config_path, capsys):
    doc = dict(BASE_CONFIG)
    doc["criteria"] = [{"name": "eef"}]
    rc, _, err = run(["theory", "--config", config_path(doc)], capsys)
    assert rc == 2
    assert "eef" in err


def test_ml_theory_request_exits_2(config_path, capsys):
    doc = dict(BASE_CONFIG, approach={"kind": "ml"})
    rc, out, err = run(["theory", "--config", config_path(doc)], capsys)
    assert (rc, out) == (2, "")
    assert "ml approach has no fixed frequencies" in err


@pytest.mark.parametrize("command", ["synth", "mc"])
def test_negative_seed_flag_exits_2(command, config_path, capsys):
    rc, out, err = run([command, "--config", config_path(BASE_CONFIG),
                        "--seed", "-1"], capsys)
    assert rc == 2
    assert out == ""
    assert "seed" in err


def test_synth_seed_past_philox_key_range_exits_2(config_path, capsys):
    # used to exit 1 with numpy's ValueError
    rc, out, err = run(["synth", "--config", config_path(BASE_CONFIG),
                        "--seed", str(2**128)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("config error: seed must be below 2**128")


@pytest.mark.parametrize("command", ["synth", "mc"])
@pytest.mark.parametrize("seed", [2.7, 2.0, -3, "5", True])
def test_invalid_config_master_seed_exits_2(command, seed, config_path, capsys):
    doc = dict(BASE_CONFIG, master_seed=seed)
    rc, out, err = run([command, "--config", config_path(doc)], capsys)
    assert rc == 2
    assert out == ""
    assert "master_seed" in err


def test_degenerate_scenario_exits_3(config_path, capsys):
    w = 1.25
    doc = dict(BASE_CONFIG)
    doc["scenario"] = {
        "n_samples": 64,
        "noise_level": 1.0,
        "components": [
            {"amplitude": 1.0, "frequency": w, "phase": 0.0,
             "band": [w - 0.3, w + 0.3]},
            {"amplitude": 1.0, "frequency": w + 1e-13, "phase": 0.0,
             "band": [w - 0.3, w + 0.3]},
        ],
        "extra_candidates": [],
    }
    rc, _, err = run(["mc", "--config", config_path(doc)], capsys)
    assert rc == 3
    assert "DegenerateStatsError" in err


@pytest.mark.parametrize("command", ["synth", "theory"])
def test_non_finite_envelope_exits_2(command, config_path, capsys):
    # a NaN envelope sample used to print NaN samples (synth, exit 0) or
    # reach the Gram matrix's Cholesky factorization (theory, exit 1)
    w = 1.25
    doc = dict(BASE_CONFIG)
    doc["scenario"] = {
        "n_samples": 64,
        "noise_level": 1.0,
        "components": [
            {"amplitude": 1.0, "frequency": w, "phase": 0.0, "band": [w - 0.3, w + 0.3],
             "amplitude_envelope": [1.0] * 63 + [math.nan]},
        ],
        "extra_candidates": [],
    }
    rc, out, err = run([command, "--config", config_path(doc)], capsys)
    assert (rc, out) == (2, "")
    assert "amplitude_envelope[63] must be a finite number" in err


def test_tune_subcommand(config_path, capsys):
    doc = {
        "scenario": {"standard": {"snr_db": -4.0}},
        "tune": {"family": "pmep-ir", "grid_points": 5,
                 "range": [0.2, 0.3], "refine": False},
        "master_seed": 7,
    }
    rc, out, _ = run(["tune", "--config", config_path(doc)], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == ("family,kappa_opt,objective,objective_value,"
                        "consistency_ok,flat")
    fields = lines[2].split(",")
    assert fields[0] == "pmep-ir"
    assert 0.2 <= float(fields[1]) <= 0.3
    assert fields[4] == "true"


def test_theory_single_slot_has_no_abridged_error(config_path, capsys):
    # nu0 = N = 1: the abridged event makes no comparison, so p_a = 0
    doc = dict(BASE_CONFIG,
               scenario={"standard": {"snr_db": -4, "nu0": 1, "max_order": 1}},
               criteria=[{"name": "gic"}, {"name": "pmep-i", "kappa_i": 3.0}])
    rc, out, _ = run(["theory", "--config", config_path(doc)], capsys)
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert [(r[1], float(r[3])) for r in rows] == [("gic", 0.0), ("pmep-i", 0.0)]


TUNE_CONFIG = {
    "scenario": {"standard": {"snr_db": -4.0}},
    "tune": {"family": "pmep-ir", "grid_points": 5, "range": [0.2, 0.3],
             "refine": False},
    "master_seed": 7,
}


def _tune_row(doc, config_path, capsys):
    rc, out, err = run(["tune", "--config", config_path(doc)], capsys)
    assert rc == 0, err
    return out.splitlines()[2].split(",")


def _api_row(result):
    return [result.family, repr(result.kappa_opt), result.objective,
            repr(result.objective_value), str(result.consistency_ok).lower(),
            str(result.flat).lower()]


def test_tune_uses_configured_bl_approach(config_path, capsys):
    known = _tune_row(dict(TUNE_CONFIG, approach={"kind": "known"}), config_path, capsys)
    bl = _tune_row(dict(TUNE_CONFIG, approach={"kind": "bl", "delta_omega": 0.004}),
                   config_path, capsys)
    api = sc.tune("pmep-ir", sc.standard_scenario(-4.0), grid_points=5,
                  search_range=(0.2, 0.3), refine=False, approach=sc.Bl(0.004))
    assert bl == _api_row(api)
    assert bl != known


def test_tune_ml_approach(config_path, capsys):
    # the theory objective has no ML laws; the Monte Carlo objective runs the search
    doc = dict(TUNE_CONFIG, approach={"kind": "ml"})
    rc, out, err = run(["tune", "--config", config_path(doc)], capsys)
    assert rc == 2 and out == ""
    assert "ml" in err
    doc = dict(doc, tune=dict(TUNE_CONFIG["tune"], objective="monte_carlo"), trials=100)
    api = sc.tune("pmep-ir", sc.standard_scenario(-4.0), objective="monte_carlo",
                  grid_points=5, search_range=(0.2, 0.3), refine=False, trials=100,
                  master_seed=7, approach=sc.Ml())
    assert _tune_row(doc, config_path, capsys) == _api_row(api)


CUSTOM_SCENARIO = sc.scenario_to_dict(sc.standard_scenario(-4.0))


def _custom(**first_component):
    """The custom scenario document with its first component changed."""
    comps = [dict(CUSTOM_SCENARIO["components"][0], **first_component),
             *CUSTOM_SCENARIO["components"][1:]]
    return dict(CUSTOM_SCENARIO, components=comps)


@pytest.mark.parametrize("change, argv, key", [
    ({"trials": "abc"}, [], "trials"),
    ({"scenario": {"standard": {"snr_db": -4.0, "n_samples": 64.5}}}, [], "n_samples"),
    ({"scenario": dict(sc.scenario_to_dict(sc.standard_scenario(-4.0)), n_samples=64.5)},
     [], "n_samples"),
    ({"trials": 150.9}, [], "trials"),
    ({"approach": {"kind": "bl", "delta_omega": "x"}}, [], "delta_omega"),
    ({}, ["--snr-db=abc"], "--snr-db"),
    ({"snr_grid_db": [-4.0, "x"]}, [], "snr_grid_db"),
    ({"approach": {"kind": "ml", "grid_points": 0}}, [], "grid_points"),
    ({"approach": {"kind": "ml", "grid_points": 1}}, [], "grid_points"),
    ({"approach": {"kind": "ml", "refine_tol": 0.0}}, [], "refine_tol"),
    ({"approach": {"kind": "ml", "refine_tol": -1e-6}}, [], "refine_tol"),
    ({"approach": {"kind": "known", "delta_omega": 0.004}}, [], "delta_omega"),
    ({"approach": {"kind": "bl", "delta_omega": 0.004, "frequencies":
                   sc.standard_scenario(-4.0).all_frequencies.tolist()}}, [], "delta_omega"),
    ({"scenario": {"standard": {"snr_db": -4.0, "noise_level": 2.0,
                                "noise_known": "false"}}}, [], "noise_known"),
    ({"scenario": dict(CUSTOM_SCENARIO, noise_known="false")}, [], "noise_known"),
    ({"scenario": {"standard": {"snr_db": -4.0, "nu0": 2.0}}}, [], "nu0"),
    ({"scenario": {"standard": {"snr_db": -4.0, "n_samples": 0}}}, [], "n_samples"),
    ({"scenario": {"standard": {"snr_db": -4.0, "noise_level": "2"}}}, [], "noise_level"),
    ({"scenario": _custom(amplitude="x")}, [], "amplitude"),
    ({"scenario": _custom(amplitude="1.5")}, [], "amplitude"),
    ({"scenario": _custom(band=5)}, [], "band"),
    ({"scenario": dict(CUSTOM_SCENARIO, noise_level="1")}, [], "noise_level"),
    ({"criteria": [{"name": "gic", "kappa": "x"}]}, [], "criteria[0].kappa: unknown key"),
    ({"criteria": [{"name": "pmep-i", "kappa_i": math.inf}]}, [], "criteria[0]: kappa_i"),
    ({"criteria": [{"name": "pmep-ir", "kappa_ir": True}]}, [], "criteria[0]: kappa_ir"),
    ({"criteria": [{"name": "gic", "upsilon": "2"}]}, [], "criteria[0]: upsilon"),
    ({"approach": {"kind": "ml", "refine_tol": "1e-6"}}, [], "approach: refine_tol"),
    ({"approach": {"kind": "bl", "frequencies": [1.0, True]}}, [], "frequencies[1]"),
    ({"consistency": {"n_total": 5}}, [], "consistency.d_n_sq: required"),
    ({"scenario": {"standard": {"snr_db": -4.0, "noise_level": 0.0}}}, [], "noise_level"),
    ({"scenario": dict(CUSTOM_SCENARIO, noise_level=0.0)}, [], "noise_level"),
    ({"snr_grid_db": []}, [], "snr_grid_db"),
    ({"criteria": [{"kappa": 2.0}]}, [], "criteria[0].name: required"),
    ({"tune": {"family": "pmep-ir", "range": [0.2]}}, [], "tune.range"),
    ({"approach": {"kind": "ml", "grid_points": 2}}, [], "grid_points"),
    ({"criteria": [{"name": "aic"}]}, [], "criteria[0].name"),
    ({"criteria": [{"name": "pmep-ir", "kappa_ir": 1.5}]}, [], "criteria[0]: kappa_ir"),
])
def test_invalid_numeric_config_exits_2(change, argv, key, config_path, capsys):
    doc = dict(BASE_CONFIG, **change)
    rc, out, err = run(["mc", "--config", config_path(doc), *argv], capsys)
    assert rc == 2
    assert out == ""
    assert key in err


@pytest.mark.parametrize("command", ["mc", "theory"])
def test_empty_snr_db_flag_exits_2(command, config_path, capsys):
    # an empty --snr-db= used to run the config's own SNR grid
    rc, out, err = run([command, "--snr-db=", "--config", config_path(BASE_CONFIG)], capsys)
    assert (rc, out) == (2, "")
    assert "--snr-db" in err


# each config list of numbers: the document that holds it, its key path and
# a list it accepts
NUMBER_LISTS = {
    "snr_grid_db": (lambda v: {"snr_grid_db": v}, [-4.0, 0.0]),
    "delta_omega_grid": (lambda v: {"delta_omega_grid": v}, [0.0, 0.002]),
    "consistency.d_n_sq": (lambda v: {"consistency": {"d_n_sq": v}}, [1.0, 2.0]),
    "tune.range": (lambda v: {"tune": {"family": "pmep-ir", "range": v}}, [0.2, 0.3]),
}

# each bad form of an accepted list, and the entry its error names (None: the
# list as a whole); only tune.range has a fixed count
BAD_LISTS = {
    "bool": (lambda g: [g[0], True], 1), "numeric_string": (lambda g: [str(g[0]), g[1]], 0),
    "nan": (lambda g: [g[0], math.nan], 1), "inf": (lambda g: [math.inf, g[1]], 0),
    "empty": (lambda g: [], None), "scalar": (lambda g: g[0], None),
    "nested": (lambda g: [g], None), "three": (lambda g: g + g[:1], None),
}


@pytest.mark.parametrize("key, form", [(key, form) for key in NUMBER_LISTS for form in BAD_LISTS
                                       if form != "three" or key == "tune.range"])
def test_bad_config_number_list_exits_2(key, form, config_path, capsys):
    section, good = NUMBER_LISTS[key]
    make, entry = BAD_LISTS[form]
    doc = dict(BASE_CONFIG, **section(make(good)))
    rc, out, err = run(["mc", "--config", config_path(doc)], capsys)
    assert (rc, out) == (2, "")
    assert (key if entry is None else f"{key}[{entry}]") in err


@pytest.mark.parametrize("command", ["consistency", "synth", "ql-sweep"])
@pytest.mark.parametrize("approach", [
    {"kind": "bl", "frequencies": []},
    {"kind": "bl", "frequencies": [f + 1.0 for f in
                                   sc.standard_scenario(-4.0).all_frequencies.tolist()]},
    {"kind": "bl", "delta_omega": 1.0},
], ids=["empty", "out_of_band", "offset_out_of_band"])
def test_bl_frequencies_checked_against_scenario_exits_2(command, approach, config_path,
                                                         capsys):
    # commands that do not read the approach reject it as mc and theory do
    doc = dict(BASE_CONFIG, approach=approach, delta_omega_grid=[0.0, 0.002])
    rc, out, err = run([command, "--config", config_path(doc)], capsys)
    assert rc == 2
    assert out == ""
    assert "config error: approach: " in err


@pytest.mark.parametrize("command", ["synth", "theory"])
@pytest.mark.parametrize("key", ["foo", "snr_value_db", "noise_known"])
def test_unknown_standard_scenario_key_exits_2(command, key, config_path, capsys):
    doc = dict(BASE_CONFIG, scenario={"standard": {"snr_db": -4.0, key: 1}})
    rc, out, err = run([command, "--config", config_path(doc)], capsys)
    assert rc == 2
    assert out == ""
    assert f"scenario.standard.{key}: unknown key" in err


def test_theory_pmep_i_at_40_db_exits_0(config_path, capsys):
    doc = dict(BASE_CONFIG, scenario={"standard": {"snr_db": 40.0}},
               criteria=[{"name": "pmep-i", "kappa_i": 3.0}], snr_grid_db=[40.0])
    rc, out, err = run(["theory", "--config", config_path(doc)], capsys)
    assert rc == 0, err
    row = out.splitlines()[2].split(",")
    assert row[1] == "pmep-i" and 0.0 <= float(row[3]) <= 1.0


def test_theory_pmep_i_at_tiny_kappa_exits_0(config_path, capsys):
    # (3/2)^(1/kappa) overflows at kappa_i = 1e-4; the rule's limit is p_a = 1
    doc = dict(BASE_CONFIG, criteria=[{"name": "pmep-i", "kappa_i": 1e-4}])
    rc, out, err = run(["theory", "--config", config_path(doc)], capsys)
    assert rc == 0, err
    row = out.splitlines()[2].split(",")
    assert row[1] == "pmep-i" and float(row[3]) == 1.0


def test_tune_pmep_i_from_tiny_kappa_exits_0(config_path, capsys):
    doc = dict(TUNE_CONFIG, tune={"family": "pmep-i", "grid_points": 5,
                                  "range": [1e-4, 1.0], "refine": False})
    fields = _tune_row(doc, config_path, capsys)
    assert fields[0] == "pmep-i" and 1e-4 <= float(fields[1]) <= 1.0


@pytest.mark.parametrize("family, search_range, message", [
    ("pmep-ir", [0.5, 1.5], "kappa_ir must be in (0, 1), got 1.5"),
    ("pmep-i", [0.0, 3.0], "kappa_i must be positive, got 0.0")])
def test_tune_range_outside_the_domain_exits_2_before_any_objective_call(
        monkeypatch, config_path, capsys, family, search_range, message):
    calls = []
    monkeypatch.setattr(tuner, "_theory_objective", lambda *args: calls.append(args))
    doc = dict(TUNE_CONFIG, tune={"family": family, "grid_points": 3, "range": search_range})
    rc, out, err = run(["tune", "--config", config_path(doc)], capsys)
    assert (rc, out, calls) == (2, "", [])
    lo, hi = (float(v) for v in search_range)
    assert f"search_range ({lo}, {hi}) for {family}: {message}" in err


@pytest.mark.parametrize("entry", ["PmepIr", "abridged_pmep_ir", "tune", "cli-theory",
                                   "cli-tune"])
def test_kappa_ir_of_1_is_refused_at_every_entry_point(config_path, capsys, entry):
    # at kappa_ir = 1 the rule picks order 1 whatever the data, so p_a is 1 at
    # 0 dB, where the abridged formula read 0.6201 and 20000 trials 0.9403
    scenario = sc.standard_scenario(0.0)
    library = {"PmepIr": lambda: sc.PmepIr(1.0),
               "abridged_pmep_ir": lambda: sc.abridged_pmep_ir(sc.component_dists(scenario), 1.0),
               "tune": lambda: sc.tune("pmep-ir", scenario, search_range=(0.5, 1.0))}
    message = "kappa_ir must be in (0, 1), got 1.0"
    if entry in library:
        with pytest.raises(sc.ValidationError, match=re.escape(message)):
            library[entry]()
        return
    command = entry.removeprefix("cli-")
    doc = (dict(BASE_CONFIG, criteria=[{"name": "pmep-ir", "kappa_ir": 1.0}])
           if command == "theory" else dict(TUNE_CONFIG, tune=dict(TUNE_CONFIG["tune"],
                                                                   range=[0.5, 1.0])))
    rc, out, err = run([command, "--config", config_path(doc)], capsys)
    assert (rc, out) == (2, "") and message in err


@pytest.mark.parametrize("command, doc, key", [
    ("theory", dict(BASE_CONFIG, approach="ml"), "approach"),
    ("mc", dict(BASE_CONFIG, scenario="x"), "scenario"),
    ("mc", dict(BASE_CONFIG, scenario={"standard": "x"}), "scenario.standard"),
    ("mc", dict(BASE_CONFIG, criteria={"name": "gic"}), "criteria"),
    ("mc", dict(BASE_CONFIG, criteria=["gic"]), "criteria[0]"),
    ("tune", dict(TUNE_CONFIG, tune=dict(TUNE_CONFIG["tune"], refine="false")), "tune.refine"),
    ("tune", dict(TUNE_CONFIG, tune="pmep-ir"), "tune"),
    ("consistency", {"consistency": [1.0]}, "consistency"),
    ("theory", dict(BASE_CONFIG, scenario={"standard": {"snr_db": -4.0, "noise_level": "2"}}),
     "noise_level"),
    ("theory", dict(BASE_CONFIG, scenario={"standard": {"snr_db": -4.0, "nu0": 2.0}}), "nu0"),
    ("mc", dict(BASE_CONFIG, scenario=dict(CUSTOM_SCENARIO, components=5)), "components"),
    ("mc", dict(BASE_CONFIG, scenario=dict(CUSTOM_SCENARIO, components=[5])), "components[0]"),
    ("mc", dict(BASE_CONFIG, scenario=dict(CUSTOM_SCENARIO, extra_candidates={})),
     "extra_candidates"),
    ("mc", dict(BASE_CONFIG, scenario=dict(CUSTOM_SCENARIO, extra_candidates=[[1.0]])),
     "extra_candidates[0]"),
])
def test_config_section_of_wrong_type_exits_2(command, doc, key, config_path, capsys):
    rc, out, err = run([command, "--config", config_path(doc)], capsys)
    assert rc == 2
    assert out == ""
    assert f"{key} must be" in err


@pytest.mark.parametrize("command, doc, path", [
    ("mc", dict(BASE_CONFIG, trails=200), "trails"),
    ("tune", dict(TUNE_CONFIG, tune=dict(TUNE_CONFIG["tune"], grid_point=5)), "tune.grid_point"),
    ("consistency", {"consistency": {"d_n_sq": [10, 12], "ntotal": 5}}, "consistency.ntotal"),
    ("mc", dict(BASE_CONFIG, approach={"kind": "ml", "grid_point": 64}), "approach.grid_point"),
    ("mc", dict(BASE_CONFIG, criteria=[{"name": "gic", "kapa": 2}]), "criteria[0].kapa"),
    ("mc", dict(BASE_CONFIG, scenario=dict(CUSTOM_SCENARIO, noise_knwon=False)),
     "scenario.noise_knwon"),
    ("mc", dict(BASE_CONFIG, scenario=_custom(phase_envelop=[0.0] * 64)),
     "scenario.components[0].phase_envelop"),
    ("theory", dict(BASE_CONFIG, scenario=dict(CUSTOM_SCENARIO, max_order=5)),
     "scenario.max_order"),
], ids=["top", "tune", "consistency", "approach", "criterion", "scenario", "component",
        "scenario_max_order"])
def test_unknown_key_exits_2(command, doc, path, config_path, capsys):
    # each of these used to run, ignoring the misspelt key
    rc, out, err = run([command, "--config", config_path(doc)], capsys)
    assert rc == 2
    assert out == ""
    assert f"{path}: unknown key" in err


# the flags each subcommand takes beside --config, --seed, --out and --format
COMMAND_FLAGS = {"synth": (), "mc": ("--trials", "--snr-db"), "theory": ("--snr-db",),
                 "tune": ("--trials",), "ql-sweep": ("--trials",),
                 "bl-interval": ("--trials",), "consistency": ()}
UNREAD_FLAGS = [(command, flag) for command, flags in COMMAND_FLAGS.items()
                for flag in ("--trials", "--snr-db") if flag not in flags]


def test_each_subcommand_takes_the_flags_it_reads():
    assert set(COMMAND_FLAGS) == set(cli._COMMANDS)
    assert len(UNREAD_FLAGS) == 8
    for command, flags in COMMAND_FLAGS.items():
        assert cli._COMMANDS[command][1] == flags


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[f"{c}{f}" for c, f in UNREAD_FLAGS])
def test_flag_the_subcommand_does_not_read_exits_2(command, flag, config_path, capsys):
    # each of these used to run and ignore the flag (ql-sweep --snr-db=20
    # printed the -4 dB sweep)
    doc = dict(BASE_CONFIG, delta_omega_grid=[0.0, 0.002])
    with pytest.raises(SystemExit) as info:
        main([command, "--config", config_path(doc), f"{flag}=20"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert f"unrecognized arguments: {flag}=20" in err


@pytest.mark.parametrize("command", ["theory", "tune", "ql-sweep"])
@pytest.mark.parametrize("snr_db", [90.0, 180.0])
def test_noncentrality_past_the_kernel_range_exits_2(command, snr_db, config_path, capsys):
    # scipy's chndtr reads NaN there; gic used to print p_a = nan and exit 0
    doc = dict(BASE_CONFIG, scenario={"standard": {"snr_db": snr_db}},
               criteria=[{"name": "gic"}], snr_grid_db=[snr_db],
               delta_omega_grid=[0.0], tune=TUNE_CONFIG["tune"])
    rc, out, err = run([command, "--config", config_path(doc)], capsys)
    assert (rc, out) == (2, "")
    assert "past the range of the ncx2 kernel" in err


@pytest.mark.parametrize("command", ["ql-sweep", "bl-interval"])
def test_sweep_trials_below_the_floor_exits_2_without_eef(command, config_path, capsys):
    # only an eef sweep used to check --trials: gic and pmep-ir exited 0
    doc = dict(BL_INTERVAL_CONFIG, criteria=[{"name": "gic"}, {"name": "pmep-ir"}])
    doc.pop("approach")
    rc, out, err = run([command, "--config", config_path(doc), "--trials", "5"], capsys)
    assert (rc, out) == (2, "")
    assert "need at least 100 trials, got 5" in err


def _readme_block(language):
    """The first fenced code block of README.md in the given language."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        return fh.read().split(f"```{language}\n", 1)[1].split("```", 1)[0]


# the constructor parameters of each criterion name and approach kind, which
# the config reader takes as keys beside the name or kind, and a valid value
# of each
READER_KEYS = {"gic": ("upsilon",), "eef": (),
               "pmep-ir": ("kappa_ir",), "pmep-i": ("kappa_i",),
               "known": (), "bl": ("delta_omega", "frequencies"),
               "ml": ("grid_points", "refine_tol")}
READER_VALUES = {"upsilon": 3.0, "kappa_ir": 0.3, "kappa_i": 3.5,
                 "delta_omega": 0.002, "grid_points": 64, "refine_tol": 1e-4,
                 "frequencies": (sc.standard_scenario(-4.0).all_frequencies + 0.002).tolist()}


@pytest.mark.parametrize("section, key, value, make", [
    *(("criteria", "name", name, cls) for name, cls in sc.CRITERIA.items()),
    ("approach", "kind", "known", lambda: sc.KNOWN_FREQ),
    ("approach", "kind", "bl", sc.Bl),
    ("approach", "kind", "ml", sc.Ml),
], ids=[*sc.CRITERIA, "known", "bl", "ml"])
def test_config_reader_takes_each_constructor_parameter(section, key, value, make,
                                                        config_path, capsys):
    params = READER_KEYS[value]
    assert tuple(inspect.signature(make).parameters) == params
    args = cli.build_parser().parse_args(["synth", "--config", "unused"])
    path = "criteria[0]" if section == "criteria" else "approach"

    def doc(node):
        return dict(BASE_CONFIG, **{section: [node] if section == "criteria" else node})

    def built(node):
        cfg = cli.parse_config(doc(node), args)
        return cfg.criteria[0] if section == "criteria" else cfg.approach

    assert built({key: value}) == make()
    for param in params:
        assert built({key: value, param: READER_VALUES[param]}) == make(
            **{param: READER_VALUES[param]})
    # a misspelt key, and for known the keys of bl and ml
    for bad in ("kapa", *(("delta_omega", "grid_points") if value == "known" else ())):
        rc, out, err = run(["mc", "--config", config_path(doc({key: value, bad: 1}))], capsys)
        assert (rc, out) == (2, "")
        assert f"{path}.{bad}: unknown key" in err


def test_readme_example_config_runs(tmp_path, capsys):
    text = _readme_block("json")
    path = tmp_path / "readme.json"
    path.write_text(text)
    for command in ("synth", "consistency"):
        rc, out, err = run([command, "--config", str(path)], capsys)
        assert rc == 0, err
        assert out.startswith(f"# sincount {command} config_sha={config_sha(json.loads(text))}")


def test_readme_quick_start_runs(capsys):
    # a public name renamed in the package but not in the README fails here
    exec(compile(_readme_block("python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "3"
