import hashlib
import json
import math
import os

import pytest

import sincount as sc
from sincount import cli
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


def test_eef_theory_request_exits_2(config_path, capsys):
    doc = dict(BASE_CONFIG)
    doc["criteria"] = [{"name": "eef"}]
    rc, _, err = run(["theory", "--config", config_path(doc)], capsys)
    assert rc == 2
    assert "eef" in err


def test_theory_unknown_noise_off_unit_level_exits_2(config_path, capsys):
    doc = dict(BASE_CONFIG)
    doc["scenario"] = {"standard": {"snr_db": 0.0, "noise_level": 2.0,
                                    "noise_known": False}}
    rc, out, err = run(["theory", "--config", config_path(doc)], capsys)
    assert rc == 2
    assert out == ""
    assert "noise" in err


@pytest.mark.parametrize("command", ["synth", "mc"])
def test_negative_seed_flag_exits_2(command, config_path, capsys):
    rc, out, err = run([command, "--config", config_path(BASE_CONFIG),
                        "--seed", "-1"], capsys)
    assert rc == 2
    assert out == ""
    assert "seed" in err


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
        "max_order": 2,
        "noise_known": True,
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
    ({"criteria": [{"name": "gic", "kappa": "x"}]}, [], "criteria[0]: kappa"),
    ({"criteria": [{"name": "pmep-i", "kappa_i": math.inf}]}, [], "criteria[0]: kappa_i"),
    ({"criteria": [{"name": "pmep-ir", "kappa_ir": True}]}, [], "criteria[0]: kappa_ir"),
    ({"criteria": [{"name": "gic", "upsilon": "2"}]}, [], "criteria[0]: upsilon"),
    ({"approach": {"kind": "ml", "refine_tol": "1e-6"}}, [], "approach: refine_tol"),
    ({"approach": {"kind": "bl", "frequencies": [1.0, True]}}, [], "frequencies[1]"),
    ({"consistency": {"n_total": 5}}, [], "consistency.d_n_sq: required"),
])
def test_invalid_numeric_config_exits_2(change, argv, key, config_path, capsys):
    doc = dict(BASE_CONFIG, **change)
    rc, out, err = run(["mc", "--config", config_path(doc), *argv], capsys)
    assert rc == 2
    assert out == ""
    assert key in err


@pytest.mark.parametrize("command", ["synth", "theory"])
@pytest.mark.parametrize("key", ["foo", "snr_value_db"])
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


@pytest.mark.parametrize("command, doc, key", [
    ("theory", dict(BASE_CONFIG, approach="ml"), "approach"),
    ("mc", dict(BASE_CONFIG, scenario="x"), "scenario"),
    ("mc", dict(BASE_CONFIG, scenario={"standard": "x"}), "scenario.standard"),
    ("mc", dict(BASE_CONFIG, criteria={"name": "gic"}), "criteria"),
    ("mc", dict(BASE_CONFIG, criteria=["gic"]), "criteria[0]"),
    ("tune", dict(TUNE_CONFIG, tune=dict(TUNE_CONFIG["tune"], refine="false")), "tune.refine"),
    ("tune", dict(TUNE_CONFIG, tune="pmep-ir"), "tune"),
    ("consistency", {"consistency": [1.0]}, "consistency"),
    ("theory", dict(BASE_CONFIG, scenario={"standard": {"snr_db": -4.0, "noise_level": 2.0,
                                                        "noise_known": "false"}}),
     "noise_known"),
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
    ("mc", dict(BASE_CONFIG, criteria=[{"name": "aic", "upsilon": 3}]), "criteria[0].upsilon"),
    ("mc", dict(BASE_CONFIG, scenario=dict(CUSTOM_SCENARIO, noise_knwon=False)),
     "scenario.noise_knwon"),
    ("mc", dict(BASE_CONFIG, scenario=_custom(phase_envelop=[0.0] * 64)),
     "scenario.components[0].phase_envelop"),
], ids=["top", "tune", "consistency", "approach", "criterion", "aic_upsilon",
        "scenario", "component"])
def test_unknown_key_exits_2(command, doc, path, config_path, capsys):
    # each of these used to run, ignoring the misspelt key
    rc, out, err = run([command, "--config", config_path(doc)], capsys)
    assert rc == 2
    assert out == ""
    assert f"{path}: unknown key" in err


def test_readme_example_config_runs(tmp_path, capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        text = fh.read().split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(text)
    for command in ("synth", "consistency"):
        rc, out, err = run([command, "--config", str(path)], capsys)
        assert rc == 0, err
        assert out.startswith(f"# sincount {command} config_sha={config_sha(json.loads(text))}")
