import hashlib
import json
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
