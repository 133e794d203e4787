import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import binomtest

import sincount as sc

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.interpolate", "scipy.linalg")


def _printed_after(statements, expression):
    """What expression reads in a fresh process (this suite itself has
    imported every module) after `import sys, sincount as sc` and statements."""
    src = os.path.dirname(os.path.dirname(sc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "; ".join(["import sys, sincount as sc", *statements, f"print({expression})"])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def _heavy_loaded_after(statements):
    """The HEAVY modules loaded in a fresh process after `import sys,
    sincount as sc` and statements."""
    return _printed_after(statements, f"sorted(m for m in {HEAVY!r} if m in sys.modules)")


def test_import_loads_no_heavy_scipy_module():
    assert _heavy_loaded_after([]) == "[]"


def test_ml_laws_and_their_abridged_formulas_load_no_heavy_scipy_module():
    # the ML laws' convolution grid interpolates without scipy.interpolate
    loaded = _heavy_loaded_after([
        'd = sc.component_dists(sc.standard_scenario(-4.0), mode="ml")',
        *(f"sc.abridged_for(d, sc.{spec})" for spec in ("Gic()", "PmepIr(0.25)", "PmepI(3.0)"))])
    assert loaded == "[]"


def test_tune_and_estimate_load_no_heavy_scipy_module():
    # tune refines with the ML search's refiner, and numpy factors the Gram
    # matrix, under either objective and either approach
    loaded = _heavy_loaded_after([
        "s = sc.standard_scenario(-4.0)",
        'sc.tune("pmep-ir", s, search_range=(0.15, 0.35), grid_points=5)',
        'sc.tune("pmep-i", s, objective="monte_carlo", search_range=(2.0, 4.0), grid_points=5, '
        "trials=300)",
        "sc.estimate(s, [sc.Gic()], sc.KNOWN_FREQ, 300, 1)",
        "sc.estimate(s, [sc.Gic()], sc.Ml(grid_points=16), 100, 1)"])
    assert loaded == "[]"


def test_monte_carlo_path_loads_no_scipy_and_no_theory(tmp_path):
    # the package resolves the closed-form exports on first access, and the
    # CLI imports theory and tuner in the subcommands that use them
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({"scenario": {"standard": {"snr_db": 0}},
                                  "criteria": [{"name": "gic"}, {"name": "pmep-i"}]}))
    run = f"from sincount import cli; cli.main([{{}}, '--config', {str(config)!r}, " \
          f"'--out', {str(tmp_path / 'out.csv')!r}])"
    loaded = _printed_after([
        "s = sc.standard_scenario(-4.0)",
        "sc.estimate(s, [sc.Gic()], sc.KNOWN_FREQ, 10000, 1)",
        "sc.estimate(s, [sc.Gic()], sc.Bl(0.004), 10000, 1)",
        "sc.estimate(s, [sc.Gic()], sc.Ml(grid_points=16), 100, 1)",
        "sc.select_order(sc.Gic(), sc.synthesize(s, 3), sc.Ml(grid_points=16), s)",
        run.format("'mc', '--trials', '200', '--snr-db=0'"),
        run.format("'synth'")],
        "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'sincount.theory')")
    assert loaded == "[]"
    # every lazy export is listed in __all__, and every name there resolves
    assert set(sc._LAZY_HOME) <= set(sc.__all__)
    assert _printed_after(["from sincount import *"],
                          "sorted(set(sc.__all__) - set(globals()))") == "[]"
    assert "tune" in dir(sc) and sc.tune is sc.tuner.tune
    assert sc.ql_sweep is sc.theory.ql_sweep and sc.Dist is sc.distributions.Dist
    with pytest.raises(AttributeError, match="no_such_name"):
        sc.no_such_name


def _p_value(k, n):
    """paired_compare's p-value for k of n discordant trials going to a."""
    a = np.arange(n) < k

    def report(correct):
        return SimpleNamespace(trials=n, master_seed=0, scenario_key="", correct=correct,
                               p_e=0.0)

    return sc.paired_compare(report(a), report(~a)).p_value


def _rel_gap(got, want):
    return abs(got - want) / want if want else abs(got)


def test_paired_compare_p_value_is_exact_binomial():
    # every k at n < 400 against exact integer arithmetic:
    # min(1, 2 sum_{i <= min(k, n - k)} C(n, i) / 2^n)
    worst = 0.0
    for n in range(1, 400):
        tail = list(accumulate(math.comb(n, i) for i in range(n // 2 + 1)))
        for k in range(n + 1):
            exact = min(1.0, float(Fraction(2 * tail[min(k, n - k)], 2**n)))
            worst = max(worst, _rel_gap(_p_value(k, n), exact))
    assert worst <= 1e-12
    # binomtest, the test paired_compare used before, as the oracle: every k
    # at small and selected n, and tails and centre at n up to 20000
    cases = [(k, n) for n in (*range(1, 31), 64, 101, 255, 399) for k in range(n + 1)]
    cases += [(n // 2 - d, n) for n in (1000, 4999, 20000)
              for d in (0, 1, 2, 10, 30, 100, 300, 500, n // 2)]
    for k, n in cases:
        want = binomtest(k, n, 0.5, alternative="two-sided").pvalue
        assert _rel_gap(_p_value(k, n), want) <= 1e-12, (k, n)
