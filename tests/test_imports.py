import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
from scipy.stats import binomtest

import sincount as sc

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.interpolate")


def _heavy_loaded_after(statements):
    """The HEAVY modules loaded in a fresh process (this suite itself has
    imported all three) after `import sys, sincount as sc` and statements."""
    src = os.path.dirname(os.path.dirname(sc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "; ".join(["import sys, sincount as sc", *statements,
                      f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))"])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_import_loads_no_heavy_scipy_module():
    assert _heavy_loaded_after([]) == "[]"


def test_ml_laws_and_their_abridged_formulas_load_no_heavy_scipy_module():
    # the ML laws' convolution grid interpolates without scipy.interpolate
    loaded = _heavy_loaded_after([
        'd = sc.component_dists(sc.standard_scenario(-4.0), mode="ml")',
        *(f"sc.abridged_for(d, sc.{spec})" for spec in ("Gic()", "PmepIr(0.25)", "PmepI(3.0)"))])
    assert loaded == "[]"


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
