"""Seeded Monte Carlo estimation of selection error probabilities.

Trials draw observations with per-trial seeds split from a master seed,
compute one log-likelihood ladder per approach, and evaluate every
criterion on the same statistics, so comparisons between criteria are
paired.  Aggregates are identical for any chunking or worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .criteria import abridged_comparisons, argmin_order, decision_values
from .errors import ValidationError, nonneg_int
from .likelihood import Bl, Ml, FrequencyPlan, approach_frequencies, ml_search_increments
from .signal_model import clean_signal, scenario_to_dict

_CHUNK = 65536
# trials per ML search call.  Rows are searched independently, so the size
# never changes a result, only cost: per-trial time falls and the search's
# peak memory grows with it (16 trials: 1.1-1.3 ms per trial, 1.4 MiB; 64:
# 0.6-0.8 ms, 4.1 MiB; 400: 0.45-0.6 ms, 22 MiB on 2 shared Xeon cores)
_ML_BLOCK = 64
_Z95 = 1.959963984540054


# numpy's SeedSequence hash at its default pool size of 4, written over
# 32-bit words held in Python ints or uint64 arrays: every product is of two
# masked words, so it fits in 64 bits, and the same code hashes one index or
# an array of them
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4


def _words32(n):
    """Little-endian 32-bit words of a nonnegative int, at least one."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_state(entropy):
    """SeedSequence(entropy).generate_state(1, np.uint64) for a list of
    32-bit entropy words, each a Python int or a uint64 array."""
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = (hash_a * _MULT_A) & _MASK32
        value = (value * hash_a) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        # a uint64 difference wraps modulo 2**64 and a Python int one goes
        # negative; either way the mask leaves it modulo 2**32
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_b = _INIT_B
    out = []
    for word in pool[:2]:
        value = word ^ hash_b
        hash_b = (hash_b * _MULT_B) & _MASK32
        value = (value * hash_b) & _MASK32
        out.append(value ^ (value >> _XSHIFT))
    return out[0] | (out[1] << 32)


def _trial_keys(master_seed, index):
    """trial_seed of a Python int index, or of every entry of a uint64 index array."""
    words = _words32(master_seed)
    if isinstance(index, int):
        return _seed_state(words + _words32(index))
    low, high = index & _MASK32, index >> 32
    keys = _seed_state(words + [low])
    wide = high > 0
    if wide.any():
        # an index >= 2**32 contributes a second entropy word
        keys = np.where(wide, _seed_state(words + [low, high]), keys)
    return keys


def trial_seed(master_seed, index):
    """Noise seed of one trial, split from the master seed.

    Equals SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0],
    so any trial can be regenerated in isolation and the assignment does not
    depend on how trials are batched or scheduled.
    """
    return _trial_keys(nonneg_int(master_seed, "master_seed"), nonneg_int(index, "index"))


def _noise_rows(scenario, master_seed, start, count):
    """Clean signal plus scaled noise for trials start..start+count-1.

    One Philox generator serves the whole chunk: before each trial its state
    is reset to that of a fresh Philox(key=trial_seed(...)) (key [k, 0], zero
    counter, empty buffer), so every row is bit for bit the row synthesize
    draws.
    """
    keys = _trial_keys(master_seed, np.arange(start, start + count, dtype=np.uint64))
    out = np.empty((count, scenario.n_samples))
    bit_gen = np.random.Philox(key=0)
    rng = np.random.Generator(bit_gen)
    state = bit_gen.state
    key = state["state"]["key"]
    for row, trial_key in zip(out, keys.tolist()):
        key[0] = trial_key
        bit_gen.state = state
        rng.standard_normal(out=row)
    out *= scenario.noise_level
    out += clean_signal(scenario)
    return out


def batch_samples(scenario, master_seed, start, count):
    """Observations for trials start..start+count-1, one per row.

    Row k equals synthesize(scenario, trial_seed(master_seed, start + k)).
    """
    master_seed = nonneg_int(master_seed, "master_seed")
    start, count = nonneg_int(start, "start"), nonneg_int(count, "count")
    if scenario.noise_level == 0:
        return np.tile(clean_signal(scenario), (count, 1))
    return _noise_rows(scenario, master_seed, start, count)


def collect_logliks(scenario, approach, trials, master_seed):
    """Log-likelihood ladders L_1..L_N for all trials, shape (trials, N).

    BL/known approaches run fully vectorized; the ML approach runs the
    greedy frequency search on blocks of _ML_BLOCK trials.  Trials whose
    statistics degenerate (ML only) come back as NaN rows.
    """
    nonneg_int(master_seed, "master_seed")
    n_orders = scenario.max_order
    out = np.empty((trials, n_orders))
    if isinstance(approach, Bl):
        plan = FrequencyPlan.build(scenario, approach_frequencies(scenario, approach))
        for start in range(0, trials, _CHUNK):
            count = min(_CHUNK, trials - start)
            samples = batch_samples(scenario, master_seed, start, count)
            out[start:start + count] = plan.logliks_batch(samples)
        return out
    if not isinstance(approach, Ml):
        raise ValidationError("approach must be an Ml or Bl instance")
    for start in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - start)
        samples = batch_samples(scenario, master_seed, start, count)
        for sub in range(0, count, _ML_BLOCK):
            _, incs = ml_search_increments(
                samples[sub:sub + _ML_BLOCK], n_orders, scenario,
                grid_points=approach.grid_points, refine_tol=approach.refine_tol)
            out[start + sub:start + sub + incs.shape[0]] = 0.5 * np.cumsum(incs, axis=1)
    return out


def _wilson(p, n):
    """95% Wilson score interval (Wilson 1927) for a proportion p of n trials;
    unlike the normal interval it keeps a positive width at p = 0 and p = 1."""
    if n == 0:
        return (0.0, 1.0)
    z2 = _Z95**2
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    # the bounds are the roots of denom*x^2 - (2p + z^2/n)*x + p^2, so
    # lower * upper = p^2 / denom, and the same holds for 1 - p; taking each
    # bound from its product keeps it exact at p = 0 and p = 1, where
    # center -/+ half cancels to rounding noise
    return (p * p / (denom * (center + half)),
            1.0 - (1.0 - p) ** 2 / (denom * (1.0 - center + half)))


def scenario_fingerprint(scenario):
    doc = json.dumps(scenario_to_dict(scenario), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class McReport:
    """Error-probability estimates of one criterion on one trial set;
    p_e_ci and p_a_ci are 95% Wilson score intervals."""

    criterion: object
    approach_label: str
    trials: int
    p_e: float
    p_e_ci: tuple
    p_a: float
    p_a_ci: tuple
    offsets: np.ndarray
    histogram: np.ndarray
    ratio_gt1_eq1: float
    master_seed: int
    degenerate: int
    degenerate_warning: bool
    scenario_key: str
    correct: np.ndarray = field(repr=False, default=None)
    abridged_correct: np.ndarray = field(repr=False, default=None)

    def to_dict(self):
        """JSON-ready summary (per-trial indicator arrays omitted)."""
        return {
            "criterion": getattr(self.criterion, "name", str(self.criterion)),
            "approach": self.approach_label,
            "trials": self.trials,
            "p_e": self.p_e,
            "p_e_ci": list(self.p_e_ci),
            "p_a": self.p_a,
            "p_a_ci": list(self.p_a_ci),
            "histogram": {int(o): int(c) for o, c in zip(self.offsets, self.histogram)},
            "ratio_gt1_eq1": None if math.isnan(self.ratio_gt1_eq1) else self.ratio_gt1_eq1,
            "master_seed": self.master_seed,
            "degenerate": self.degenerate,
            "degenerate_warning": self.degenerate_warning,
        }


def estimate(scenario, specs, approach, trials, master_seed):
    """Estimate p_e and p_a for each criterion over seeded trials.

    All criteria see the same log-likelihood ladders; p_e counts argmin
    mismatches, p_a the two-neighbor abridged event (single available
    neighbor at the boundary orders).
    """
    if trials < 100:
        raise ValidationError(f"need at least 100 trials, got {trials}")
    nu0, n_orders = scenario.nu0, scenario.max_order
    logliks = collect_logliks(scenario, approach, trials, master_seed)
    valid = ~np.isnan(logliks[:, 0])
    degenerate = int(trials - valid.sum())
    logliks = logliks[valid]
    n_eff = logliks.shape[0]
    if n_eff == 0:
        raise ValidationError("all trials degenerated; scenario is ill-posed")
    key = scenario_fingerprint(scenario)
    under, over = abridged_comparisons(nu0, n_orders)
    reports = []
    for spec in specs:
        values = decision_values(spec, logliks,
                                 params_per_signal=approach.params_per_signal)
        nu_hat = argmin_order(values)
        correct = nu_hat == nu0
        under_holds = values[:, nu0 - 1] < values[:, nu0 - 2] if under else True
        over_holds = values[:, nu0 - 1] <= values[:, nu0] if over else True
        abridged_correct = np.full(n_eff, True) & under_holds & over_holds
        p_e = 1.0 - float(np.mean(correct))
        p_a = 1.0 - float(np.mean(abridged_correct))
        counts = np.bincount(nu_hat, minlength=n_orders + 1)[1:]
        offsets = np.arange(1, n_orders + 1) - nu0
        n_eq1 = int(counts[np.abs(offsets) == 1].sum())
        n_gt1 = int(counts[np.abs(offsets) > 1].sum())
        ratio = n_gt1 / n_eq1 if n_eq1 > 0 else math.nan
        reports.append(McReport(
            criterion=spec,
            approach_label=approach.label,
            trials=n_eff,
            p_e=p_e,
            p_e_ci=_wilson(p_e, n_eff),
            p_a=p_a,
            p_a_ci=_wilson(p_a, n_eff),
            offsets=offsets,
            histogram=counts,
            ratio_gt1_eq1=ratio,
            master_seed=int(master_seed),
            degenerate=degenerate,
            degenerate_warning=degenerate > 0.01 * trials,
            scenario_key=key,
            correct=correct,
            abridged_correct=abridged_correct,
        ))
    return reports


@dataclass(frozen=True)
class PairedComparison:
    """McNemar-style paired significance record for two matched runs."""

    trials: int
    a_only_correct: int
    b_only_correct: int
    p_e_diff: float
    p_value: float


def paired_compare(report_a, report_b):
    """Paired test of p_e between two reports from the same trial set.

    Only the discordant trials (exactly one report correct) carry
    information; their split is tested against a fair coin (McNemar
    1947).  The exact two-sided p-value is twice the binomial tail of the
    smaller count k of n, capped at 1: P(Bin(n, 1/2) <= k) is the
    regularized incomplete beta I_{1/2}(n - k, k + 1).
    """
    for attr in ("trials", "master_seed", "scenario_key"):
        if getattr(report_a, attr) != getattr(report_b, attr):
            raise ValidationError(f"reports differ in {attr}; pairing is invalid")
    if report_a.correct is None or report_b.correct is None:
        raise ValidationError("reports lack per-trial indicators")
    a_only = int(np.sum(report_a.correct & ~report_b.correct))
    b_only = int(np.sum(report_b.correct & ~report_a.correct))
    n_disc = a_only + b_only
    k = min(a_only, b_only)
    p_value = 1.0 if n_disc == 0 else min(1.0, 2.0 * float(betainc(n_disc - k, k + 1, 0.5)))
    return PairedComparison(
        trials=report_a.trials,
        a_only_correct=a_only,
        b_only_correct=b_only,
        p_e_diff=report_a.p_e - report_b.p_e,
        p_value=p_value,
    )
