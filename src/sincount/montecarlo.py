"""Seeded Monte Carlo estimation of selection error probabilities.

Trials draw observations with per-trial seeds split from a master seed,
compute one log-likelihood ladder per approach, and evaluate every
criterion on the same statistics, so comparisons between criteria are
paired.  Aggregates do not depend on how the trials are split into blocks.

Trial k's noise is the standard normals of a fresh
Generator(Philox(key=trial_seed(master_seed, k))).  _fill_samples, which
batch_samples and each block of the trial loop call, draws them with one
call per trial of numpy's random_standard_normal_fill, the C
function behind Generator.standard_normal, on a record laid out as a fresh
Philox; an import-time check verifies that layout against the installed
numpy, and where it fails each trial goes through the public Philox state
setter instead, with the same streams.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .criteria import abridged_comparisons, argmin_order, checked_ladders
from .errors import ValidationError, nonneg_int
from .likelihood import ladder_function
from .signal_model import clean_signal, scenario_to_dict

# bytes of observations per block of the trial loop, 4096 rows at 64
# samples: one buffer per call, refilled for each block, so memory does not
# grow with trials x samples, and a block's arrays stay under numpy's 4 MB
# huge-page threshold and in the cache
_BLOCK_BYTES = 2**21
_MIN_TRIALS = 100
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


class _PhiloxState(ctypes.Structure):
    """numpy's C philox_state (numpy/random/src/philox/philox.h): pointers,
    read as integers, to the four counter words and the two key words; the
    read position in the four-word output buffer; the buffer; and the saved
    upper half of a uint64 split into two uint32 draws."""

    _fields_ = [("ctr", ctypes.c_size_t), ("key", ctypes.c_size_t),
                ("buffer_pos", ctypes.c_int), ("buffer", ctypes.c_uint64 * 4),
                ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]


_DRAWS = ("next_uint64", "next_uint32", "next_double", "next_raw")


class _BitGen(ctypes.Structure):
    """numpy's bitgen_t (numpy/random/bitgen.h, a public header): a pointer
    to the generator's state and its four draw functions, read as integers."""

    _fields_ = [("state", ctypes.c_size_t)] + [(name, ctypes.c_size_t) for name in _DRAWS]


class _PhiloxRecord(ctypes.Structure):
    """One Philox generator in flat memory: a bitgen_t whose state pointer
    points at the philox_state after it, whose counter and key pointers point
    at the two arrays after that."""

    _fields_ = [("bitgen", _BitGen), ("state", _PhiloxState),
                ("counter", ctypes.c_uint64 * 4), ("key", ctypes.c_uint64 * 2)]


_PHILOX_BUFFER_SIZE = 4
_RECORD = np.dtype(_PhiloxRecord)
# records reused per block of rows: about 150 KB, so no array grows with the
# trial count
_RECORD_BLOCK = 1024
# the function behind Generator.standard_normal; numpy's own cffi example
# (numpy/random/_examples/cffi/extending.py) calls it from the same library
_FILL_SYMBOL = "random_standard_normal_fill"

# a Philox state with no field at its fresh value: a used counter, a two-word
# key, a partly read buffer and a saved half word
_DIRTY_PHILOX = {
    "bit_generator": "Philox",
    "state": {"counter": np.array([5, 6, 7, 2**63 + 8], dtype=np.uint64),
              "key": np.array([0x0123456789ABCDEF, 0xFEDCBA9876543210], dtype=np.uint64)},
    "buffer": np.array([9, 10, 11, 12], dtype=np.uint64),
    "buffer_pos": 2,
    "has_uint32": 1,
    "uinteger": 0x89ABCDEF,
}


def _words(address, count):
    """A uint64 array over count words of memory at address."""
    return np.ctypeslib.as_array((ctypes.c_uint64 * count).from_address(address))


def _rekey_by_setter(bit_gen):
    """A function of a key k that sets bit_gen to the state of a fresh
    Philox(key=k), through the public state setter."""
    state = np.random.Philox(key=0).state
    key = state["state"]["key"]

    def rekey(trial_key):
        key[0] = trial_key
        bit_gen.state = state

    return rekey


def _noise_by_setter(out, keys):
    """Fill row k of out with the standard normals of a fresh
    Generator(Philox(key=keys[k])): one Philox, set for each row through the
    public state setter."""
    bit_gen = np.random.Philox(key=0)
    rng = np.random.Generator(bit_gen)
    rekey = _rekey_by_setter(bit_gen)
    for row, trial_key in zip(out, keys.tolist()):
        rekey(trial_key)
        rng.standard_normal(out=row)


def _philox_records(count, functions):
    """count zeroed records with their state, counter and key pointers set
    and the four draw-function addresses of a real Philox copied in;
    _rekey_records makes them fresh generators."""
    records = np.zeros(count, _RECORD)
    addresses = np.uint64(records.ctypes.data) + np.uint64(_RECORD.itemsize) * np.arange(
        count, dtype=np.uint64)
    bitgen, state = records["bitgen"], records["state"]
    bitgen["state"] = addresses + np.uint64(_PhiloxRecord.state.offset)
    for name, address in zip(_DRAWS, functions):
        bitgen[name] = address
    state["ctr"] = addresses + np.uint64(_PhiloxRecord.counter.offset)
    state["key"] = addresses + np.uint64(_PhiloxRecord.key.offset)
    return records


def _rekey_records(records, keys):
    """Set records[k] to the state of a fresh Philox(key=keys[k]) for each
    key: key [k, 0], a zero counter, an empty buffer and no saved half word.
    The buffer's contents are left, as no draw reads them before refilling
    it."""
    block = records[:len(keys)]
    block["key"][:, 0] = keys
    block["key"][:, 1] = 0
    block["counter"] = 0
    block["state"]["buffer_pos"] = _PHILOX_BUFFER_SIZE
    block["state"]["has_uint32"] = 0


def _noise_by_fill(fill, functions, out, keys):
    """Fill row k of out, a C-contiguous float array, with the standard
    normals of a fresh Generator(Philox(key=keys[k])): one call of fill,
    numpy's random_standard_normal_fill, per row, on a record rekeyed for it.
    The records are reused for each block of _RECORD_BLOCK rows."""
    n_rows, n_cols = out.shape
    records = _philox_records(min(n_rows, _RECORD_BLOCK), functions)
    first_record, record_size, row_size = records.ctypes.data, records.itemsize, out.strides[0]
    for start in range(0, n_rows, _RECORD_BLOCK):
        block_keys = keys[start:start + _RECORD_BLOCK]
        _rekey_records(records, block_keys)
        first_row = out.ctypes.data + start * row_size
        for record, row in zip(
                range(first_record, first_record + len(block_keys) * record_size, record_size),
                range(first_row, first_row + len(block_keys) * row_size, row_size)):
            fill(record, n_cols, row)


def _inside(obj, address, nbytes):
    """Whether nbytes at address lie inside the memory of the object obj."""
    start = id(obj)
    return start <= address and address + nbytes <= start + type(obj).__basicsize__


def _layout_matches(bit_gen):
    """Whether _PhiloxState, read at bit_gen's state address, holds what
    bit_gen.state reports.  Each address is checked to lie inside the Philox
    object before it is read, so a different layout reads wrong values, never
    unmapped memory; nothing is written."""
    address = bit_gen.ctypes.state_address
    if not _inside(bit_gen, address, ctypes.sizeof(_PhiloxState)):
        return False
    state = _PhiloxState.from_address(address)
    if not (_inside(bit_gen, state.key, 16) and _inside(bit_gen, state.ctr, 32)):
        return False
    report = bit_gen.state
    return (_words(state.key, 2).tolist() == report["state"]["key"].tolist()
            and _words(state.ctr, 4).tolist() == report["state"]["counter"].tolist()
            and list(state.buffer) == report["buffer"].tolist()
            and (state.buffer_pos, state.has_uint32, state.uinteger)
            == (report["buffer_pos"], report["has_uint32"], report["uinteger"]))


def _bitgen_functions(bit_gen):
    """The addresses of bit_gen's four draw functions, copied out of its
    bitgen_t, when _BitGen read there holds the state address and the three
    function pointers that bit_gen.ctypes reports (it does not report
    next_raw); else None.  The address is checked to lie inside the object
    before it is read, and nothing is written."""
    interface = bit_gen.ctypes
    address = interface.bit_generator.value
    if not _inside(bit_gen, address, ctypes.sizeof(_BitGen)):
        return None
    bitgen = _BitGen.from_address(address)
    functions = tuple(getattr(bitgen, name) for name in _DRAWS)
    reported = tuple(ctypes.cast(getattr(interface, name), ctypes.c_void_p).value
                     for name in _DRAWS[:3])
    if bitgen.state != interface.state_address or functions[:3] != reported:
        return None
    return functions


def _load_fill():
    """numpy's random_standard_normal_fill(bitgen_t *, npy_intp, double *),
    resolved from the library of numpy.random's Generator; None where it does
    not resolve."""
    # PyDLL keeps the interpreter lock through the call: a 64-normal fill is
    # short, and releasing and retaking the lock for each trial costs more
    try:
        fill = getattr(ctypes.PyDLL(np.random._generator.__file__), _FILL_SYMBOL)
    except (OSError, AttributeError):
        return None
    fill.argtypes = (ctypes.c_void_p, np.ctypeslib.c_intp, ctypes.c_void_p)
    fill.restype = None
    return fill


def _soil(records):
    """Set every state field of records to its value in _DIRTY_PHILOX."""
    state = records["state"]
    records["counter"] = _DIRTY_PHILOX["state"]["counter"]
    records["key"] = _DIRTY_PHILOX["state"]["key"]
    state["buffer"] = _DIRTY_PHILOX["buffer"]
    for name in ("buffer_pos", "has_uint32", "uinteger"):
        state[name] = _DIRTY_PHILOX[name]


def _choose_noise():
    """_noise_by_fill where three checks on the installed numpy pass, in
    this order, else _noise_by_setter.  First, read only: on a Philox whose
    state has no field at its fresh value, _PhiloxState must read what the
    public state reports, and its bitgen_t must read back its state address
    and draw functions.  Second, random_standard_normal_fill must resolve.
    Third, a record with every state field used, rekeyed to a key below
    2**63 and to one above, must give the 64 normals of a fresh
    Generator(Philox(key=k)), bit for bit.  No C function sees a record
    before the first two pass."""
    bit_gen = np.random.Philox(key=0)
    bit_gen.state = _DIRTY_PHILOX
    functions = _bitgen_functions(bit_gen) if _layout_matches(bit_gen) else None
    fill = _load_fill() if functions else None
    if fill is None:
        return _noise_by_setter
    records = _philox_records(1, functions)
    row = np.empty(64)
    for trial_key in (0x2545F4914F6CDD1D, 2**64 - 59):
        _soil(records)
        _rekey_records(records, np.array([trial_key], dtype=np.uint64))
        fill(records.ctypes.data, row.size, row.ctypes.data)
        fresh = np.random.Generator(np.random.Philox(key=trial_key))
        if row.tobytes() != fresh.standard_normal(row.size).tobytes():
            return _noise_by_setter
    return functools.partial(_noise_by_fill, fill, functions)


_noise = _choose_noise()


def _fill_samples(out, scenario, signal, master_seed, start):
    """Fill row k of out, a C-contiguous float array, with the observation of
    trial start + k: the clean signal plus sigma0 times the normals of a
    fresh Generator(Philox(key=trial_seed(master_seed, start + k))).
    master_seed is an int; signal is clean_signal(scenario)."""
    keys = _trial_keys(master_seed, np.arange(start, start + out.shape[0], dtype=np.uint64))
    _noise(out, keys)
    out *= scenario.noise_level
    out += signal


def batch_samples(scenario, master_seed, start, count):
    """Observations for trials start..start+count-1, one per row: clean
    signal plus scaled noise.  Trial indices are below 2**64: a ValidationError
    when start + count exceeds 2**64.

    Row k equals synthesize(scenario, trial_seed(master_seed, start + k)), the
    normals of a fresh Generator(Philox(key=trial_seed(...))).  Where the
    import-time check _choose_noise passes, each row is one call of numpy's
    random_standard_normal_fill, the function behind Generator.standard_normal,
    on a Philox record (key [k, 0], zero counter, empty buffer) written with
    whole-column array writes for a block of rows at a time.  Otherwise one
    Philox is set for each row through the public state setter.
    """
    master_seed = nonneg_int(master_seed, "master_seed")
    start, count = nonneg_int(start, "start"), nonneg_int(count, "count")
    if start + count > 2**64:
        raise ValidationError(
            f"trial indices must be below 2**64, got start {start} and count {count}")
    out = np.empty((count, scenario.n_samples))
    _fill_samples(out, scenario, clean_signal(scenario), master_seed, start)
    return out


def _trial_blocks(scenario, approach, trials, master_seed):
    """The trial loop: (start, ladders of trials start, start + 1, ...) per
    block of _BLOCK_BYTES of observations in one reused buffer, a degenerate
    trial's (ML only) a NaN row; no row depends on the block size."""
    block_ladders = ladder_function(scenario, approach)
    signal = clean_signal(scenario)
    step = max(1, _BLOCK_BYTES // (8 * scenario.n_samples))
    block = np.empty((min(step, trials), scenario.n_samples))
    for start in range(0, trials, step):
        rows = block[:trials - start]
        _fill_samples(rows, scenario, signal, master_seed, start)
        yield start, block_ladders(rows)[0]


def collect_logliks(scenario, approach, trials, master_seed):
    """Log-likelihood ladders L_1..L_N of all trials, shape (trials, N),
    stored from each block of the trial loop, NaN rows included.  No library
    code calls it: it is the whole-set view of the trial loop that the
    benchmark's traced replay and the tests' oracles read."""
    master_seed = nonneg_int(master_seed, "master_seed")
    trials = nonneg_int(trials, "trials")
    out = np.empty((trials, scenario.max_order))
    for start, ladders in _trial_blocks(scenario, approach, trials, master_seed):
        out[start:start + ladders.shape[0]] = ladders
    return out


def checked_trials(trials):
    """trials as an int; a ValidationError unless it is an integer of at
    least _MIN_TRIALS."""
    trials = nonneg_int(trials, "trials")
    if trials < _MIN_TRIALS:
        raise ValidationError(f"need at least {_MIN_TRIALS} trials, got {trials}")
    return trials


def _wilson(p, n):
    """95% Wilson score interval (Wilson 1927) for a proportion p of n trials;
    unlike the normal interval it keeps a positive width at p = 0 and p = 1."""
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
    p_e_ci and p_a_ci are 95% Wilson score intervals.  indicators packs
    correct and abridged_correct (rows 0 and 1) one bit per trial, and each
    access to either unpacks a new bool array."""

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
    indicators: np.ndarray = field(repr=False, default=None)

    def _unpacked(self, row):
        return None if self.indicators is None else np.unpackbits(
            self.indicators[row], count=self.trials).view(bool)

    correct = property(lambda self: self._unpacked(0))
    abridged_correct = property(lambda self: self._unpacked(1))

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

    All criteria see the same ladders, at least _MIN_TRIALS trials, the
    degenerate ones left out and counted.  p_e counts argmin mismatches, p_a
    the two-neighbor abridged event (one neighbor at the boundary orders).
    Each block of the trial loop is reduced as it comes, so memory holds one
    block and each report's correct and abridged_correct, a bit per trial.
    An empty specs is a ValidationError, raised before any trial runs.
    """
    trials, master_seed = checked_trials(trials), nonneg_int(master_seed, "master_seed")
    specs = list(specs)
    if not specs:
        raise ValidationError("estimate needs at least one criterion")
    nu0, n_orders, pps = scenario.nu0, scenario.max_order, approach.params_per_signal
    under, over = abridged_comparisons(nu0, n_orders)
    # each criterion's two indicators, a bit per trial; the bits of a block's
    # partial last byte (at most 7) start the next block's staging, repacked
    packed = np.empty((len(specs), 2, -(-trials // 8)), dtype=np.uint8)
    hits = np.zeros((len(specs), 2), dtype=np.intp)
    histograms = np.zeros((len(specs), n_orders), dtype=np.intp)
    n_eff = carry = 0
    for start, ladders in _trial_blocks(scenario, approach, trials, master_seed):
        if not start:  # the first block is the largest
            staging = np.empty((len(specs), 2, 7 + ladders.shape[0]), dtype=bool)
        # a degenerate trial's NaN row is left out, the rest checked
        valid = ~np.isnan(ladders[:, 0])
        ladders = checked_ladders(ladders if valid.all() else ladders[valid])
        done = slice(carry, carry + ladders.shape[0])
        for j, spec in enumerate(specs):
            values = spec.values(ladders, params_per_signal=pps)
            nu_hat = argmin_order(values)
            np.equal(nu_hat, nu0, out=staging[j, 0, done])
            np.logical_and(values[:, nu0 - 1] < values[:, nu0 - 2] if under else True,
                           values[:, nu0 - 1] <= values[:, nu0] if over else True,
                           out=staging[j, 1, done])
            histograms[j] += np.bincount(nu_hat, minlength=n_orders + 1)[1:]
        hits += np.count_nonzero(staging[:, :, done], axis=-1)
        bits = np.packbits(staging[:, :, :done.stop], axis=-1)
        packed[:, :, n_eff // 8:n_eff // 8 + bits.shape[-1]] = bits
        n_eff, carry = n_eff + ladders.shape[0], done.stop % 8
        staging[:, :, :carry] = staging[:, :, done.stop - carry:done.stop]
    if not n_eff:
        raise ValidationError("all trials degenerated; scenario is ill-posed")
    degenerate = trials - n_eff
    key = scenario_fingerprint(scenario)
    offsets = np.arange(1, n_orders + 1) - nu0
    reports = []
    for j, (spec, counts) in enumerate(zip(specs, histograms)):
        # bit for bit 1 - np.mean of the bools: their float64 sum is exact
        # below 2**53, and both divisions are correctly rounded
        p_e, p_a = (1.0 - hits[j] / n_eff).tolist()
        n_eq1 = int(counts[np.abs(offsets) == 1].sum())
        n_gt1 = int(counts[np.abs(offsets) > 1].sum())
        ratio = n_gt1 / n_eq1 if n_eq1 > 0 else math.nan
        reports.append(McReport(
            criterion=spec,
            approach_label=approach.label,
            trials=n_eff,
            p_e=p_e, p_e_ci=_wilson(p_e, n_eff),
            p_a=p_a, p_a_ci=_wilson(p_a, n_eff),
            offsets=offsets,
            histogram=counts,
            ratio_gt1_eq1=ratio,
            master_seed=master_seed,
            degenerate=degenerate,
            degenerate_warning=degenerate > 0.01 * trials,
            scenario_key=key,
            indicators=packed[j, :, :-(-n_eff // 8)],
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
