import ctypes
import dataclasses
import itertools
import os

import numpy as np
import pytest

import sincount as sc
from sincount import montecarlo
from sincount.errors import ValidationError
from sincount.signal_model import clean_signal

from oracles import estimate_whole_set, inject_ladders, traced_peak_mb

SPECS = [sc.Gic(), sc.Eef(), sc.PmepIr(0.25), sc.PmepI(3.0)]


def test_trial_seed_deterministic_and_distinct():
    a = sc.trial_seed(7, 0)
    b = sc.trial_seed(7, 0)
    assert a == b
    seeds = {sc.trial_seed(7, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert sc.trial_seed(8, 0) != sc.trial_seed(7, 0)


def _seed_sequence_key(master_seed, index):
    """Oracle: numpy's SeedSequence hash, one trial at a time."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0])


# master seeds of one, two and three 32-bit words
MASTER_SEEDS = (7, 2**32 + 5, 2**64 + 2**33 + 9)
INDICES = list(range(3000)) + [2**31, 2**32 - 1, 2**32, 2**32 + 1]


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_trial_keys_match_seed_sequence(master_seed):
    expect = [_seed_sequence_key(master_seed, i) for i in INDICES]
    keys = montecarlo._trial_keys(master_seed, np.array(INDICES, dtype=np.uint64))
    assert keys.dtype == np.uint64
    assert [int(k) for k in keys] == expect
    assert [sc.trial_seed(master_seed, i) for i in INDICES[::97] + INDICES[-4:]] == \
        [_seed_sequence_key(master_seed, i) for i in INDICES[::97] + INDICES[-4:]]


@pytest.mark.floor_streams
def test_batch_samples_straddle_two_to_the_32(scen_m4):
    # the index of the fourth row gains a second entropy word
    start = 2**32 - 3
    rows = sc.batch_samples(scen_m4, master_seed=11, start=start, count=6)
    for k in range(6):
        single = sc.synthesize(scen_m4, sc.trial_seed(11, start + k))
        np.testing.assert_array_equal(rows[k], single.samples)


@pytest.mark.floor_streams
@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_batch_samples_match_synthesize_for_keys_either_side_of_two_to_the_63(
        scen_m4, master_seed):
    keys = [sc.trial_seed(master_seed, k) for k in range(6)]
    assert min(keys) < 2**63 <= max(keys)
    rows = sc.batch_samples(scen_m4, master_seed, 0, 6)
    for row, key in zip(rows, keys):
        np.testing.assert_array_equal(row, sc.synthesize(scen_m4, key).samples)


def _draws(rng):
    # uint32 draws first: a saved half word left by the last trial would show
    return rng.integers(2**32, size=3, dtype=np.uint32).tobytes() + \
        rng.standard_normal(100).tobytes()


def _record_draws(fill, records):
    """_draws through the first record: three uint32 draws through its
    bitgen_t, then 100 normals from fill."""
    address = records.ctypes.data
    bitgen = montecarlo._BitGen.from_address(address)
    next_uint32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)(bitgen.next_uint32)
    words = np.array([next_uint32(bitgen.state) for _ in range(3)], dtype=np.uint32)
    normals = np.empty(100)
    fill(address, normals.size, normals.ctypes.data)
    return words.tobytes() + normals.tobytes()


def _fill_path():
    """Whether the import check chose the fill path."""
    return getattr(montecarlo._noise_rows, "func", None) is montecarlo._fill_rows


def _fill_in_use():
    """(numpy's random_standard_normal_fill with argtypes, the draw functions
    of the fill path); a skip where the import check chose the setter, which
    test_fill_is_the_noise_path_in_use reports."""
    if not _fill_path():
        pytest.skip("the import check chose the state setter")
    fill = ctypes.PyDLL(np.random._generator.__file__)[montecarlo._FILL_SYMBOL]
    fill.argtypes = (ctypes.c_void_p, np.ctypeslib.c_intp, ctypes.c_void_p)
    fill.restype = None
    return fill, montecarlo._noise_rows.args[1]


@pytest.mark.floor_streams
@pytest.mark.parametrize("make_rekey", [montecarlo._rekey_by_setter])
def test_rekey_turns_a_used_generator_into_a_fresh_one(make_rekey):
    bit_gen = np.random.Philox(key=2**100 + 3, counter=[1, 2, 3, 4])
    rng = np.random.Generator(bit_gen)
    rekey = make_rekey(bit_gen)
    for trial_key in (5, 2**63 + 11, 2**64 - 1):
        # a used counter, a partly read buffer and a saved half word
        used = bit_gen.state
        used["state"]["counter"] += 1
        used.update(buffer_pos=2, has_uint32=1, uinteger=0x89ABCDEF)
        bit_gen.state = used
        rekey(trial_key)
        fresh = np.random.Philox(key=trial_key)
        state, fresh_state = bit_gen.state, fresh.state
        for name in ("key", "counter"):
            np.testing.assert_array_equal(state["state"][name], fresh_state["state"][name])
        assert (state["buffer_pos"], state["has_uint32"]) == (4, 0)
        assert _draws(rng) == _draws(np.random.Generator(fresh))


@pytest.mark.floor_streams
def test_records_turn_used_philox_states_into_fresh_ones():
    fill, functions = _fill_in_use()
    records = montecarlo._philox_records(2, functions)
    for trial_key in (5, 2**63 + 11, 2**64 - 1):
        # a used counter, a two-word key, a partly read buffer and a saved
        # half word, in both records
        montecarlo._soil(records)
        montecarlo._rekey_records(records[:1], np.array([trial_key], dtype=np.uint64))
        fresh_state = np.random.Philox(key=trial_key).state
        np.testing.assert_array_equal(records["key"][0], fresh_state["state"]["key"])
        np.testing.assert_array_equal(records["counter"][0], fresh_state["state"]["counter"])
        state = records["state"][0]
        assert (state["buffer_pos"], state["has_uint32"]) == (4, 0)
        assert _record_draws(fill, records) == \
            _draws(np.random.Generator(np.random.Philox(key=trial_key)))
        # the record after it was not rekeyed
        assert records["state"]["buffer_pos"][1] == 2


@pytest.mark.floor_streams
def test_fill_is_the_noise_path_in_use():
    # numpy's Philox layout is private: on a numpy where the import check
    # fails, the setter keeps the streams and this test reports the fallback
    assert montecarlo._noise_rows.func is montecarlo._fill_rows


@pytest.mark.floor_streams
@pytest.mark.parametrize("bit_gen", [np.random.PCG64(1), np.random.SFC64(2),
                                     np.random.MT19937(3)],
                         ids=lambda bit_gen: type(bit_gen).__name__)
def test_layout_check_rejects_other_generators(bit_gen):
    assert not montecarlo._layout_matches(bit_gen)


@pytest.mark.floor_streams
@pytest.mark.parametrize("failing_step", ["layout", "bitgen", "symbol", "draws"])
def test_failed_import_check_falls_back_to_the_setter(scen_m4, monkeypatch, failing_step):
    expect = [sc.synthesize(scen_m4, sc.trial_seed(2**32 + 5, k)).samples for k in range(6)]

    def unreached(*args):
        raise AssertionError("called C on an unverified layout")

    if failing_step == "layout":
        monkeypatch.setattr(montecarlo, "_layout_matches", lambda bit_gen: False)
        monkeypatch.setattr(montecarlo, "_load_fill", lambda: unreached)
    elif failing_step == "bitgen":
        monkeypatch.setattr(montecarlo, "_bitgen_functions", lambda bit_gen: None)
        monkeypatch.setattr(montecarlo, "_load_fill", lambda: unreached)
    elif failing_step == "symbol":
        monkeypatch.setattr(montecarlo, "_FILL_SYMBOL", "random_no_such_fill")
        assert montecarlo._load_fill() is None
    else:
        rekey_records = montecarlo._rekey_records

        def one_block_ahead(records, keys):
            rekey_records(records, keys)
            records["counter"][:len(keys), 0] = 1

        monkeypatch.setattr(montecarlo, "_rekey_records", one_block_ahead)
    noise_rows = montecarlo._choose_noise()
    assert noise_rows is montecarlo._setter_rows
    monkeypatch.setattr(montecarlo, "_noise_rows", noise_rows)
    np.testing.assert_array_equal(sc.batch_samples(scen_m4, 2**32 + 5, 0, 6), expect)


@pytest.mark.floor_streams
@pytest.mark.parametrize("count", [0, 1, 3, 7])
def test_batch_samples_match_synthesize_across_record_blocks(scen_m4, monkeypatch, count):
    _fill_in_use()
    # blocks of 3 records: 7 rows rekey the used records for rows 3-5 and 6
    monkeypatch.setattr(montecarlo, "_RECORD_BLOCK", 3)
    rows = sc.batch_samples(scen_m4, 2**32 + 5, 11, count)
    assert rows.shape == (count, scen_m4.n_samples)
    for k, row in enumerate(rows):
        np.testing.assert_array_equal(
            row, sc.synthesize(scen_m4, sc.trial_seed(2**32 + 5, 11 + k)).samples)


@pytest.mark.floor_streams
@pytest.mark.parametrize("shift", [0, 1], ids=["as-built", "shifted-row"])
def test_import_check_calls_the_untyped_fill_with_ctypes_objects(monkeypatch, shift):
    _fill_in_use()
    load_fill, calls = montecarlo._load_fill, []

    def spied_load():
        untyped = load_fill()

        def spy(record, count, row):
            calls.append((type(record), type(count), type(row)))
            # shifted one sample on and one short, as another call form would
            # place the row
            untyped(record, np.ctypeslib.c_intp(count.value - shift),
                    ctypes.c_void_p(row.value + 8 * shift))

        return spy

    monkeypatch.setattr(montecarlo, "_load_fill", spied_load)
    noise_rows = montecarlo._choose_noise()
    assert calls and set(calls) == {(ctypes.c_void_p, np.ctypeslib.c_intp, ctypes.c_void_p)}
    if shift:
        assert noise_rows is montecarlo._setter_rows
        assert len(calls) == 1
    else:
        assert noise_rows.func is montecarlo._fill_rows
        assert len(calls) == 2


def _fresh_rows(scenario, master_seed, start, count):
    """Oracle: trial k's observation from a fresh
    Generator(Philox(key=trial_seed(master_seed, k)))."""
    s0 = clean_signal(scenario)
    return np.array([s0 + scenario.noise_level * np.random.Generator(np.random.Philox(
        key=sc.trial_seed(master_seed, k))).standard_normal(scenario.n_samples)
        for k in range(start, start + count)])


def _loop_rows(scenario, master_seed, start, stop):
    """The trial loop over trials start..stop-1, yielding (first trial, a copy
    of its block's observations) for each block."""
    return ((first, rows.copy())
            for first, rows in montecarlo._trial_blocks(scenario, master_seed, start, stop))


def _count_fillers(monkeypatch, noise_rows):
    """The shapes of the fillers that noise_rows, made the trial loop's
    factory, builds from now on."""
    shapes = []

    def counted(n_rows, n_cols):
        shapes.append((n_rows, n_cols))
        return noise_rows(n_rows, n_cols)

    monkeypatch.setattr(montecarlo, "_noise_rows", counted)
    return shapes


@pytest.mark.floor_streams
@pytest.mark.parametrize("n_samples, start, count", [
    (64, 0, 1000), (64, 35000, 4481), (65, 35000, 1000), (128, 35000, 4481)])
def test_batch_samples_and_trial_loop_rows_are_fresh_generator_draws(
        monkeypatch, n_samples, start, count):
    # 1000 rows end inside the first block of 1024 records, 4481 in a
    # 385-row block of them; at 64 samples 4481 trials are a 4096-row block
    # of the trial loop and a 385-row one, at 128 two of 2048 and one of 385.
    # 35000 is the second shard's first trial in a 70001-trial call
    scenario = sc.standard_scenario(-4.0, n_samples=n_samples)
    expect = _fresh_rows(scenario, 2**32 + 5, start, count)
    fillers = _count_fillers(monkeypatch, montecarlo._noise_rows)
    np.testing.assert_array_equal(sc.batch_samples(scenario, 2**32 + 5, start, count), expect)
    # batch_samples copies out the blocks of one trial loop, one filler's
    assert len(fillers) == 1
    blocks = list(_loop_rows(scenario, 2**32 + 5, start, start + count))
    assert [first for first, _ in blocks] == \
        list(range(start, start + count, montecarlo._block_rows(scenario)))
    np.testing.assert_array_equal(np.concatenate([rows for _, rows in blocks]), expect)
    assert sc.batch_samples(scenario, 2**32 + 5, start, 0).shape == (0, n_samples)


@pytest.mark.floor_streams
def test_interleaved_trial_loops_keep_their_own_streams(monkeypatch):
    # blocks of 100 rows at 64 samples and of 50 at 128, the two loops' blocks
    # drawn in turn: each fills its own buffer through its own filler
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", 8 * 64 * 100)
    scenarios = [sc.standard_scenario(0.0, n_samples=n) for n in (64, 128)]
    loops = [_loop_rows(scenario, seed, 7, 307) for scenario, seed in zip(scenarios, (3, 4))]
    got = [[], []]
    for turn in itertools.zip_longest(*loops):
        for rows, block in zip(got, turn):
            if block is not None:
                rows.append(block[1])
    assert [len(rows) for rows in got] == [3, 6]
    for rows, scenario, seed in zip(got, scenarios, (3, 4)):
        np.testing.assert_array_equal(np.concatenate(rows), _fresh_rows(scenario, seed, 7, 300))


@pytest.mark.floor_streams
@pytest.mark.parametrize("factory", ["_noise_rows", "_setter_rows"])
def test_a_filler_fills_the_leading_rows_of_its_own_buffer(factory):
    # _noise_rows is the fill path's factory where the import check chose it
    draw = getattr(montecarlo, factory)(4, 64)
    keys = np.array([sc.trial_seed(3, k) for k in range(5)], dtype=np.uint64)
    # a draw of no keys is a view of the filler's buffer: C-contiguous
    # float64 of the filler's shape, prefilled here so that an untouched row shows
    buffer = draw(keys[:0]).base
    assert buffer.shape == (4, 64) and buffer.dtype == np.float64 and buffer.flags.c_contiguous
    buffer[:] = np.nan
    with pytest.raises(ValueError, match="more keys than"):
        draw(keys)

    def fresh(keys):
        return [np.random.Generator(np.random.Philox(key=int(key))).standard_normal(64)
                for key in keys]

    rows = draw(keys[:3])
    assert rows.base is buffer and rows.shape == (3, 64)
    assert rows.ctypes.data == buffer.ctypes.data
    np.testing.assert_array_equal(rows, fresh(keys[:3]))
    assert np.isnan(buffer[3]).all()
    # each draw refills the same buffer
    again = draw(keys[3:4])
    assert again.base is buffer and again.shape == (1, 64)
    np.testing.assert_array_equal(rows[0], fresh(keys[3:4])[0])


@pytest.mark.floor_streams
@pytest.mark.parametrize("factory", ["_noise_rows", "_setter_rows"])
def test_a_zero_trial_loop_builds_no_filler(scen_m4, monkeypatch, factory):
    # the fill path's filler of zero rows would point at no row and no
    # record; an empty loop draws nothing, so it builds none
    fillers = _count_fillers(monkeypatch, getattr(montecarlo, factory))
    for approach in (sc.KNOWN_FREQ, sc.Ml(grid_points=64)):
        assert sc.collect_logliks(scen_m4, approach, 0, 5).shape == (0, scen_m4.max_order)
    assert sc.batch_samples(scen_m4, 5, 7, 0).shape == (0, scen_m4.n_samples)
    assert not fillers
    assert sc.collect_logliks(scen_m4, sc.KNOWN_FREQ, 3, 5).shape == (3, scen_m4.max_order)
    assert fillers == [(3, scen_m4.n_samples)]


def _reference_samples(scenario, master_seed, trials):
    """One fresh Generator(Philox(key=...)) per trial."""
    s0 = clean_signal(scenario)
    rows = []
    for k in range(trials):
        rng = np.random.Generator(np.random.Philox(key=_seed_sequence_key(master_seed, k)))
        rows.append(s0 + scenario.noise_level * rng.standard_normal(scenario.n_samples))
    return np.array(rows)


def _block_bytes(scenario, rows):
    """The _BLOCK_BYTES that makes collect_logliks' blocks rows trials long."""
    return rows * 8 * scenario.n_samples


@pytest.mark.one_blas_thread
def test_collect_logliks_matches_per_trial_generators(scen_m4, monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", _block_bytes(scen_m4, 100))
    samples = _reference_samples(scen_m4, 17, 300)
    plan = sc.FrequencyPlan.build(scen_m4, scen_m4.all_frequencies)
    np.testing.assert_array_equal(sc.collect_logliks(scen_m4, sc.KNOWN_FREQ, 300, 17),
                                  plan.logliks_batch(samples))
    approach = sc.Ml(grid_points=128)
    expect = np.array([sc.observation_logliks(row, scen_m4, approach)[0]
                       for row in samples[:140]])
    np.testing.assert_array_equal(sc.collect_logliks(scen_m4, approach, 140, 17), expect)
    # with search blocks of 48 rows and grid pieces of 16, 140 ML trials
    # cross search-block and grid-piece boundaries inside the first block of
    # trials (search blocks 0-47, 48-95 and 96-99) and the trial-block
    # boundary at 100, which ends a partial search block and starts another
    monkeypatch.setattr(sc.likelihood, "_ML_BLOCK", 48)
    monkeypatch.setattr(sc.likelihood, "_GRID_ROWS", 16)
    np.testing.assert_array_equal(sc.collect_logliks(scen_m4, approach, 140, 17), expect)


@pytest.mark.parametrize("seed", [-1, 2.5, 3.0, "4", True, None])
def test_master_seed_must_be_nonnegative_integer(scen_m4, seed):
    with pytest.raises(ValidationError):
        sc.batch_samples(scen_m4, seed, 0, 4)
    with pytest.raises(ValidationError):
        sc.collect_logliks(scen_m4, sc.KNOWN_FREQ, 10, seed)
    with pytest.raises(ValidationError):
        sc.estimate(scen_m4, [sc.Gic()], sc.KNOWN_FREQ, 100, seed)
    with pytest.raises(ValidationError):
        sc.trial_seed(seed, 0)
    with pytest.raises(ValidationError):
        sc.trial_seed(0, seed)


@pytest.mark.parametrize("trials", [-1, 150.5, "200", True])
def test_trials_must_be_nonnegative_integer(scen_m4, trials):
    with pytest.raises(ValidationError, match="trials"):
        sc.collect_logliks(scen_m4, sc.KNOWN_FREQ, trials, 1)
    with pytest.raises(ValidationError, match="trials"):
        sc.estimate(scen_m4, [sc.Gic()], sc.KNOWN_FREQ, trials, 1)


@pytest.mark.parametrize("start, count", [(-2, 4), (0, -1), (1.5, 4), (0, 2.0)])
def test_batch_samples_rejects_invalid_trial_range(scen_m4, start, count):
    with pytest.raises(ValidationError):
        sc.batch_samples(scen_m4, 1, start, count)


@pytest.mark.floor_streams
def test_batch_samples_stop_at_the_last_uint64_index(scen_m4):
    # a row's index is a uint64; past 2**64 - 1 the index array would wrap to 0
    for start, count in ((2**64 - 2, 3), (2**64 - 1, 2), (2**64, 1)):
        with pytest.raises(ValidationError, match=r"2\*\*64"):
            sc.batch_samples(scen_m4, 1, start, count)
    rows = sc.batch_samples(scen_m4, 1, 2**64 - 2, 2)
    for k, row in enumerate(rows):
        np.testing.assert_array_equal(
            row, sc.synthesize(scen_m4, sc.trial_seed(1, 2**64 - 2 + k)).samples)
    assert sc.batch_samples(scen_m4, 1, 2**64, 0).shape == (0, scen_m4.n_samples)


def test_numpy_integer_master_seed(scen_m4):
    np.testing.assert_array_equal(sc.batch_samples(scen_m4, np.uint32(5), 0, 3),
                                  sc.batch_samples(scen_m4, 5, 0, 3))
    np.testing.assert_array_equal(sc.collect_logliks(scen_m4, sc.KNOWN_FREQ, 100, np.int64(5)),
                                  sc.collect_logliks(scen_m4, sc.KNOWN_FREQ, 100, 5))
    assert sc.estimate(scen_m4, [sc.Gic()], sc.KNOWN_FREQ, 100, np.int64(5))[0].master_seed == 5


def test_batch_samples_match_single_draws(scen_m4):
    rows = sc.batch_samples(scen_m4, master_seed=3, start=5, count=4)
    for k in range(4):
        single = sc.synthesize(scen_m4, sc.trial_seed(3, 5 + k))
        np.testing.assert_array_equal(rows[k], single.samples)


def test_collect_logliks_chunk_invariance(scen_m4, monkeypatch):
    # blocks of 4096 rows pass the row count, near 1563 at 64 samples, from
    # which an OpenBLAS matrix product switches kernels and rounds a row
    # unlike a product of 37 rows
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", _block_bytes(scen_m4, 4096))
    full = sc.collect_logliks(scen_m4, sc.KNOWN_FREQ, 5000, 9)
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", _block_bytes(scen_m4, 37))
    np.testing.assert_array_equal(full, sc.collect_logliks(scen_m4, sc.KNOWN_FREQ, 5000, 9))


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("approach", [sc.KNOWN_FREQ, sc.Bl(0.002)], ids=["known", "bl"])
def test_bl_rows_equal_their_observation_logliks(scen_m4, approach):
    # 5000 trials fill blocks of 4096 rows and 904; each row's ladder is
    # that of the observation alone, a batch of one
    ladders = sc.collect_logliks(scen_m4, approach, 5000, 9)
    expect = np.array([sc.observation_logliks(row, scen_m4, approach)[0]
                       for row in sc.batch_samples(scen_m4, 9, 0, 5000)])
    np.testing.assert_array_equal(ladders, expect)


@pytest.mark.parametrize("n_samples, trials, bound_mb", [(64, 70001, 8.0), (1024, 5000, 4.0)])
def test_collect_logliks_memory_stays_within_a_block(n_samples, trials, bound_mb):
    # the observations go through one buffer of about 2 MB, 4096 rows at 64
    # samples and 256 at 1024, beside the 2.8 MB and 0.2 MB of ladders; drawn
    # 65536 rows at a time, the whole-trial arrays peaked at 52 MB and 42 MB,
    # and at 1024 samples blocks of 4096 rows would hold 34 MB
    scen = sc.standard_scenario(0.0, n_samples=n_samples)
    assert traced_peak_mb(sc.collect_logliks, scen, sc.KNOWN_FREQ, trials, 5) < bound_mb


def test_estimate_memory_holds_its_indicators_and_a_block():
    # 4 criteria over 100k trials: two indicators per trial and criterion
    # beside the trial loop's block; the whole set's ladders and each
    # criterion's values over them peaked at 25.7 MB
    scen, trials = sc.standard_scenario(0.0), 100_000
    bound_mb = (2 * len(SPECS) * trials + 2 * montecarlo._BLOCK_BYTES) / 1e6 + 0.5
    peak_mb = traced_peak_mb(sc.estimate, scen, SPECS, sc.KNOWN_FREQ, trials, 5)
    assert peak_mb < bound_mb
    # packed eight to a byte, they grow by one bit per trial and criterion
    # each; held as a bool each, they grew by 1.2 MB from 100k to 250k trials
    more = 250_000
    growth_mb = traced_peak_mb(sc.estimate, scen, SPECS, sc.KNOWN_FREQ, more, 5) - peak_mb
    assert growth_mb <= (more - trials) * 2 * len(SPECS) / 8 / 1e6 + 0.25


def _report_state(report):
    """Everything a report holds, its per-trial arrays and dtypes included."""
    return (report.to_dict(), report.indicators.tobytes(),
            report.correct.tobytes(), report.abridged_correct.tobytes(),
            report.histogram.tobytes(), report.histogram.dtype, report.offsets.tobytes(),
            report.scenario_key)


@pytest.mark.parametrize("approach", [
    pytest.param(sc.KNOWN_FREQ, marks=pytest.mark.floor_streams), sc.Bl(0.01),
    pytest.param(sc.Ml(grid_points=64), marks=pytest.mark.one_blas_thread)],
    ids=["known", "bl", "ml"])
def test_estimate_reduces_each_block_as_the_whole_set_does(scen_m4, approach, monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", _block_bytes(scen_m4, 64))

    def check(n_degenerate):
        got = sc.estimate(scen_m4, SPECS, approach, 300, 13)
        expect = estimate_whole_set(scen_m4, SPECS, approach, 300, 13)
        assert [_report_state(r) for r in got] == [_report_state(r) for r in expect]
        assert all(r.degenerate == n_degenerate and r.trials == 300 - n_degenerate
                   and r.correct.size == r.trials for r in got)

    ladders = sc.collect_logliks(scen_m4, approach, 300, 13)
    check(0)
    # trials 60-70 degenerate across the block boundary at 64, and 128-191
    # are the whole third block of five
    degenerate = np.r_[60:71, 128:192]
    ladders[degenerate] = np.nan
    inject_ladders(monkeypatch, ladders)
    collected = sc.collect_logliks(scen_m4, approach, 300, 13)
    np.testing.assert_array_equal(np.flatnonzero(np.isnan(collected[:, 0])), degenerate)
    check(75)
    (report,) = sc.estimate(scen_m4, [sc.Gic()], approach, 300, 13)
    values = sc.Gic().values(np.delete(ladders, degenerate, axis=0),
                             params_per_signal=approach.params_per_signal)
    np.testing.assert_array_equal(report.correct, sc.argmin_order(values) == scen_m4.nu0)


def _shards(monkeypatch, cores):
    """Patch the core count to cores, the shard cap to 3 and the minimum
    shard size to 100 trials, and count the forks: the list of child pids it
    returns grows by one for each fork."""
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
    monkeypatch.setattr(montecarlo, "_MAX_SHARDS", 3)
    monkeypatch.setattr(montecarlo, "_MIN_SHARD_TRIALS", 100)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_shard_cuts_split_the_trials_evenly(monkeypatch):
    usable_cores = montecarlo._usable_cores
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
    assert montecarlo._shard_cuts(sc.KNOWN_FREQ, 70001) == [0, 35000, 70001]
    assert montecarlo._shard_cuts(sc.Bl(0.01), 8192) == [0, 4096, 8192]
    # fewer trials than two minimum shards, or an ML search
    assert montecarlo._shard_cuts(sc.KNOWN_FREQ, 8191) == [0, 8191]
    assert montecarlo._shard_cuts(sc.Ml(), 70001) == [0, 70001]
    # more cores than the shard cap take the cap's shards
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 3)
    assert montecarlo._shard_cuts(sc.KNOWN_FREQ, 70001) == [0, 35000, 70001]
    monkeypatch.setattr(montecarlo, "_MAX_SHARDS", 3)
    assert montecarlo._shard_cuts(sc.KNOWN_FREQ, 70001) == [0, 23333, 46667, 70001]
    # each shard holds at least the minimum
    assert montecarlo._shard_cuts(sc.KNOWN_FREQ, 12287) == [0, 6143, 12287]
    # a platform without fork or without the affinity call has one core
    assert usable_cores() == len(os.sched_getaffinity(0))
    for name in ("fork", "sched_getaffinity"):
        with monkeypatch.context() as patch:
            patch.delattr(os, name)
            assert usable_cores() == 1


@pytest.mark.parametrize("approach", [
    pytest.param(sc.KNOWN_FREQ, marks=pytest.mark.floor_streams),
    pytest.param(sc.Bl(0.01), marks=pytest.mark.floor_streams)], ids=["known", "bl"])
def test_shards_give_the_one_shard_reports_bit_for_bit(scen_m4, approach, monkeypatch):
    # 1003 trials in blocks of 64 rows, cut into shards at trial 501, or at
    # 334 and 668, each shard's loop starting a block there.  Rows 60-70
    # degenerate across a block boundary, 330-337, 497-504 and 664-671 across
    # the shard cuts, which leaves no shard but the last a multiple of 8 trials
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", _block_bytes(scen_m4, 64))
    forks = _shards(monkeypatch, 1)
    one = [_report_state(r) for r in sc.estimate(scen_m4, SPECS, approach, 1003, 13)]
    assert one == [_report_state(r) for r in estimate_whole_set(scen_m4, SPECS, approach, 1003, 13)]
    for cores in (2, 3):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
        assert [_report_state(r) for r in sc.estimate(scen_m4, SPECS, approach, 1003, 13)] == one
        assert len(forks) == cores - 1 and _no_child_left()
        forks.clear()
    ladders = sc.collect_logliks(scen_m4, approach, 1003, 13)
    ladders[np.r_[60:71, 330:338, 497:505, 664:672]] = np.nan
    inject_ladders(monkeypatch, ladders)
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 1)
    one = [_report_state(r) for r in sc.estimate(scen_m4, SPECS, approach, 1003, 13)]
    assert one == [_report_state(r) for r in estimate_whole_set(scen_m4, SPECS, approach, 1003, 13)]
    assert not forks
    for cores in (2, 3):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
        got = sc.estimate(scen_m4, SPECS, approach, 1003, 13)
        assert [_report_state(r) for r in got] == one
        assert got[0].trials == 968 and got[0].degenerate == 35
        assert len(forks) == cores - 1 and _no_child_left()
        forks.clear()


@pytest.mark.parametrize("falling", [7, 200])
def test_a_shard_that_raises_raises_the_one_shard_error_and_leaves_no_child(
        scen_m4, monkeypatch, falling):
    # 300 trials in blocks of 64 rows: the shards are trials 0-149 and
    # 150-299, and the falling ladder lies in the first or the second
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", _block_bytes(scen_m4, 64))
    ladders = sc.collect_logliks(scen_m4, sc.KNOWN_FREQ, 300, 3)
    ladders[falling, -1] = ladders[falling, -2] - 1.0
    inject_ladders(monkeypatch, ladders)
    forks = _shards(monkeypatch, 1)
    with pytest.raises(ValidationError, match="nondecreasing") as one:
        sc.estimate(scen_m4, SPECS, sc.KNOWN_FREQ, 300, 3)
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
    with pytest.raises(ValidationError) as sharded:
        sc.estimate(scen_m4, SPECS, sc.KNOWN_FREQ, 300, 3)
    assert str(sharded.value) == str(one.value)
    assert len(forks) == 1 and _no_child_left()
    # the child's exception comes with its traceback in the child
    cause = sharded.value.__cause__
    if falling < 150:
        assert cause is None
    else:
        assert isinstance(cause, montecarlo._ShardTraceback)
        assert "in reduce" in str(cause) and str(one.value) in str(cause)


@pytest.mark.parametrize("sent", [b"", b"\x80\x05\x95", b"cno_such_module\nname\n."],
                         ids=["nothing", "truncated", "missing-global"])
def test_a_shard_that_sends_no_readable_result_is_a_child_process_error(
        scen_m4, monkeypatch, sent):
    # whatever unpickling the child's bytes raises, the call raises one
    # error from it and leaves no child
    def send(reduce, sink):
        sink.write(sent)
        sink.flush()
        os._exit(0)

    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", _block_bytes(scen_m4, 64))
    monkeypatch.setattr(montecarlo, "_forked", send)
    forks = _shards(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="without sending its result"):
        sc.estimate(scen_m4, SPECS, sc.KNOWN_FREQ, 300, 3)
    assert len(forks) == 1 and _no_child_left()


def test_ml_runs_in_one_shard(scen_m4, monkeypatch):
    # five blocks of 64 rows, where fixed frequencies take two shards
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", _block_bytes(scen_m4, 64))
    forks = _shards(monkeypatch, 2)
    sc.estimate(scen_m4, [sc.Gic()], sc.Ml(grid_points=16), 300, 3)
    assert not forks
    sc.estimate(scen_m4, [sc.Gic()], sc.KNOWN_FREQ, 300, 3)
    assert len(forks) == 1 and _no_child_left()


def test_estimate_deterministic(scen_m4):
    a = sc.estimate(scen_m4, [sc.Gic()], sc.KNOWN_FREQ, 500, 21)[0]
    b = sc.estimate(scen_m4, [sc.Gic()], sc.KNOWN_FREQ, 500, 21)[0]
    assert a.to_dict() == b.to_dict()
    c = sc.estimate(scen_m4, [sc.Gic()], sc.KNOWN_FREQ, 500, 22)[0]
    assert c.to_dict() != a.to_dict()


def test_estimate_minimum_trials(scen_m4):
    with pytest.raises(ValidationError):
        sc.estimate(scen_m4, [sc.Gic()], sc.KNOWN_FREQ, 99, 1)


@pytest.mark.parametrize("approach", [sc.KNOWN_FREQ, sc.Ml()])
def test_estimate_without_criteria_runs_no_trial(scen_m4, approach, monkeypatch):
    monkeypatch.setattr(montecarlo, "ladder_function", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(ValidationError, match="criterion"):
        sc.estimate(scen_m4, [], approach, 100, 1)


def test_report_accounting(scen_m4):
    # 2003 trials leave 5 padding bits in the last packed byte; none counts
    for trials in (2000, 2003):
        rep = sc.estimate(scen_m4, [sc.Gic()], sc.KNOWN_FREQ, trials, 13)[0]
        assert rep.trials == trials
        assert int(np.sum(rep.histogram)) == trials
        np.testing.assert_array_equal(rep.offsets, np.arange(1, 6) - 3)
        # error probability equals the off-true share of the histogram
        correct_share = rep.histogram[2] / trials
        assert rep.p_e == pytest.approx(1.0 - correct_share, abs=1e-12)
        correct = rep.correct
        assert correct.size == trials and correct.dtype == bool
        assert int(correct.sum()) == rep.histogram[2]
        for p, (lo, hi) in ((rep.p_e, rep.p_e_ci), (rep.p_a, rep.p_a_ci)):
            assert 0.0 <= lo <= p <= hi <= 1.0
        assert rep.scenario_key == sc.scenario_fingerprint(scen_m4)


def test_interval_keeps_width_at_zero_error():
    # 30 dB: the adaptive penalty makes no error in 2000 trials, and the
    # Wilson interval still leaves a positive upper bound
    rep = sc.estimate(sc.standard_scenario(30.0), [sc.PmepIr(0.25)],
                      sc.KNOWN_FREQ, 2000, 31)[0]
    assert rep.p_e == 0.0
    assert rep.p_e_ci[0] == 0.0 and rep.p_e_ci[1] > 1e-4
    # Wilson (1927) closed form at p = 0: upper bound z^2 / (n + z^2);
    # mirrored at p = 1
    z2 = 1.959963984540054**2
    assert rep.p_e_ci[1] == pytest.approx(z2 / (2000 + z2), rel=1e-12)
    lo, hi = montecarlo._wilson(1.0, 2000)
    assert hi == 1.0 and lo == pytest.approx(2000 / (2000 + z2), rel=1e-12)


def test_abridged_never_exceeds_full_error(scen_m4):
    # interior true order: the two-neighbor event is implied by a full error
    for rep in sc.estimate(scen_m4, [sc.Gic(), sc.PmepIr(0.25), sc.PmepI(3.0)],
                           sc.KNOWN_FREQ, 3000, 17):
        assert np.all(rep.correct <= rep.abridged_correct)
        assert rep.p_a <= rep.p_e + 1e-12


def test_abridged_equals_full_at_two_of_three():
    # nu0 = 2 of 3 candidates: both neighbor comparisons exist and exhaust
    # the alternatives, so the two events coincide trial by trial
    scen = sc.standard_scenario(-2.0, nu0=2, max_order=3)
    for rep in sc.estimate(scen, [sc.Gic(), sc.PmepIr(0.25), sc.PmepI(3.0)],
                           sc.KNOWN_FREQ, 3000, 19):
        np.testing.assert_array_equal(rep.correct, rep.abridged_correct)
        assert rep.p_a == rep.p_e


def test_ratio_histogram_fields(scen_m4):
    rep = sc.estimate(scen_m4, [sc.Gic()], sc.KNOWN_FREQ, 2000, 29)[0]
    # error-magnitude ratio: |offset| > 1 counts over |offset| == 1 counts
    near = int(rep.histogram[1] + rep.histogram[3])
    far = int(rep.histogram[0] + rep.histogram[4])
    assert near > 0
    assert rep.ratio_gt1_eq1 == pytest.approx(far / near, rel=1e-12)


def test_paired_compare(scen_m4):
    reps = sc.estimate(scen_m4, [sc.Gic(), sc.PmepIr(0.25)], sc.KNOWN_FREQ,
                       2000, 23)
    cmp = sc.paired_compare(reps[0], reps[1])
    assert cmp.trials == 2000
    assert cmp.p_e_diff == pytest.approx(reps[0].p_e - reps[1].p_e, abs=1e-12)
    assert 0.0 <= cmp.p_value <= 1.0
    same = sc.paired_compare(reps[0], reps[0])
    assert same.p_value == 1.0
    assert same.a_only_correct == 0 and same.b_only_correct == 0


def test_paired_compare_rejects_mismatched_runs(scen_m4):
    a = sc.estimate(scen_m4, [sc.Gic()], sc.KNOWN_FREQ, 500, 1)[0]
    b = sc.estimate(scen_m4, [sc.Gic()], sc.KNOWN_FREQ, 500, 2)[0]
    with pytest.raises(ValidationError):
        sc.paired_compare(a, b)
    with pytest.raises(ValidationError, match="per-trial indicators"):
        sc.paired_compare(a, dataclasses.replace(a, indicators=None))


def test_ml_approach_small_run(scen_0):
    rep = sc.estimate(scen_0, [sc.Gic()], sc.Ml(grid_points=128), 120, 2)[0]
    assert rep.approach_label == "ml"
    # greedy search at 0 dB sits near the known-frequency error level
    assert rep.p_e < 0.15
    assert rep.degenerate == 0
    assert not rep.degenerate_warning


def test_report_to_dict_round_trips_json(scen_m4):
    import json

    rep = sc.estimate(scen_m4, [sc.Gic()], sc.Bl(0.001), 200, 3)[0]
    text = json.dumps(rep.to_dict(), sort_keys=True)
    back = json.loads(text)
    assert back["criterion"] == "gic"
    assert back["approach"] == "bl(0.001)"
    assert back["trials"] == 200
    # the same frequencies given explicitly: the same numbers, labelled bl-fixed
    fixed = sc.Bl(frequencies=(scen_m4.all_frequencies + 0.001).tolist())
    fixed_rep = sc.estimate(scen_m4, [sc.Gic()], fixed, 200, 3)[0]
    assert json.loads(json.dumps(fixed_rep.to_dict())) == dict(back, approach="bl-fixed")
