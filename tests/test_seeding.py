import numpy as np
import pytest

from rbsim.channels import NoiseModel, PauliChannel, SpamModel
from rbsim.rb import _draw_batch, _survivals, run_standard_rb
from rbsim.rbsv import RBSVConfig, _acceptances, run_rbsv
from rbsim.seeding import (
    generator_for,
    parallel_map,
    redraw,
    run_ensemble,
    seed_plan,
    seed_plans,
    stream_rows,
    stream_words,
    unit_seeds,
)


def test_same_inputs_same_seed():
    assert seed_plan(123, 4, 5) == seed_plan(123, 4, 5)


def test_argument_order_matters():
    assert seed_plan(7, 1, 2) != seed_plan(7, 2, 1)


def test_collision_scan():
    rng = np.random.default_rng(0)
    masters = rng.integers(0, 2 ** 63, size=100, dtype=np.uint64)
    seen = set()
    count = 0
    for master in masters:
        for j in range(100):
            for rep in range(100):
                seen.add(seed_plan(int(master), j, rep))
                count += 1
    assert count == 1_000_000
    assert len(seen) == count  # no collisions observed


def test_vectorised_seed_plan_matches_scalar_over_the_collision_scan_set():
    rng = np.random.default_rng(0)
    masters = rng.integers(0, 2 ** 63, size=100, dtype=np.uint64)
    for master in masters:
        for rep in range(100):
            assert (seed_plans(int(master), range(100), rep).tolist()
                    == [seed_plan(int(master), j, rep) for j in range(100)])
    extremes = [0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]
    for master in extremes:
        for rep in extremes:
            assert (seed_plans(master, np.array(extremes, dtype=np.uint64), rep).tolist()
                    == [seed_plan(master, j, rep) for j in extremes])
    assert np.array_equal(unit_seeds(9, [4, 2]), [[seed_plan(9, 4), seed_plan(9, 2)],
                                                  [seed_plan(9, 4, 1), seed_plan(9, 2, 1)]])


def test_stream_words_are_splitmix64_outputs():
    # word i of the stream with seed s is SplitMix64's i-th output from state s
    mask, gamma = (1 << 64) - 1, 0x9E3779B97F4A7C15
    for seed in (0, 12345, 2 ** 64 - 1):
        state, outputs = seed, []
        for _ in range(12):
            state = (state + gamma) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            outputs.append(z ^ (z >> 31))
        assert stream_words([seed], 0, 12)[0].tolist() == outputs
        assert stream_words([seed, 1], 5, 7)[0].tolist() == outputs[5:]


def test_redraw_refills_in_order_from_past_the_budget():
    # even columns take words with the top bit clear, odd ones words with it
    # set: about half are refilled, and some refill words are skipped
    seeds, budget = seed_plans(5, range(40)), 6

    def valid(words, columns):
        return (words >> np.uint64(63)) == columns % 2

    words = redraw(seeds, stream_words(seeds, 0, budget), valid, [1] * len(seeds))
    skipped = 0
    for k, seed in enumerate(seeds):
        stream = stream_words([seed], 0, 300)[0].tolist()
        want, index = [], budget
        for c in range(budget):
            word = stream[c]
            if word >> 63 != c % 2:
                while stream[index] >> 63 != c % 2:
                    index, skipped = index + 1, skipped + 1
                word, index = stream[index], index + 1
            want.append(word)
        assert words[k].tolist() == want
    assert skipped > 0
    alone = redraw(seeds[3:4], stream_words(seeds[3:4], 0, budget), valid, [1])
    assert np.array_equal(alone, words[3:4])


def test_ragged_stream_rows_refill_as_one_row_per_stream():
    # streams of different row counts laid out one after another: each
    # stream's rows are its words in order, and its rejected words take the
    # words past its own budget exactly as a one-row layout of them does
    seeds, counts, width = seed_plans(6, range(7)), [3, 1, 4, 1, 5, 2, 6], 4

    def valid(words, columns):
        return (words >> np.uint64(63)) == columns % 2

    rows = stream_rows(seeds, counts, width)
    assert rows.shape == (sum(counts), width) and rows.dtype == np.uint64
    words = redraw(seeds, rows.copy(), valid, counts)
    assert not np.array_equal(words, rows)
    at = 0
    for seed, count in zip(seeds, counts):
        flat = stream_words([seed], 0, count * width)
        assert np.array_equal(rows[at:at + count].ravel(), flat[0])
        # width is even, so a word's column parity is that of its budget index
        alone = redraw([seed], flat, valid, [1])
        assert np.array_equal(words[at:at + count].ravel(), alone[0])
        at += count


def test_generator_streams_are_reproducible():
    a = generator_for(9, 3, 1).random(8)
    b = generator_for(9, 3, 1).random(8)
    c = generator_for(9, 3, 2).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_parallel_map_preserves_order():
    items = list(range(50))
    assert parallel_map(lambda v: v * v, items) == [v * v for v in items]


def test_run_ensemble_chunk_layout_and_seeding():
    lengths, k_m, seed = (4, 1, 9, 4), 3, 123
    calls = []

    def run_units(unit_lengths, seeds):
        calls.append(unit_lengths.tolist())
        words = stream_words(seeds[0], 0, 1)[:, 0]
        columns = (unit_lengths, np.arange(len(unit_lengths)), words, seeds[1])
        return np.stack([np.asarray(c, dtype=np.uint64) for c in columns], axis=1)

    results = run_ensemble(seed, lengths, k_m, run_units)
    # one call for every unit of every length, in unit order
    assert calls == [[4, 4, 4, 1, 1, 1, 9, 9, 9, 4, 4, 4]]
    assert isinstance(results, np.ndarray)
    assert results.shape == (len(lengths), k_m, 4) and results.dtype == np.uint64
    for im, (m, rows) in enumerate(zip(lengths, results)):
        units = [im * k_m + j for j in range(k_m)]
        assert rows[:, :2].tolist() == [[m, u] for u in units]
        # each unit draws from its own streams, whatever ran before it
        assert rows[:, 2].tolist() == stream_words([seed_plan(seed, u) for u in units],
                                                   0, 1)[:, 0].tolist()
        assert rows[:, 3].tolist() == [seed_plan(seed, u, 1) for u in units]


# Pauli noise whose survival depends on the sequence, so a count drawn with
# another unit's probability shows
PAULI_NOISE = NoiseModel(gate=PauliChannel({"II": 0.9, "XI": 0.07, "IZ": 0.03}),
                         spam=SpamModel(meas_flip=0.02))


def unit_outputs(config, lengths, indices):
    """Per unit: rows and signs of its elements, its sampled RB survival count
    and its sampled RBSV accept count, from one batch of the given units
    (``lengths[j]`` elements for unit ``indices[j]``, in any order)."""
    seeds = unit_seeds(config.seed, indices)
    compiled = _draw_batch(config, lengths, seeds[0], close=True)
    rows, phases, picks = compiled.batch.rows, compiled.batch.phases, compiled.batch.elements
    survived = _survivals(config, compiled, seeds[1]) * config.shots
    accepted = _acceptances(config, compiled, seeds[1],
                            np.broadcast_to(lengths, len(indices))) * config.n_m
    started = [picks[:, j][picks[:, j] >= 0] for j in range(len(indices))]
    return [(rows[p].tolist(), phases[p].tolist(), survived[j], accepted[j])
            for j, p in enumerate(started)]


@pytest.mark.parametrize("mode", ["clifford", "generator"])
def test_unit_results_do_not_depend_on_the_batch(mode):
    lengths, k_m = (3, 6, 2), 4
    config = RBSVConfig(n=2, lengths=lengths, k_m=k_m, shots=40, n_m=40, mode=mode,
                        generator_block=2, noise=PAULI_NOISE, seed=17)
    units = {m: range(im * k_m, (im + 1) * k_m) for im, m in enumerate(lengths)}
    batched = {m: unit_outputs(config, m, units[m]) for m in lengths}
    reverse = {m: unit_outputs(config, m, units[m]) for m in reversed(lengths)}
    alone = {m: [unit_outputs(config, m, [i])[0] for i in units[m]] for m in lengths}
    assert batched == reverse == alone
    # every length in one end-aligned batch: in unit order, as the drivers
    # run it, and longest first
    for order in (lengths, sorted(lengths, reverse=True)):
        together = unit_outputs(config, np.repeat(order, k_m), [u for m in order for u in units[m]])
        assert {m: together[i * k_m:(i + 1) * k_m] for i, m in enumerate(order)} == batched
    # the units differ, and the drivers report the same per-unit values
    assert len({tuple(map(tuple, u[0])) for u in batched[6]}) == k_m
    data = run_standard_rb(config)
    rbsv = run_rbsv(config)
    for im, m in enumerate(lengths):
        assert data.per_sequence[im].tolist() == [u[2] / config.shots for u in batched[m]]
        assert rbsv.per_sequence_p_acc[im].tolist() == [u[3] / config.n_m for u in batched[m]]
