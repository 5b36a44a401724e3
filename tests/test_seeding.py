import numpy as np
import pytest

from rbsim.channels import NoiseModel, PauliChannel, SpamModel
from rbsim.rb import _closed_survivals, _draw_elements, run_standard_rb
from rbsim.rbsv import RBSVConfig, _acceptances, run_rbsv
from rbsim.seeding import generator_for, parallel_map, run_ensemble, seed_plan


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
    lengths, k_m, seed = (4, 1, 9), 3, 123

    def one_length(m, rngs, indices):
        return [(m, index, rng.random()) for rng, index in zip(rngs, indices)]

    chunks = run_ensemble(seed, lengths, k_m, one_length)
    assert len(chunks) == len(lengths)
    for im, (m, chunk) in enumerate(zip(lengths, chunks)):
        assert [c[:2] for c in chunk] == [(m, im * k_m + j) for j in range(k_m)]
        # each unit draws from its own stream, whatever ran before it
        assert [c[2] for c in chunk] == [generator_for(seed, im * k_m + j).random()
                                         for j in range(k_m)]


# Pauli noise whose survival depends on the sequence, so a count drawn with
# another unit's probability shows
PAULI_NOISE = NoiseModel(gate=PauliChannel({"II": 0.9, "XI": 0.07, "IZ": 0.03}),
                         spam=SpamModel(meas_flip=0.02))


def unit_outputs(config, m, indices):
    """Per unit: rows and signs of its elements, its sampled RB survival count
    and its sampled RBSV accept count, from a batch of the given units."""
    streams = [[generator_for(config.seed, i) for i in indices] for _ in range(2)]
    rows, phases = _draw_elements(config, m, streams[0])
    survived = _closed_survivals(config, rows, phases, streams[0]) * config.shots
    accepted = _acceptances(config, m, streams[1], list(indices)) * config.n_m
    return [(rows[:, j].tolist(), phases[:, j].tolist(), survived[j], accepted[j])
            for j in range(len(indices))]


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
    # the units differ, and the drivers report the same per-unit values
    assert len({tuple(map(tuple, u[0])) for u in batched[6]}) == k_m
    data = run_standard_rb(config)
    rbsv = run_rbsv(config)
    for im, m in enumerate(lengths):
        assert data.per_sequence[im].tolist() == [u[2] / config.shots for u in batched[m]]
        assert rbsv.per_sequence_p_acc[im].tolist() == [u[3] / config.n_m for u in batched[m]]
