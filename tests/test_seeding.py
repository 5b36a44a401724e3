import numpy as np

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

    def one_sequence(m, rng, index):
        return m, index, rng.random()

    chunks = run_ensemble(seed, lengths, k_m, one_sequence)
    assert len(chunks) == len(lengths)
    for im, (m, chunk) in enumerate(zip(lengths, chunks)):
        assert [c[:2] for c in chunk] == [(m, im * k_m + j) for j in range(k_m)]
        # each unit draws from its own stream, whatever ran before it
        assert [c[2] for c in chunk] == [generator_for(seed, im * k_m + j).random()
                                         for j in range(k_m)]
