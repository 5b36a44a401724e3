import tracemalloc

import numpy as np
import pytest

from rbsim import channels, cliffords
from rbsim.channels import (
    ComposedChannel,
    DeltaDepolarizing,
    Depolarizing,
    Ideal,
    NoiseChannel,
    NoiseModel,
    PauliChannel,
    SpamModel,
    UnsupportedChannelError,
    measurement_success_probability,
    zero_state,
)
from rbsim.cliffords import (
    MAX_DENSE_QUBITS,
    CliffordElement,
    compose,
    inverse,
    parse_circuit,
    random_clifford,
    random_clifford_rows,
    stabilizer_group,
)
from rbsim import engines
from rbsim.engines import (
    MAX_TABLE_QUBITS,
    CompiledSequence,
    SequenceBatch,
    run_sequence_exact,
)
from rbsim.paulis import PauliString
from rbsim.rb import RBConfig, _draw_batch, _draw_elements
from rbsim.seeding import seed_plans, stream_words

from conftest import (
    batch_of_one,
    batch_sequence,
    check_density_matrix,
    circuit_unitary,
    maximally_mixed_state,
    position_major_batch,
    stream_seeds,
    survival_probability,
)


def random_elements(n, m, rng):
    return [random_clifford(n, rng) for _ in range(m)]


def product_of(elements):
    out = elements[0]
    for e in elements[1:]:
        out = compose(out, e)
    return out


class TestExactEngine:
    def test_noiseless_matches_dense_state(self, rng):
        gates = parse_circuit("H 0\nCNOT 0 1\nP 1\nH 1")
        seq = batch_of_one(2, [CliffordElement.from_gates(2, [g]) for g in gates])
        rho = run_sequence_exact(seq)
        psi = circuit_unitary(gates, 2)[:, 0]
        fidelity = float(np.real(psi.conj() @ rho @ psi))
        assert abs(fidelity - 1.0) < 1e-12

    def test_empty_sequence_returns_prepared_state(self):
        seq = batch_of_one(2, [], spam=SpamModel(prep=Depolarizing(0.4)))
        rho = run_sequence_exact(seq)
        expected = 0.6 * zero_state(2) + 0.4 * maximally_mixed_state(2)
        assert np.allclose(rho, expected, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_depolarizing_closed_form(self, m, rng):
        eps = 0.03
        elements = random_elements(2, m, rng)
        seq = batch_of_one(2, elements, noise=Depolarizing(eps))
        rho = run_sequence_exact(seq)
        # global depolarizing commutes with the unitaries
        from rbsim.cliffords import clifford_to_matrix

        psi = zero_state(2)
        for e in elements:
            u = clifford_to_matrix(e)
            psi = u @ psi @ u.conj().T
        expected = (1 - eps) ** m * psi + (1 - (1 - eps) ** m) * maximally_mixed_state(2)
        assert np.allclose(rho, expected, atol=1e-12)

    def test_trace_and_positivity_preserved_each_step(self, rng):
        elements = random_elements(2, 6, rng)
        rho = zero_state(2)
        from rbsim.cliffords import clifford_to_matrix

        for e in elements:
            u = clifford_to_matrix(e)
            rho = Depolarizing(0.05).apply(u @ rho @ u.conj().T)
            check_density_matrix(rho)

    def test_reads_sequence_k_of_an_end_aligned_batch(self, rng):
        # sequences of 3, 2 and 1 elements start at positions 0, 1 and 2, and
        # each meets only the channels of its own positions
        channels = [Depolarizing(0.3), PauliChannel({"II": 0.8, "XZ": 0.2}), Depolarizing(0.05)]
        spam = SpamModel(prep=Depolarizing(0.1))
        config = RBConfig(n=2, lengths=(1, 2, 3))
        batch = SequenceBatch(2, *_draw_elements(config, [3, 2, 1], stream_seeds(rng, 3)),
                              channels, spam)
        for k in range(3):
            one = batch_of_one(2, batch_sequence(batch, k), channels[k:], spam)
            assert np.array_equal(run_sequence_exact(batch, k), run_sequence_exact(one))

    def test_large_register_rejected(self):
        with pytest.raises(ValueError):
            run_sequence_exact(batch_of_one(7, []))


class TestSurvivalProbability:
    """The dense survival oracle against hand values."""

    def test_zero_state_survives(self):
        assert abs(survival_probability(zero_state(3)) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(survival_probability(maximally_mixed_state(2)) - 0.25) < 1e-12

    def test_mixture_oracle(self):
        p = 0.7
        rho = p * zero_state(2) + (1 - p) * maximally_mixed_state(2)
        assert abs(survival_probability(rho) - (p + (1 - p) / 4)) < 1e-12


def oracle_acceptance(seq, include_identity=True):
    """Dense group average of the measurement success probability of a batch
    of one."""
    rho = run_sequence_exact(seq)
    group = stabilizer_group(product_of(batch_sequence(seq, 0)))
    if not include_identity:
        group = group[1:]
    return float(np.mean([measurement_success_probability(rho, s, seq.spam) for s in group]))


def closed_by(seq, closing):
    """A batch of one closed by its signed inverse and ``closing``."""
    elements = batch_sequence(seq, 0)
    return batch_of_one(seq.n, elements + [inverse(product_of(elements))],
                        seq.channels + [closing], seq.spam)


def oracle_survival(seq, closing):
    """Dense survival of a batch of one closed by its signed inverse and ``closing``."""
    return survival_probability(run_sequence_exact(closed_by(seq, closing)), seq.spam)


def closed_by_inverse(batch, closing):
    """``batch`` compiled and closed by ``append_inverse(closing)``."""
    compiled = CompiledSequence(batch)
    compiled.append_inverse(closing)
    return compiled


def assert_matches_dense_oracle(seq, closing):
    """Pauli-engine acceptance (identity in and out) and survival after
    ``append_inverse`` equal the dense oracle to 1e-12."""
    compiled = CompiledSequence(seq)
    compiled.append_inverse(closing)  # acceptance still reads the open sequence
    assert compiled.engine == "pauli"
    for include_identity in (True, False):
        assert abs(compiled.acceptance_probability(include_identity)
                   - oracle_acceptance(seq, include_identity)) < 1e-12
    assert abs(compiled.survival_probability() - oracle_survival(seq, closing)) < 1e-12


class TestTrajectoryEngine:
    """The Pauli engine of ``CompiledSequence`` against the dense oracle."""

    def test_noiseless_stabilizer_always_accepts(self, rng):
        elements = random_elements(2, 5, rng)
        compiled = CompiledSequence(batch_of_one(2, elements))
        assert compiled.acceptance_probability() == 1.0
        assert compiled.acceptance_probability(include_identity=False) == 1.0
        assert compiled.acceptance_samples(200, stream_seeds(rng)) == 200
        assert compiled.acceptance_samples(200, stream_seeds(rng), include_identity=False) == 200

    def test_batch_acceptance_matches_exact_group_average(self, rng):
        for n in (1, 2, 3):
            ch = PauliChannel({"I" * n: 0.97, "X" + "I" * (n - 1): 0.02, "Z" * n: 0.01})
            seq = batch_of_one(n, random_elements(n, 10, rng), noise=ch)
            assert_matches_dense_oracle(seq, ch)

    def test_batch_acceptance_with_measurement_flips(self, rng):
        for n in (1, 2, 3):
            spam = SpamModel(meas_flip=0.08)
            seq = batch_of_one(n, random_elements(n, 5, rng),
                                noise=Depolarizing(0.02), spam=spam)
            assert_matches_dense_oracle(seq, Depolarizing(0.02))

    def test_batch_survival_matches_depolarizing_formula(self, rng):
        eps = 0.04
        elements = random_elements(2, 7, rng)
        seq = batch_of_one(2, elements, noise=Depolarizing(eps))
        compiled = CompiledSequence(seq)
        compiled.append_inverse(Depolarizing(eps))
        p_theory = 0.25 + 0.75 * (1 - eps) ** 8
        assert abs(compiled.survival_probability() - p_theory) < 1e-12

    def test_prep_and_meas_channels_count_in_batch(self, rng):
        for n in (1, 2, 3):
            meas = PauliChannel({"I" * n: 0.9, "Y" * n: 0.1})
            spam = SpamModel(prep=Depolarizing(0.1), meas=meas, meas_flip=0.05)
            composed = ComposedChannel([Depolarizing(0.03), meas])
            seq = batch_of_one(n, random_elements(n, 3, rng),
                                noise=composed, spam=spam)
            assert_matches_dense_oracle(seq, Ideal())

    def test_non_pauli_noise_takes_dense_path(self, rng):
        ch = DeltaDepolarizing(0.1, 0.95, PauliString.single(2, 0, "X"), 0.2)
        elements = random_elements(2, 2, rng)
        for seq in (batch_of_one(2, elements, noise=ch),
                     batch_of_one(2, elements, spam=SpamModel(prep=ch))):
            compiled = CompiledSequence(seq)
            assert compiled.engine == "dense"
            assert abs(compiled.acceptance_probability() - oracle_acceptance(seq)) < 1e-12
        # a non-Pauli closing channel moves a Pauli sequence onto the dense path
        seq = batch_of_one(2, elements, noise=Depolarizing(0.05))
        compiled = CompiledSequence(seq)
        compiled.append_inverse(ch)
        assert compiled.engine == "dense"
        assert abs(compiled.survival_probability() - oracle_survival(seq, ch)) < 1e-12

    def test_measurement_flips_alone_give_closed_form_survival(self, rng):
        # each of the n measured qubits flips with probability 2p/3, on both paths
        p = 0.1
        for n in (1, 2, 3):
            spam = SpamModel(meas_flip=p)
            seq = batch_of_one(n, random_elements(n, 4, rng), spam=spam)
            # U = exp(-i pi X) = -I: the identity channel, but not Pauli-diagonal as written
            identity_but_dense = DeltaDepolarizing(1.0, 1.0, PauliString.single(n, 0, "X"),
                                                   2 * np.pi)
            for closing, engine in ((Ideal(), "pauli"), (identity_but_dense, "dense")):
                compiled = CompiledSequence(seq)
                compiled.append_inverse(closing)
                assert compiled.engine == engine
                assert abs(compiled.survival_probability() - (1 - 2 * p / 3) ** n) < 1e-12
            assert abs(survival_probability(zero_state(n), spam) - (1 - 2 * p / 3) ** n) < 1e-12

    def test_sampled_count_has_binomial_law(self, rng):
        # each unit of a batch draws its count from its own stream, with its
        # own sequence's probability
        n, k_m, reps, draws = 2, 3, 50, 2000
        rows, phases = random_clifford_rows(n, stream_seeds(rng, k_m), 6)
        noise = PauliChannel({"II": 0.9, "XI": 0.06, "ZZ": 0.04})
        batch = position_major_batch(n, rows, phases, [noise] * 6, SpamModel(meas_flip=0.05))
        compiled = CompiledSequence(batch)
        p = compiled.acceptance_probability()
        assert np.ptp(p) > 1e-3  # the units' probabilities differ
        counts = np.array([compiled.acceptance_samples(reps, stream_seeds(rng, k_m))
                           for _ in range(draws)])
        mean, var = reps * p, reps * p * (1 - p)
        assert np.all(np.abs(counts.mean(axis=0) - mean) < 4 * np.sqrt(var / draws))
        # the sample variance of a binomial has variance ~ 2 var^2 / draws
        assert np.all(np.abs(counts.var(axis=0, ddof=1) - var) < 4 * var * np.sqrt(2 / draws))


class TestSampledCounts:
    """``_binomials``: a count of repetition words below ``p 2^53``."""

    @pytest.mark.parametrize("p", [0.0, 0.02, 0.3, 0.77, 1.0])
    def test_count_has_binomial_moments(self, p):
        units, reps = 2000, 60
        counts = engines._binomials(reps, seed_plans(11, range(units), 1), np.full(units, p))
        q = 1.0 - p
        mean, var = reps * p, reps * p * q
        # central fourth moment of Binomial(reps, p), for the spread of the
        # sample variance
        mu4 = var * (1.0 + 3.0 * (reps - 2) * p * q)
        assert abs(counts.mean() - mean) <= 4 * np.sqrt(var / units)
        spread = np.sqrt((mu4 - var ** 2 * (units - 3) / (units - 1)) / units)
        assert abs(counts.var(ddof=1) - var) <= 4 * spread
        if p in (0.0, 1.0):
            assert np.all(counts == reps * p)

    def test_count_is_the_words_below_the_threshold(self):
        # one unit's count is its words' top 53 bits against ceil(p 2^53)
        seeds, reps = seed_plans(4, range(3), 1), 500
        p = np.array([0.25, 1 / 3, 0.9])
        words = stream_words(seeds, 0, reps) >> np.uint64(11)
        want = [sum(int(w) < np.ceil(pk * 2.0 ** 53) for w in row) for row, pk in zip(words, p)]
        assert engines._binomials(reps, seeds, p).tolist() == want

    @pytest.mark.parametrize("block", [1, 7, 1 << 20])
    def test_block_size_does_not_change_counts(self, block, monkeypatch):
        seeds, p = seed_plans(8, range(5), 1), np.linspace(0.1, 0.9, 5)
        want = engines._binomials(1000, seeds, p)
        monkeypatch.setattr(engines, "_COUNT_WORDS", block)
        assert np.array_equal(engines._binomials(1000, seeds, p), want)

    def test_traced_peak_does_not_grow_with_reps(self):
        # K = 200 sequences of 10^6 repetitions: one (K, reps) word array
        # would take 1.6 GB; the blocked count stays under 8 MB
        k_m, reps = 200, 10 ** 6
        noise = Depolarizing(0.2)
        rows, phases = random_clifford_rows(1, seed_plans(3, range(k_m)), 2)
        compiled = CompiledSequence(position_major_batch(1, rows, phases, [noise] * 2))
        compiled.append_inverse(noise)
        p = compiled.survival_probability()
        compiled.survival_samples(1, seed_plans(3, range(k_m), 1))  # warm caches
        tracemalloc.start()
        try:
            counts = compiled.survival_samples(reps, seed_plans(3, range(k_m), 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert np.all(np.abs(counts / reps - p) <= 5 * np.sqrt(p * (1 - p) / reps))


def random_batch(n, k_m, channels, spam, rng, fixed=None):
    """k_m random sequences with one shared channel per position; with
    ``fixed``, the IRBGS layout: random elements at even positions, the
    fixed element at odd ones."""
    m = len(channels) // 2 if fixed is not None else len(channels)
    rows, phases = random_clifford_rows(n, stream_seeds(rng, k_m), m)
    if fixed is None:
        return position_major_batch(n, rows, phases, channels, spam)
    # the fixed element is one more table row, picked at every odd position
    picks = np.arange(m * k_m).reshape(m, k_m)
    picks = np.stack([picks, np.full_like(picks, m * k_m)], axis=1).reshape(2 * m, k_m)
    return SequenceBatch(n, np.append(rows.reshape(-1, 2 * n), [fixed.rows], axis=0),
                         np.append(phases.reshape(-1, 2 * n), [fixed.phases], axis=0),
                         picks, channels, spam)


def assert_batch_matches_dense_oracle(batch, closing):
    """Every sequence of a Pauli-path batch matches its own dense oracle to
    1e-12: acceptance with the identity in and out, survival after
    ``append_inverse``."""
    seqs = [batch_of_one(batch.n, batch_sequence(batch, k), batch.channels, batch.spam)
             for k in range(batch.elements.shape[1])]
    compiled = CompiledSequence(batch)
    compiled.append_inverse(closing)  # acceptance still reads the open sequences
    assert compiled.engine == "pauli"
    for include_identity in (True, False):
        got = compiled.acceptance_probability(include_identity)
        want = [oracle_acceptance(seq, include_identity) for seq in seqs]
        assert np.max(np.abs(got - want)) < 1e-12
    # the sequences differ, so values paired with the wrong sequence show
    assert np.ptp(want) > 1e-4
    got = compiled.survival_probability()
    assert np.max(np.abs(got - [oracle_survival(seq, closing) for seq in seqs])) < 1e-12


def mixed_channels(n):
    pauli = PauliChannel({"I" * n: 0.85, "X" + "I" * (n - 1): 0.1, "Z" * n: 0.05})
    composed = ComposedChannel([Depolarizing(0.04),
                                PauliChannel({"I" * n: 0.9, "I" * (n - 1) + "Y": 0.1})])
    return pauli, composed


MIXED_SPAM = {n: SpamModel(prep=Depolarizing(0.05),
                           meas=PauliChannel({"I" * n: 0.92, "Y" * n: 0.08}), meas_flip=0.04)
              for n in (1, 2, 3, 4)}


class TestBatchEngine:
    """Batches of sequences against the dense oracle, sequence by sequence."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mixed_channels_per_position(self, n, rng):
        pauli, composed = mixed_channels(n)
        channels = [pauli, Depolarizing(0.06), Ideal(), composed, pauli, Depolarizing(0.02)]
        for spam in (SpamModel(), MIXED_SPAM[n]):
            batch = random_batch(n, 4, channels, spam, rng)
            assert_batch_matches_dense_oracle(batch, composed)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_interleaved_fixed_element_layout(self, n, rng):
        pauli, composed = mixed_channels(n)
        fixed = random_clifford(n, rng)
        batch = random_batch(n, 4, [Depolarizing(0.03), composed] * 3, MIXED_SPAM[n], rng, fixed)
        assert all([e.key() for e in batch_sequence(batch, k)[1::2]] == [fixed.key()] * 3
                   for k in range(4))
        assert_batch_matches_dense_oracle(batch, pauli)

    def test_batch_of_one_equals_its_sequence(self, rng):
        pauli, composed = mixed_channels(2)
        batch = random_batch(2, 3, [pauli, composed, Ideal()], MIXED_SPAM[2], rng)
        whole = CompiledSequence(batch).propagate_faults()
        for k in range(batch.elements.shape[1]):
            one = CompiledSequence(batch_of_one(2, batch_sequence(batch, k), batch.channels, batch.spam))
            assert np.array_equal(one.propagate_faults()[0], whole[k])

    def test_dense_path_runs_per_sequence(self, rng):
        ch = DeltaDepolarizing(0.1, 0.95, PauliString.single(2, 0, "X"), 0.2)
        batch = random_batch(2, 3, [ch, Depolarizing(0.05)], SpamModel(), rng)
        compiled = CompiledSequence(batch)
        compiled.append_inverse(ch)
        assert compiled.engine == "dense"
        seqs = [batch_of_one(2, batch_sequence(batch, k), batch.channels) for k in range(3)]
        want = [oracle_acceptance(seq) for seq in seqs]
        assert np.max(np.abs(compiled.acceptance_probability() - want)) < 1e-12
        want = [oracle_survival(seq, ch) for seq in seqs]
        assert np.max(np.abs(compiled.survival_probability() - want)) < 1e-12

    @pytest.mark.parametrize("spam", ["mixed", "trivial"])
    @pytest.mark.parametrize("path", ["pauli", "dense"])
    def test_a_batch_closed_first_equals_fresh_instances(self, path, spam, rng):
        # compare closes, then reads acceptance and survival on one instance;
        # every value must be bit for bit that of an instance read only once
        pauli, composed = mixed_channels(2)
        closing = pauli
        if path == "dense":
            closing = DeltaDepolarizing(0.1, 0.95, PauliString.single(2, 0, "X"), 0.2)
        spam = MIXED_SPAM[2] if spam == "mixed" else SpamModel()
        batch = random_batch(2, 4, [pauli, composed, Ideal(), closing, pauli], spam, rng)
        seeds = stream_seeds(rng, 4)

        def acceptance(compiled):
            return [compiled.acceptance_probability(), compiled.acceptance_probability(False),
                    compiled.acceptance_samples(50, seeds)]

        def survival(compiled):
            return [compiled.survival_probability(), compiled.survival_samples(50, seeds),
                    compiled.propagate_faults()]

        def fresh(close):
            compiled = CompiledSequence(batch)
            if close:
                compiled.append_inverse(closing)
            return compiled

        shared = fresh(True)
        assert shared.engine == path
        got = acceptance(shared) + survival(shared)
        want = acceptance(fresh(False)) + survival(fresh(True))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # the readouts differ between the open and the closed sequence
        assert not np.array_equal(fresh(False).propagate_faults(), got[-1])
        # a readout propagates the batch once, so it cannot be closed after one
        opened = fresh(False)
        opened.acceptance_probability()
        with pytest.raises(ValueError, match="before its first readout"):
            opened.append_inverse(closing)
        with pytest.raises(ValueError, match="already closed"):
            shared.append_inverse(closing)

    def test_one_stream_per_sequence(self, rng):
        batch = random_batch(2, 3, [Depolarizing(0.1)] * 2, SpamModel(), rng)
        with pytest.raises(ValueError):
            CompiledSequence(batch).acceptance_samples(10, stream_seeds(rng))


def drawn_batch(n, k_m, mode, channels, spam, rng):
    """k_m sequences drawn as the drivers draw them, one random Clifford or
    one random generator gate per position."""
    config = RBConfig(n=n, lengths=(1, 2, 3), mode=mode, generator_block=1)
    table = _draw_elements(config, len(channels), stream_seeds(rng, k_m))
    return SequenceBatch(n, *table, channels, spam)


class TestPauliKernel:
    """The Pauli path's half-table kernel at every register size it takes."""

    @pytest.mark.parametrize("mode", ["clifford", "generator"])
    @pytest.mark.parametrize("n", range(1, MAX_TABLE_QUBITS + 1))
    def test_group_is_stabilizer_group_of_the_product(self, n, mode, rng):
        # the oracle expands each sequence's composed product through
        # image_of_z, sharing no code with the kernel
        noise = Depolarizing(0.01)
        batch = drawn_batch(n, 3, mode, [noise] * 5, SpamModel(meas_flip=0.02), rng)
        for closed in (False, True):
            compiled = CompiledSequence(batch)
            if closed:
                compiled.append_inverse(noise)
            group, _ = compiled._readout(closed)
            assert group.shape == (3, 2 ** n)
            for k in range(3):
                product = product_of(batch_sequence(batch, k))
                if closed:
                    product = compose(product, inverse(product))
                assert group[k].tolist() == [s.bits for s in stabilizer_group(product)]

    @pytest.mark.parametrize("mode", ["clifford", "generator"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_expectations_match_dense_oracle(self, n, mode, rng):
        pauli, composed = mixed_channels(n)
        batch = drawn_batch(n, 4, mode, [pauli, composed, Ideal(), pauli, Depolarizing(0.03)],
                            MIXED_SPAM[n], rng)
        assert_batch_matches_dense_oracle(batch, pauli)

    @pytest.mark.parametrize("words", [1, 96])
    def test_table_block_size_does_not_change_results(self, words, rng, monkeypatch):
        # n = 2, K = 3: 24 words per position, so blocks of one position, or
        # of four with a short last block, against one block of all seven
        pauli, composed = mixed_channels(2)
        batch = drawn_batch(2, 3, "clifford", [pauli, composed, Ideal(), pauli] + [composed] * 3,
                            MIXED_SPAM[2], rng)
        results = {}
        for key in ("whole", "blocks"):
            if key == "blocks":
                monkeypatch.setattr(engines, "_TABLE_WORDS", words)
            results[key] = [CompiledSequence(batch).propagate_faults(),
                            closed_by_inverse(batch, pauli).propagate_faults()]
        assert all(np.array_equal(a, b) for a, b in zip(results["whole"], results["blocks"]))

    def test_traced_peak_stays_below_all_positions(self, rng):
        # one (L, K, 2^n) int64 array is 2.5 MB here: holding the stabilizers
        # or tables of all positions at once would show
        n, k_m, length = 6, 40, 120
        pauli = PauliChannel({"I" * n: 0.9, "X" + "I" * (n - 1): 0.06, "Z" * n: 0.04})
        spam = SpamModel(prep=Depolarizing(0.01), meas=pauli, meas_flip=0.01)
        batch = drawn_batch(n, k_m, "generator", [pauli] * length, spam, rng)
        CompiledSequence(batch).propagate_faults()  # first-call costs stay out of the trace
        tracemalloc.start()
        try:
            CompiledSequence(batch).propagate_faults()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def readouts(batch, closing, seeds):
    """Every readout of a batch: stabilizer expectations, acceptance with and
    without the identity, and their samples; then, closed by ``closing``, the
    same for survival."""
    compiled = CompiledSequence(batch)
    got = [compiled.propagate_faults(), compiled.acceptance_probability(),
           compiled.acceptance_probability(False), compiled.acceptance_samples(50, seeds)]
    compiled = closed_by_inverse(batch, closing)
    return got + [compiled.propagate_faults(), compiled.survival_probability(),
                  compiled.survival_samples(50, seeds)]


class TestGateTable:
    """Generator-mode batches pick each gate from one table of the G gates."""

    @pytest.mark.parametrize("words", [None, 1])
    @pytest.mark.parametrize("noise", ["pauli", "delta"])
    @pytest.mark.parametrize("n", range(1, MAX_DENSE_QUBITS + 1))
    def test_gate_table_equals_one_row_per_element(self, n, noise, words, rng, monkeypatch):
        # the same sequences, once as picks from the gate table and once with
        # one table row per position and sequence, give the same bits; with
        # one-word blocks, both are spanned a block of positions at a time
        if noise == "pauli":
            gate = PauliChannel({"I" * n: 0.9, "X" + "I" * (n - 1): 0.06, "Z" * n: 0.04})
            spam = SpamModel(prep=Depolarizing(0.05), meas_flip=0.03)
        else:
            gate = DeltaDepolarizing(0.2, 0.9, PauliString.single(n, n - 1, "Y"), 0.3)
            spam = SpamModel(prep=Depolarizing(0.05),
                             meas=PauliChannel({"I" * n: 0.92, "Y" * n: 0.08}))
        batch = drawn_batch(n, 3, "generator", [gate, Depolarizing(0.03)] * 3, spam, rng)
        assert len(batch.rows) == 3 * n + n * (n - 1) and batch.elements.shape == (6, 3)
        materialised = position_major_batch(n, batch.rows[batch.elements],
                                            batch.phases[batch.elements], batch.channels, spam)
        seeds = stream_seeds(rng, 3)
        want = readouts(batch, gate, seeds)
        if words is not None:
            monkeypatch.setattr(engines, "_TABLE_WORDS", words)
        for table in (batch, materialised):
            assert all(np.array_equal(a, b) for a, b in zip(readouts(table, gate, seeds), want))
        assert CompiledSequence(batch).engine == ("pauli" if noise == "pauli" else "dense")

    def test_generator_batch_builds_no_per_position_rows(self):
        # n = 6, K = 200, 400 positions: the (L, K, 2n) int64 rows of every
        # position alone would take 7.7 MB, their phases as much again
        n, k_m, m, b = 6, 200, 10, 40
        pauli = PauliChannel({"I" * n: 0.9, "X" + "I" * (n - 1): 0.06, "Z" * n: 0.04})
        config = RBConfig(n=n, lengths=(1, 2, 3), mode="generator", generator_block=b,
                          noise=NoiseModel(gate=pauli, spam=SpamModel(prep=Depolarizing(0.01))))
        seeds = seed_plans(3, range(k_m))
        _draw_batch(config, 1, seeds).propagate_faults()  # warm caches
        tracemalloc.start()
        try:
            compiled = _draw_batch(config, m, seeds)
            assert compiled.batch.elements.shape == (m * b, k_m)
            compiled.propagate_faults()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20


def one_row_per_pick(batch):
    """``batch`` with one table row per pick, position-major, as drawn
    Cliffords are laid out: a table this large is spanned a block of
    positions at a time, on half tables."""
    started = batch.elements >= 0
    elements = np.full(batch.elements.shape, -1)
    elements[started] = np.arange(np.count_nonzero(started))
    picks = batch.elements[started]
    return SequenceBatch(batch.n, batch.rows[picks], batch.phases[picks], elements,
                         batch.channels, batch.spam)


class TestImageTables:
    """A shared table small enough is spanned on to full 4^n image tables."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
    def test_full_images_equal_half_tables(self, n, rng, monkeypatch):
        # the same interleaved generator sequences as picks from the shared
        # table (full images up to n = 6; at n = 7 they exceed the cap) and
        # with one row per pick (half tables) give the same bits, open and closed
        gate = PauliChannel({"I" * n: 0.998, "X" + "I" * (n - 1): 0.001, "Z" * n: 0.001})
        spam = SpamModel(prep=Depolarizing(0.05),
                         meas=PauliChannel({"I" * n: 0.92, "Y" * n: 0.08}), meas_flip=0.03)
        fixed = (random_clifford(n, rng),
                 PauliChannel({"I" * n: 0.995, "I" * (n - 1) + "Y": 0.005}))
        config = RBConfig(n=n, lengths=(1, 2, 3), mode="generator", generator_block=5,
                          noise=NoiseModel(gate=gate, spam=spam))
        lengths, seeds = np.arange(40, 24, -1), stream_seeds(rng, 16)
        spanned, images = [], engines._images
        monkeypatch.setattr(engines, "_images",
                            lambda half, n: spanned.append(n) or images(half, n))
        for close in (False, True):
            shared = _draw_batch(config, lengths, seeds, close=close, fixed=fixed)
            picked = CompiledSequence(one_row_per_pick(shared.batch))
            if close:
                picked.append_inverse(gate)
            got = {}
            for name, compiled, full in (("shared", shared, n <= 6), ("picked", picked, False)):
                spanned.clear()
                got[name] = compiled.propagate_faults()
                assert spanned == ([n] if full else []), name
            assert np.array_equal(got["shared"], got["picked"])
            assert np.ptp(got["shared"][:, 1:]) > 1e-3  # the sequences differ

    def test_image_tables_stay_within_their_cap(self, rng):
        # n = 8: the 80 generator gates' full image tables would take
        # 80 * 4^8 uint16 words (10.5 MB); under the cap they stay half tables,
        # and the eigenvalue tables (512 KB per channel) lead the peak
        n = 8
        gate = PauliChannel({"I" * n: 0.9, "X" + "I" * (n - 1): 0.06, "Z" * n: 0.04})
        batch = drawn_batch(n, 4, "generator", [gate] * 6,
                            SpamModel(prep=Depolarizing(0.01), meas_flip=0.01), rng)
        CompiledSequence(batch).propagate_faults()  # first-call costs stay out of the trace
        tracemalloc.start()
        try:
            CompiledSequence(batch).propagate_faults()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20  # 2.9 MB under the cap, 12.9 MB without it


def oracle_expectations(seq, closing=None):
    """Dense ``<s>`` of each stabilizer of the ideal output state of a batch
    of one, in the engine's order, from the +1 probability after meas and
    flips; with ``closing``, of it closed by its signed inverse and ``closing``."""
    product = product_of(batch_sequence(seq, 0))
    if closing is not None:
        seq = closed_by(seq, closing)
        product = compose(product, inverse(product))
    rho = run_sequence_exact(seq)
    return [2.0 * measurement_success_probability(rho, s, seq.spam) - 1.0
            for s in stabilizer_group(product)]


def non_pauli_batch(n, mode, rng):
    """Three drawn sequences under noise that is not Pauli-diagonal: at
    positions, in a ``ComposedChannel``, in prep, with Pauli meas and flips."""
    delta = DeltaDepolarizing(0.2, 0.9, PauliString.single(n, n - 1, "Y"), 0.3)
    pauli = PauliChannel({"I" * n: 0.9, "X" + "I" * (n - 1): 0.06, "Z" * n: 0.04})
    spam = SpamModel(prep=DeltaDepolarizing(0.3, 0.95, PauliString.single(n, 0, "X"), 0.4),
                     meas=PauliChannel({"I" * n: 0.92, "Y" * n: 0.08}), meas_flip=0.04)
    channels = [ComposedChannel([Depolarizing(0.02), delta, pauli]), pauli, Ideal(), delta,
                Depolarizing(0.03)]
    return drawn_batch(n, 3, mode, channels, spam, rng)


class TestNonPauliNoise:
    """Noise that is not Pauli-diagonal, on all 4^n Paulis of each sequence."""

    @pytest.mark.parametrize("mode", ["clifford", "generator"])
    @pytest.mark.parametrize("n", range(1, MAX_DENSE_QUBITS + 1))
    def test_every_expectation_matches_dense_oracle(self, n, mode, rng):
        batch = non_pauli_batch(n, mode, rng)
        closing = DeltaDepolarizing(0.25, 0.97, PauliString.single(n, 0, "Z"), 0.5)
        seqs = [batch_of_one(n, batch_sequence(batch, k), batch.channels, batch.spam)
                 for k in range(3)]
        compiled = CompiledSequence(batch)
        assert compiled.engine == "dense"
        want = [oracle_expectations(seq) for seq in seqs]
        assert np.max(np.abs(compiled.propagate_faults() - want)) < 1e-12
        want = [oracle_expectations(seq, closing) for seq in seqs]
        assert np.max(np.abs(closed_by_inverse(batch, closing).propagate_faults() - want)) < 1e-12

    def test_engine_builds_no_dense_state(self, rng, monkeypatch):
        batch = non_pauli_batch(3, "clifford", rng)
        closing = DeltaDepolarizing(0.25, 0.97, PauliString.single(3, 0, "Z"), 0.5)
        seqs = [batch_of_one(3, batch_sequence(batch, k), batch.channels, batch.spam)
                 for k in range(3)]
        want = [[oracle_expectations(seq) for seq in seqs],
                [oracle_expectations(seq, closing) for seq in seqs]]

        def refuse(*args, **kwargs):
            raise AssertionError("the engine called a dense or per-element routine")

        for module in (engines, cliffords, channels):
            for name in ("run_sequence_exact", "clifford_to_matrix", "compose", "inverse",
                         "stabilizer_group", "apply_channel"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        got = [CompiledSequence(batch).propagate_faults(),
               closed_by_inverse(batch, closing).propagate_faults()]
        assert all(np.max(np.abs(g - w)) < 1e-12 for g, w in zip(got, want))

    @pytest.mark.parametrize("k_m", [100, 400])
    def test_signed_state_memory_is_bounded(self, k_m):
        # n = 6, m = 10 under delta_depolarizing: holding the 4^n signed Paulis
        # of all K = 100 sequences at once peaked at 50.4 MB; blocks of
        # sequences keep the peak under a quarter of that whatever K
        n, m = 6, 10
        gate = DeltaDepolarizing(0.02, 0.99, PauliString.single(n, 0, "X"), 0.01)
        config = RBConfig(n=n, lengths=(1, 2, 3), noise=NoiseModel(gate=gate))
        seeds = seed_plans(3, range(k_m))
        _draw_batch(config, 1, seeds[:2]).propagate_faults()  # warm caches
        tracemalloc.start()
        try:
            compiled = _draw_batch(config, m, seeds, close=True)
            assert compiled.engine == "dense"
            compiled.acceptance_probability()
            compiled.survival_probability()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 50.4e6 / 4

    def test_other_channel_classes_unsupported(self, rng):
        class Dephase(NoiseChannel):
            def apply(self, rho):
                return np.diag(np.diag(rho))

        batch = random_batch(1, 2, [Dephase()], SpamModel(), rng)
        with pytest.raises(UnsupportedChannelError, match="Dephase"):
            CompiledSequence(batch).propagate_faults()


class TestSequenceBatch:
    @pytest.mark.parametrize("n, engine, limit", [(MAX_TABLE_QUBITS + 1, "pauli", 8),
                                                  (MAX_DENSE_QUBITS + 1, "dense", 6)])
    @pytest.mark.parametrize("readout", ["propagate_faults", "acceptance_probability",
                                         "survival_probability"])
    def test_register_beyond_the_engine_limit_refused_at_first_readout(
            self, n, engine, limit, readout):
        gate = (Depolarizing(0.01) if engine == "pauli"
                else DeltaDepolarizing(0.02, 0.99, PauliString.single(n, 0, "Z"), 0.1))
        compiled = CompiledSequence(batch_of_one(n, [CliffordElement.identity(n)], gate))
        compiled.append_inverse(gate)  # building and closing the batch run nothing
        with pytest.raises(ValueError, match=f"^n = {n} exceeds the {engine} engine's "
                                             f"limit of {limit} qubits$"):
            getattr(compiled, readout)()

    def test_per_element_noise_list(self, rng):
        elements = random_elements(2, 3, rng)
        channels = [Depolarizing(0.1), Ideal(), Depolarizing(0.2)]
        seq = batch_of_one(2, elements, noise=channels)
        rho = run_sequence_exact(seq)
        expected_retention = 0.9 * 0.8
        from rbsim.cliffords import clifford_to_matrix

        psi = zero_state(2)
        for e in elements:
            u = clifford_to_matrix(e)
            psi = u @ psi @ u.conj().T
        expected = expected_retention * psi + (1 - expected_retention) * maximally_mixed_state(2)
        assert np.allclose(rho, expected, atol=1e-12)

    def test_per_element_noise_list_in_trajectories(self, rng):
        # different channels per element: eigenvalues applied to the wrong element show
        for n in (1, 2, 3):
            channels = [Depolarizing(0.1), Ideal(),
                        PauliChannel({"I" * n: 0.7, "X" + "I" * (n - 1): 0.3}),
                        ComposedChannel([Depolarizing(0.05),
                                         PauliChannel({"I" * n: 0.8, "I" * (n - 1) + "Y": 0.2})])]
            seq = batch_of_one(n, random_elements(n, 4, rng), noise=channels)
            assert_matches_dense_oracle(seq, Depolarizing(0.05))

    def test_noise_list_length_must_match(self, rng):
        # three positions and two channels would silently drop the last position
        rows, phases = random_clifford_rows(2, stream_seeds(rng, 2), 3)
        with pytest.raises(ValueError, match="one noise channel per position"):
            position_major_batch(2, rows, phases, [Ideal(), Ideal()])
        with pytest.raises(ValueError, match="one noise channel per position"):
            batch_of_one(2, random_elements(2, 3, rng), noise=[Ideal()] * 4)

    def test_table_must_be_t_by_2n(self, rng):
        rows, phases = random_clifford_rows(2, stream_seeds(rng, 2), 3)
        rows, phases = rows.reshape(-1, 4), phases.reshape(-1, 4)
        picks = np.arange(6).reshape(3, 2)
        for bad_rows, bad_phases in ((rows[:, :3], phases), (rows, phases[:-1]),
                                     (rows.reshape(-1, 2, 2), phases)):
            with pytest.raises(ValueError, match=r"\(T, 2n\)"):
                SequenceBatch(2, bad_rows, bad_phases, picks, [Ideal()] * 3)
        # a 2-qubit table does not make a 3-qubit batch
        with pytest.raises(ValueError, match=r"\(T, 2n\)"):
            SequenceBatch(3, rows, phases, picks, [Ideal()] * 3)
