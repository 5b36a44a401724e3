from collections import Counter
from functools import reduce

import numpy as np
import pytest

from rbsim.channels import DeltaDepolarizing, Depolarizing, Ideal, NoiseModel, SpamModel
from rbsim.cliffords import CliffordElement, compose, inverse, parse_circuit
from rbsim.engines import SequenceBatch
from rbsim.fitting import fit_decay, r_from_p
from rbsim.paulis import PauliString
from rbsim.rb import (RBConfig, RBData, _draw_elements, _rb_ensemble, generator_gate_set,
                       run_standard_rb)
from rbsim.seeding import seed_plans, stream_words

from conftest import batch_sequence, seed_with_word, stream_seeds


def depolarizing_model(eps):
    return NoiseModel(gate=Depolarizing(eps))


def drawn_sequence(config, m, seeds):
    """The elements ``_draw_elements`` draws for one sequence of length m from
    the stream ``seeds[0]``."""
    rows, phases, picks = _draw_elements(config, m, seeds)
    return batch_sequence(SequenceBatch(config.n, rows, phases, picks, [Ideal()] * len(picks)), 0)


def drawn_gates(n, m, b, rng):
    """The generator gates of one generator-mode sequence of m blocks of b.

    Each drawn element is named by its packed rows and phases, the key of
    the element of one gate: P and P† share rows and differ in phases.
    """
    gates = {CliffordElement.from_gates(n, [g]).key(): g for g in generator_gate_set(n)}
    assert len(gates) == len(generator_gate_set(n))
    config = RBConfig(n=n, lengths=(m, m + 1, m + 2), mode="generator", generator_block=b)
    return [gates[e.key()] for e in drawn_sequence(config, m, stream_seeds(rng))]


class TestSampleRBSequence:
    """Sequences as the drivers draw them, in both modes."""

    def test_inverse_closes_sequence(self, rng):
        for mode, per_element in (("clifford", 1), ("generator", 3)):
            config = RBConfig(n=2, lengths=(1, 2, 3), mode=mode, generator_block=per_element)
            for m in (1, 2, 7):
                elements = drawn_sequence(config, m, stream_seeds(rng))
                assert len(elements) == m * per_element
                assert all(e.is_valid() for e in elements)
                product = reduce(compose, elements)
                assert compose(product, inverse(product)) == CliffordElement.identity(2)

    def test_hadamard_is_self_inverse(self):
        h0 = CliffordElement.from_gates(2, parse_circuit("H 0"))
        assert inverse(h0) == h0


class TestGeneratorSequences:
    def test_gate_count_and_support(self, rng):
        # a drawn element outside the generator set has no key in drawn_gates
        assert len(drawn_gates(2, 7, 10, rng)) == 70
        assert "X" not in {g.name for g in generator_gate_set(2)}

    def test_default_block_length_is_ten(self):
        assert RBConfig(n=2, lengths=(1, 2, 3), mode="generator").generator_block == 10

    def test_uniform_gate_frequencies(self):
        gates = drawn_gates(2, 80_000, 1, np.random.default_rng(5))
        support = generator_gate_set(2)
        counts = Counter(gates)
        assert set(counts) == set(support)
        expected = len(gates) / len(support)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # df = 7, alpha = 0.01
        assert chi2 < 18.475

    @pytest.mark.parametrize("n, critical", [(2, 18.475), (6, 72.443)])
    def test_picks_across_a_batch_chi_square(self, n, critical):
        # G - 1 degrees of freedom at alpha = 0.01; every unit of the batch
        # draws from its own stream
        config = RBConfig(n=n, lengths=(1, 2, 3), mode="generator", generator_block=3)
        g = len(generator_gate_set(n))
        rows, phases, picks = _draw_elements(config, 100, seed_plans(31, range(400)))
        keys = np.concatenate([rows[picks], phases[picks]], axis=-1).reshape(-1, 4 * n)
        counts = np.unique(keys, axis=0, return_counts=True)[1]
        assert len(counts) == g
        expected = len(keys) / g
        assert np.sum((counts - expected) ** 2 / expected) < critical

    @pytest.mark.parametrize("n, refilled", [(1, True), (2, False), (6, True)])
    def test_top_word_is_refilled_unless_g_divides_2_to_the_64(self, n, refilled):
        # G = 3, 8, 48 gates: words at or above 2^64 - (2^64 mod G) are
        # refilled from past the budget, so each pick is exactly uniform
        g = len(generator_gate_set(n))
        assert ((1 << 64) % g != 0) == refilled
        config = RBConfig(n=n, lengths=(1, 2, 3), mode="generator", generator_block=2)
        m, index = 3, 4
        budget = m * config.generator_block
        seed = seed_with_word(2 ** 64 - 1, index)
        words = stream_words([seed], 0, budget + 1)[0]
        assert words[index] == 2 ** 64 - 1
        if refilled:
            words[index] = words[budget]
        gate_set = generator_gate_set(n)
        want = [gate_set[i] for i in (words[:budget] % np.uint64(g)).tolist()]
        gates = {CliffordElement.from_gates(n, [gate]).key(): gate for gate in gate_set}
        drawn = drawn_sequence(config, m, [seed])
        assert [gates[e.key()] for e in drawn] == want

    def test_block_length_validated(self):
        with pytest.raises(ValueError):
            RBConfig(n=2, lengths=(1, 2, 3), mode="generator", generator_block=0)


class TestRunStandardRB:
    def test_noiseless_survival_is_one(self, rng):
        cfg = RBConfig(n=2, lengths=(1, 4, 9), k_m=3, exact=True, seed=4)
        data = run_standard_rb(cfg)
        assert np.allclose(data.mean, 1.0, atol=1e-12)

    def test_exact_mode_closed_form_every_length(self):
        eps = 0.004
        cfg = RBConfig(n=2, lengths=tuple(range(1, 30, 4)), k_m=3, exact=True,
                       noise=depolarizing_model(eps), seed=10)
        data = run_standard_rb(cfg)
        for m, vals in zip(data.lengths, data.per_sequence):
            expected = 0.25 + 0.75 * (1 - eps) ** (m + 1)
            assert np.allclose(vals, expected, atol=1e-12)

    def test_exact_mode_monotone_nonincreasing(self):
        cfg = RBConfig(n=2, lengths=tuple(range(1, 40, 3)), k_m=2, exact=True,
                       noise=depolarizing_model(0.01), seed=2)
        data = run_standard_rb(cfg)
        assert all(a >= b - 1e-12 for a, b in zip(data.mean, data.mean[1:]))

    def test_fit_recovers_planted_parameter(self):
        eps = 0.001
        cfg = RBConfig(n=2, lengths=tuple(range(5, 51, 5)), k_m=5, exact=True,
                       noise=depolarizing_model(eps), seed=3)
        data = run_standard_rb(cfg)
        assert abs(data.fit.p - (1 - eps)) < 1e-6
        assert abs(data.r - 0.75 * eps) < 1e-6

    def test_shot_mode_converges_to_exact(self):
        eps = 0.01
        exact_cfg = RBConfig(n=2, lengths=(4, 9, 14), k_m=4, exact=True,
                             noise=depolarizing_model(eps), seed=21)
        shot_cfg = RBConfig(n=2, lengths=(4, 9, 14), k_m=4, shots=10_000,
                            noise=depolarizing_model(eps), seed=21)
        exact = run_standard_rb(exact_cfg)
        shots = run_standard_rb(shot_cfg)
        for pe, ps in zip(exact.mean, shots.mean):
            sigma = np.sqrt(pe * (1 - pe) / (10_000 * 4))
            assert abs(pe - ps) < 3.5 * sigma

    def test_measurement_flips_alone_give_closed_form_survival(self):
        # each of the n measured qubits flips with probability 2p/3
        p = 0.1
        for n in (1, 2, 3):
            cfg = RBConfig(n=n, lengths=(1, 4, 7), k_m=3, exact=True,
                           noise=NoiseModel(spam=SpamModel(meas_flip=p)), seed=4)
            assert np.allclose(run_standard_rb(cfg).mean, (1 - 2 * p / 3) ** n, atol=1e-12)

    def test_exact_survival_with_measurement_flips_matches_sampled_runs(self):
        noise = NoiseModel(gate=Depolarizing(0.01), spam=SpamModel(meas_flip=0.1))
        lengths, k_m, shots, seeds = (1, 5, 10), 4, 500, range(3, 8)
        exact = run_standard_rb(RBConfig(n=2, lengths=lengths, k_m=k_m, exact=True,
                                         noise=noise, seed=3))
        sampled = np.mean([run_standard_rb(RBConfig(n=2, lengths=lengths, k_m=k_m, shots=shots,
                                                    noise=noise, seed=seed)).mean
                           for seed in seeds], axis=0)
        # depolarizing noise and flips: the exact survival does not depend on the sequence
        sigma = np.sqrt(exact.mean * (1 - exact.mean) / (k_m * shots * len(seeds)))
        assert np.all(np.abs(sampled - exact.mean) < 4 * sigma)

    def test_generator_mode_decay_in_per_generator_parameter(self):
        eps = 0.002
        b = 10
        cfg = RBConfig(n=2, lengths=(2, 4, 6, 8, 10), k_m=4, exact=True,
                       noise=depolarizing_model(eps), mode="generator",
                       generator_block=b, seed=6)
        data = run_standard_rb(cfg)
        for m, vals in zip(data.lengths, data.per_sequence):
            expected = 0.25 + 0.75 * (1 - eps) ** (m * b + 1)
            assert np.allclose(vals, expected, atol=1e-12)
        assert abs(data.fit.p - (1 - eps) ** b) < 1e-6

    def test_non_pauli_noise_uses_exact_fallback(self):
        noise = NoiseModel(gate=DeltaDepolarizing(0.02, 0.99, PauliString.single(2, 0, "Z"), 0.1))
        cfg = RBConfig(n=2, lengths=(2, 4, 6), k_m=2, shots=200, noise=noise, seed=8)
        data = run_standard_rb(cfg)
        assert np.all(data.mean <= 1.0) and np.all(data.mean >= 0.0)

    @pytest.mark.parametrize("gate", [
        Depolarizing(0.03), DeltaDepolarizing(0.02, 0.99, PauliString.single(2, 1, "Y"), 0.1)])
    @pytest.mark.parametrize("mode", ["clifford", "generator"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_interleaving_the_ideal_identity_changes_nothing(self, gate, mode, exact):
        # interleaved RB with a noiseless identity as its fixed element runs
        # the same sequences as plain RB, one more table row aside
        noise = NoiseModel(gate=gate, spam=SpamModel(prep=Depolarizing(0.02), meas_flip=0.01))
        cfg = RBConfig(n=2, lengths=(1, 4, 3, 4), k_m=3, shots=50, exact=exact, noise=noise,
                       mode=mode, generator_block=2, seed=6)
        plain = _rb_ensemble(cfg, 11)
        interleaved = _rb_ensemble(cfg, 11, (CliffordElement.identity(2), Ideal()))
        assert np.array_equal(interleaved, plain)
        assert not np.array_equal(plain, _rb_ensemble(cfg))  # the seed is the one given

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RBConfig(n=2, lengths=())
        with pytest.raises(ValueError):
            RBConfig(n=2, lengths=(0,))
        with pytest.raises(ValueError):
            RBConfig(n=2, lengths=(1, 2, 3), k_m=0)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                RBConfig(n=n, lengths=(1, 2, 3), mode="generator")
        with pytest.raises(ValueError):
            RBConfig(n=2, lengths=(1, 2, 3), mode="bogus")
        with pytest.raises(ValueError):
            RBConfig(n=2, lengths=(1, 2, 3), fit_strategy="bogus")
        for lengths in ((2, 4), (5, 5, 5)):
            with pytest.raises(ValueError, match="need at least 3 points with 3 distinct"):
                RBConfig(n=2, lengths=lengths)

    def test_non_integral_lengths_refused(self):
        # truncating (1.5, 2.9, 3) would run (1, 2, 3) without a word
        with pytest.raises(ValueError, match=r"lengths must be integers, not \[1\.5, 2\.9, 3\]"):
            RBConfig(n=1, lengths=(1.5, 2.9, 3), exact=True)
        config = RBConfig(n=1, lengths=np.arange(1, 4), exact=True)
        assert config.lengths == (1, 2, 3) and all(type(m) is int for m in config.lengths)


FIT_LENGTHS = tuple(range(5, 51, 5))
# a line: the free fit's optimum lies far outside the [0, 1] box
LINE = 0.9 - 0.004 * np.array(FIT_LENGTHS)
UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))


class TestFitRule:
    """``RBData.fitted``, the drivers' one fit rule, at each ``fit_strategy``."""

    @pytest.mark.parametrize("spam", [SpamModel(), SpamModel(meas_flip=0.02)],
                             ids=["trivial-spam", "spam"])
    @pytest.mark.parametrize("strategy, bounds", [
        ("auto", {True: ((0.25, 0.25), (0.0, 1.0)), False: UNIT_BOX}),
        ("box", {True: UNIT_BOX, False: UNIT_BOX}),
        ("free", {True: None, False: None}),
    ])
    def test_strategy_picks_the_bounds(self, strategy, bounds, spam):
        cfg = RBConfig(n=2, lengths=FIT_LENGTHS, fit_strategy=strategy,
                       noise=NoiseModel(spam=spam))
        data = RBData.fitted(cfg, np.repeat(LINE[:, None], 3, axis=1))
        fit = data.fit
        if strategy == "auto" and spam.is_trivial:
            assert fit.a0 == 0.25  # pinned to 1/d
        elif strategy == "free":
            assert not (0.0 <= fit.a0 <= 1.0 and 0.0 <= fit.b0 <= 1.0)
        else:
            assert 0.0 <= fit.a0 <= 1.0 and 0.0 <= fit.b0 <= 1.0
        # every value of a length is the same: the stderrs are round-off, and
        # the means are fitted unweighted
        assert np.all(data.stderr <= 1e-12)
        assert fit == fit_decay(zip(FIT_LENGTHS, data.mean),
                                coefficient_bounds=bounds[spam.is_trivial])
        assert data.r == r_from_p(fit.p, 4)

    def test_means_are_weighted_only_above_round_off(self):
        values = LINE[:, None] + np.random.default_rng(3).normal(0.0, 1e-3, (len(LINE), 4))
        cfg = RBConfig(n=2, lengths=FIT_LENGTHS, fit_strategy="box")
        data = RBData.fitted(cfg, values)
        stderr = values.std(axis=1, ddof=1) / 2.0
        assert np.array_equal(data.mean, values.mean(axis=1))
        assert np.array_equal(data.stderr, stderr)
        assert data.fit == fit_decay(zip(FIT_LENGTHS, data.mean), weights=1.0 / stderr ** 2,
                                     coefficient_bounds=UNIT_BOX)
        # one length without spread: its stderr is round-off, so no length is weighted
        values[4] = values[4, 0]
        data = RBData.fitted(cfg, values)
        assert data.stderr[4] <= 1e-12
        assert data.fit == fit_decay(zip(FIT_LENGTHS, data.mean), coefficient_bounds=UNIT_BOX)

    def test_curves_fitted_in_one_call_as_if_alone(self, monkeypatch):
        rng = np.random.default_rng(8)
        weighted = LINE[:, None] + rng.normal(0.0, 1e-3, (len(LINE), 4))
        unweighted = np.repeat((0.25 + 0.7 * 0.97 ** np.array(FIT_LENGTHS))[:, None], 4, axis=1)
        cfg = RBConfig(n=2, lengths=FIT_LENGTHS)
        alone = [RBData.fitted(cfg, weighted), RBData.fitted(cfg, unweighted)]
        calls = []
        monkeypatch.setattr("rbsim.rb.fit_decay",
                            lambda *args, **kwargs: calls.append(1) or fit_decay(*args, **kwargs))
        together = RBData.fitted(cfg, np.stack([weighted, unweighted]))
        assert len(calls) == 1
        for got, want in zip(together, alone):
            assert got.fit == want.fit and got.r == want.r
            for name in ("mean", "stderr", "per_sequence"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
