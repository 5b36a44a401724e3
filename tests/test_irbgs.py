import math

import numpy as np
import pytest

from rbsim.channels import (
    ComposedChannel,
    Depolarizing,
    DeltaDepolarizing,
    Ideal,
    NoiseModel,
    PauliChannel,
    depolarizing_parameter,
)
from rbsim.cliffords import conjugate_pauli
from rbsim.fitting import r_from_p
from rbsim.irbgs import (
    IRBGSConfig,
    RecipeGate,
    SynthesisRecipe,
    builtin_recipes,
    clifford_element_from_unitary,
    cp_matrix,
    error_bound,
    irb_estimate,
    irbgs_estimate,
    load_recipes,
    p_matrix,
    rotation_expansion_recipe,
    run_irbgs,
    verify_synthesis,
)
from rbsim import rb as rb_module
from rbsim.engines import CompiledSequence
from rbsim.paulis import PauliString

from conftest import (average_fidelity, bundled_recipe_text, equal_up_to_global_phase,
                      pauli_matrix, position_major_batch)


class TestCPMatrix:
    def test_k1_is_cz(self):
        assert np.allclose(cp_matrix(1), np.diag([1, 1, 1, -1]), atol=1e-15)

    def test_k2_is_controlled_phase(self):
        assert np.allclose(cp_matrix(2), np.diag([1, 1, 1, 1j]), atol=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_square_relation(self, k):
        assert np.max(np.abs(p_matrix(k - 1) - p_matrix(k) @ p_matrix(k))) < 1e-12
        assert np.max(np.abs(cp_matrix(k - 1) - cp_matrix(k) @ cp_matrix(k))) < 1e-12

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            cp_matrix(0)


class TestVerifySynthesis:
    def test_first_row_hand_computation(self):
        # conjugating CP by X on the control moves the phase to |01>, so the
        # product is diag(1, i, 1, i) = I x P
        recipe = builtin_recipes()[0]
        assert np.allclose(recipe.product(), np.diag([1, 1j, 1, 1j]), atol=1e-12)
        report = verify_synthesis(recipe)
        assert report.passed and report.max_deviation <= 1e-12

    def test_all_seven_rows_pass(self):
        recipes = builtin_recipes()
        assert len(recipes) == 7
        for recipe in recipes:
            report = verify_synthesis(recipe)
            assert report.passed, recipe.name
            assert report.max_deviation <= 1e-12
            assert recipe.nonclifford_count == 2

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_rotation_pair_identity(self, k):
        # (X x I) CP(k) (X x I) CP(k) applies P(k) on the target
        report = verify_synthesis(rotation_expansion_recipe(k))
        assert report.passed and report.max_deviation <= 1e-12

    def test_corrupted_recipe_fails_loudly(self):
        base = builtin_recipes()[0]
        corrupted = SynthesisRecipe(name="broken", target=base.target,
                                    gates=base.gates[:-1], target_name=base.target_name)
        report = verify_synthesis(corrupted)
        assert not report.passed
        assert report.max_deviation > 0.1

    def test_recipe_json_roundtrip(self, tmp_path):
        path = tmp_path / "recipes.json"
        path.write_text(bundled_recipe_text())
        loaded = load_recipes(path)
        assert [r.name for r in loaded] == [r.name for r in builtin_recipes()]
        assert all(verify_synthesis(r).passed for r in loaded)

    def test_matrix_literal_target(self):
        target = [[[1, 0], [0, 0], [0, 0], [0, 0]],
                  [[0, 0], [1, 0], [0, 0], [0, 0]],
                  [[0, 0], [0, 0], [1, 0], [0, 0]],
                  [[0, 0], [0, 0], [0, 0], [0, 1]]]
        entry = {"name": "literal-cp", "target": target,
                 "gates": [{"gate": "CP", "qubits": [0, 1], "k": 2}]}
        recipe = SynthesisRecipe.from_json(entry)
        assert verify_synthesis(recipe).passed

    def test_bundled_file_matches_builtins(self):
        # the built-in set is the bundled file: the seven generator targets in order
        assert [r.target_name for r in builtin_recipes()] == [
            "IxP", "PxP", "CNOT", "IxH", "HxH", "IxPdag", "PdagxPdag"]


class TestEstimators:
    def test_irb_estimate_examples(self):
        assert irb_estimate(0.99, 0.99, 4) == 0.0
        assert abs(irb_estimate(0.99, 0.9801, 4) - 0.0075) < 1e-12
        assert abs(irb_estimate(0.998, 0.996004, 2) - 0.001) < 1e-12

    def test_irbgs_estimate_roundtrips(self):
        p = 0.99
        p_n = 0.995
        assert abs(irbgs_estimate(p, p * p_n ** 2, 4, 2) - 0.75 * (1 - p_n)) < 1e-12
        p_n = 0.999
        assert abs(irbgs_estimate(0.9995, 0.9995 * p_n ** 4, 4, 4) - 0.75 * 0.001) < 1e-12

    def test_exponent_one_matches_plain_ratio_form(self):
        p, pbc = 0.99, 0.985
        assert abs(irbgs_estimate(p, pbc, 4, 1) - 0.75 * (1 - pbc / p)) < 1e-15

    def test_planted_recovery_for_all_small_counts(self):
        p = 0.999
        for count in range(1, 9):
            p_n = 0.9995
            got = irbgs_estimate(p, p * p_n ** count, 4, count)
            assert abs(got - 0.75 * (1 - p_n)) < 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            irbgs_estimate(0.0, 0.5, 4, 2)
        with pytest.raises(ValueError):
            irbgs_estimate(0.9, -0.1, 4, 2)
        with pytest.raises(ValueError):
            irbgs_estimate(0.9, 0.8, 4, 0)
        with pytest.warns(UserWarning):
            irb_estimate(0.9, 0.95, 4)


class TestErrorBound:
    def test_perfect_baseline_gives_zero(self):
        assert error_bound("depolarizing", 1.0, 4) == 0.0
        assert error_bound("pauli", 1.0, 4) == 0.0
        expected = math.sqrt(0.75 * 2 * 0.1)
        assert abs(error_bound("delta", 1.0, 4, delta=0.1) - expected) < 1e-12

    def test_depolarizing_arithmetic_oracle(self):
        e_prime = 2 * 15 * 0.01 / 16 + 4 * math.sqrt(0.01) * math.sqrt(15)
        assert abs(e_prime - 1.5679433) < 5e-8
        got = error_bound("depolarizing", 0.99, 4)
        assert abs(got - math.sqrt(0.75 * e_prime / 0.99)) < 1e-12
        assert abs(got - 1.0899) < 5e-5  # vacuous but as stated

    def test_pauli_dominates_depolarizing(self):
        for p in (0.9, 0.99, 0.999):
            assert error_bound("pauli", p, 4) >= error_bound("depolarizing", p, 4)

    def test_monotone_nonincreasing_in_p(self):
        for cls in ("depolarizing", "pauli"):
            values = [error_bound(cls, p, 4) for p in np.linspace(0.5, 1.0, 30)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            error_bound("depolarizing", 0.0, 4)
        with pytest.raises(ValueError):
            error_bound("delta", 0.9, 4)  # missing delta
        with pytest.raises(ValueError):
            error_bound("bogus", 0.9, 4)


class TestFidelityDifferenceIdentity:
    def test_choi_fidelity_identity_for_depolarizing(self):
        # |F(L_N^2 ∘ L) - F(dep(p p_N^2))| = (d-1)/d |p_bar - p p_N^2|
        p, p_n = 0.98, 0.99
        lam = Depolarizing(1 - p)
        lam_n = Depolarizing(1 - p_n)
        combined = ComposedChannel([lam, lam_n, lam_n])
        f_combined = average_fidelity(combined, 2)
        f_twirled = average_fidelity(Depolarizing(1 - p * p_n ** 2), 2)
        p_bar = depolarizing_parameter(combined, 2)
        lhs = abs(f_combined - f_twirled)
        rhs = 0.75 * abs(p_bar - p * p_n ** 2)
        assert abs(lhs - rhs) < 1e-12

    def test_identity_with_pauli_nonclifford_noise(self):
        lam = Depolarizing(0.01)
        lam_n = PauliChannel({"II": 0.99, "ZZ": 0.01})
        combined = ComposedChannel([lam, lam_n, lam_n])
        p_bar = depolarizing_parameter(combined, 2)
        p = 0.99
        p_n2 = depolarizing_parameter(ComposedChannel([lam_n, lam_n]), 2)
        lhs = abs(average_fidelity(combined, 2)
                  - average_fidelity(Depolarizing(1 - p * p_n2), 2))
        rhs = 0.75 * abs(p_bar - p * p_n2)
        assert abs(lhs - rhs) < 1e-12


class TestRunIRBGS:
    def test_depolarizing_roundtrip(self):
        cfg = IRBGSConfig(lengths=tuple(range(2, 21, 2)), k_m=4, seed=5,
                          noise=NoiseModel(gate=Depolarizing(0.001)),
                          noise_n=Depolarizing(0.0005),
                          recipe=builtin_recipes()[0])
        est = run_irbgs(cfg)
        assert abs(est.r_n_est - 0.75 * 0.0005) < 1e-6
        assert est.noise_class == "depolarizing"
        assert est.nonclifford_count == 2
        # the estimate reads the fits its two runs carry
        assert run_irbgs(cfg).p == est.baseline_data.fit.p
        assert est.p_bar_c == est.interleaved_data.fit.p

    def test_ideal_nonclifford_noise_gives_zero(self):
        cfg = IRBGSConfig(lengths=(2, 6, 10, 14), k_m=3, seed=6,
                          noise=NoiseModel(gate=Depolarizing(0.002)),
                          noise_n=Ideal(), recipe=builtin_recipes()[2])
        est = run_irbgs(cfg)
        assert abs(est.r_n_est) < 1e-6

    def test_pauli_noise_within_error_bound(self):
        lam_n = PauliChannel({"II": 0.99, "ZZ": 0.01})
        cfg = IRBGSConfig(lengths=tuple(range(2, 19, 4)), k_m=6, seed=8,
                          noise=NoiseModel(gate=Depolarizing(0.001)),
                          noise_n=lam_n, recipe=builtin_recipes()[0])
        est = run_irbgs(cfg)
        r_n_true = r_from_p(depolarizing_parameter(lam_n, 2), 4)
        assert est.noise_class == "pauli"
        assert abs(r_n_true - est.r_n_est) <= est.bound

    def test_delta_depolarizing_class_detected(self):
        lam_n = DeltaDepolarizing(0.001, 0.9995, PauliString.single(2, 1, "Z"), 0.02)
        cfg = IRBGSConfig(lengths=(2, 6, 10), k_m=2, seed=4,
                          noise=NoiseModel(gate=Depolarizing(0.001)),
                          noise_n=lam_n, recipe=builtin_recipes()[1])
        est = run_irbgs(cfg)
        assert est.noise_class == "delta"
        r_n_true = r_from_p(depolarizing_parameter(lam_n, 2), 4)
        assert abs(r_n_true - est.r_n_est) <= est.bound

    @pytest.mark.parametrize("lengths, k_m", [((2, 6, 10), 4), ((20, 60, 100), 30)])
    def test_fixed_element_is_one_table_row(self, lengths, k_m, monkeypatch):
        # the interleaved sequences, every length in one end-aligned batch,
        # pick the fixed element from one extra table row at every odd
        # position of each; their survivals equal, bit for bit, those of the
        # same sequences with one table row per position and sequence (at
        # K = 30 and m = 60, 100 the table outgrows one span block)
        batches, draw_batch = [], rb_module._draw_batch

        def spy(*args, **kwargs):
            compiled = draw_batch(*args, **kwargs)
            batches.append(compiled.batch)
            return compiled

        monkeypatch.setattr(rb_module, "_draw_batch", spy)
        lam_n = PauliChannel({"II": 0.99, "ZZ": 0.01})
        cfg = IRBGSConfig(lengths=lengths, k_m=k_m, seed=8,
                          noise=NoiseModel(gate=Depolarizing(0.001)),
                          noise_n=lam_n, recipe=builtin_recipes()[0])
        est = run_irbgs(cfg)
        fixed = clifford_element_from_unitary(np.asarray(cfg.recipe.target, dtype=complex), 2)
        assert len(batches) == 2  # the baseline's, then the interleaved one
        baseline, batch = batches
        # the batch holds the units longest first, ties in unit order
        per_unit = np.repeat(lengths, k_m)
        units = np.argsort(-per_unit, kind="stable")
        assert len(baseline.rows) == sum(lengths) * k_m
        assert baseline.elements.shape == (max(lengths), len(units))
        assert len(batch.rows) == sum(lengths) * k_m + 1
        assert batch.elements.shape == (2 * max(lengths), len(units))
        fixed_channel = ComposedChannel([lam_n] * cfg.recipe.nonclifford_count)
        assert batch.channels == [cfg.noise.gate, fixed_channel] * max(lengths)
        assert (batch.rows[-1].tolist(), batch.phases[-1].tolist()) == \
            (list(fixed.rows), list(fixed.phases))
        got = est.interleaved_data.per_sequence.ravel()[units]
        for m in lengths:
            columns = np.flatnonzero(per_unit[units] == m)
            assert np.all(batch.elements[:-2 * m, columns] == -1)
            picks = batch.elements[-2 * m:, columns]
            assert np.all(picks[1::2] == len(batch.rows) - 1)
            one_per_element = CompiledSequence(position_major_batch(
                2, batch.rows[picks], batch.phases[picks], batch.channels[-2 * m:],
                batch.spam))
            one_per_element.append_inverse(cfg.noise.gate)
            assert np.array_equal(one_per_element.survival_probability(), got[columns])

    def test_unverified_recipe_refused(self):
        base = builtin_recipes()[0]
        broken = SynthesisRecipe(name="broken", target=base.target,
                                 gates=base.gates[:-1])
        cfg = IRBGSConfig(lengths=(2, 4, 6), k_m=2,
                          noise=NoiseModel(gate=Depolarizing(0.001)),
                          noise_n=Ideal(), recipe=broken)
        with pytest.raises(ValueError, match="verification"):
            run_irbgs(cfg)

    @pytest.mark.parametrize("fields, message", [
        ({"k_m": 0, "fit_strategy": "bogus"}, "k_m must be >= 1"),
        ({"fit_strategy": "bogus"}, "unknown fit strategy 'bogus'"),
        ({"lengths": (1.5, 2.9, 3)}, "lengths must be integers"),
        # the register size first, then RBConfig's checks, then the recipe
        ({"n": 3, "k_m": 0, "recipe": None}, "the synthesis construction targets two qubits"),
        ({"k_m": 0, "recipe": None}, "k_m must be >= 1"),
        ({"recipe": None}, "an interleaved run needs a synthesis recipe"),
        # only exact Clifford-element runs
        ({"exact": False}, "interleaved runs are exact"),
        ({"mode": "generator"}, "interleaved runs draw Clifford elements"),
    ])
    def test_config_checked_when_built(self, fields, message):
        # the config is an RBConfig, checked as one when built
        with pytest.raises(ValueError, match=message):
            IRBGSConfig(**{"lengths": (2, 4, 6), "recipe": builtin_recipes()[0], **fields})
        cfg = IRBGSConfig(lengths=(2.0, 4, 6), recipe=builtin_recipes()[0], fit_strategy="box")
        assert cfg.lengths == (2, 4, 6)
        assert cfg.exact and cfg.fit_strategy == "box"

    def test_config_is_its_own_rb_config(self):
        cfg = IRBGSConfig(lengths=(2, 4, 6), recipe=builtin_recipes()[0])
        assert isinstance(cfg, rb_module.RBConfig) and not hasattr(cfg, "baseline")
        assert (cfg.n, cfg.k_m, cfg.exact, cfg.mode) == (2, 30, True, "clifford")


class TestCliffordFromUnitary:
    def test_recipe_targets_are_clifford(self):
        for recipe in builtin_recipes():
            elem = clifford_element_from_unitary(np.asarray(recipe.target), 2)
            assert elem.is_valid()

    def test_images_match_dense_conjugation(self):
        for recipe in builtin_recipes():
            u = np.asarray(recipe.target, dtype=complex)
            elem = clifford_element_from_unitary(u, 2)
            for b in range(16):
                pauli = PauliString(2, b)
                assert np.allclose(conjugate_pauli(elem, pauli).to_matrix(),
                                   u @ pauli.to_matrix() @ u.conj().T, atol=1e-12), \
                    (recipe.name, pauli)

    def test_non_clifford_rejected(self):
        with pytest.raises(ValueError):
            clifford_element_from_unitary(cp_matrix(2), 2)  # CS is not Clifford

    def test_recovers_known_gate(self):
        from rbsim.cliffords import CliffordElement, parse_circuit

        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        elem = clifford_element_from_unitary(cnot, 2)
        expected = CliffordElement.from_gates(2, parse_circuit("CNOT 0 1"))
        assert elem == expected


def test_recipe_gate_validation():
    with pytest.raises(ValueError):
        RecipeGate("CP", (0, 0), 2)
    with pytest.raises(ValueError):
        RecipeGate("CP", (0, 1))  # missing k
    with pytest.raises(ValueError):
        RecipeGate("H", (0, 1))
    with pytest.raises(ValueError):
        RecipeGate("FOO", (0,))
    with pytest.raises(ValueError, match="H takes no rotation index k"):
        RecipeGate("H", (0,), 5)
    for qubits, k in (((0.5,), None), ((2,), None), ((-1,), None), ((True,), None),
                      ((0, 1), "2"), ((0, 1), 2.5), ((0, 1), True)):
        with pytest.raises(ValueError):
            RecipeGate("CP" if k is not None else "H", qubits, k)
    assert RecipeGate("CP", (0.0, 1), 2.0) == RecipeGate("CP", (0, 1), 2)


def test_run_irbgs_fits_its_two_curves_in_one_call(monkeypatch):
    calls = []
    fit = rb_module.fit_decay
    monkeypatch.setattr(rb_module, "fit_decay", lambda *a, **k: calls.append(1) or fit(*a, **k))
    cfg = IRBGSConfig(lengths=(2, 5, 8, 11), k_m=3, seed=4,
                      noise=NoiseModel(gate=Depolarizing(0.002)),
                      noise_n=Depolarizing(0.001), recipe=builtin_recipes()[0])
    est = run_irbgs(cfg)
    assert len(calls) == 1
    # the baseline curve is the one run_standard_rb fits alone
    baseline = rb_module.run_standard_rb(cfg)
    assert est.baseline_data.fit == baseline.fit
    assert np.array_equal(est.baseline_data.per_sequence, baseline.per_sequence)
