import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rbsim import irbgs as irbgs_module, rb as rb_module, rbsv as rbsv_module
from rbsim.cli import main
from rbsim.engines import CompiledSequence
from rbsim.channels import NoiseModel, PauliChannel
from rbsim.rbsv import RBSVConfig
from rbsim.seeding import seed_plan, unit_seeds

from conftest import bundled_recipe_text

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def small_rbsv_config(seed=11):
    return {
        "protocol": "rbsv",
        "n": 2,
        "lengths": [3, 6, 9, 12],
        "K_m": 6,
        "N_m": 24,
        "shots": 24,
        "mode": "sampled",
        "noise": {"gate": {"kind": "depolarizing", "epsilon": 0.01}},
        "seed": seed,
    }


IRBGS_CONFIG = {
    "protocol": "irbgs",
    "lengths": [2, 5, 8],
    "K_m": 2,
    "noise": {"gate": {"kind": "depolarizing", "epsilon": 0.002}},
    "noise_n": {"kind": "depolarizing", "epsilon": 0.001},
    "recipe": "phase-on-j",
    "seed": 3,
}


def read_csv(path):
    header, *rows = open(path).read().splitlines()
    return [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]


def assert_one_error(capsys, fragment):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert fragment in lines[0]


class TestConfigErrors:
    def test_missing_config_file(self, capsys):
        assert main(["rb", "--config", "/nonexistent.json"]) == 2
        assert "config file not found" in capsys.readouterr().err

    def test_missing_noise_field(self, tmp_path, capsys):
        path = write_config(tmp_path, "bad.json", {"protocol": "rb", "lengths": [1, 2, 3]})
        assert main(["rb", "--config", path]) == 2
        assert "noise" in capsys.readouterr().err

    def test_bad_channel_kind(self, tmp_path, capsys):
        cfg = small_rbsv_config()
        cfg["noise"] = {"gate": {"kind": "warp"}}
        path = write_config(tmp_path, "bad2.json", cfg)
        assert main(["rbsv", "--config", path]) == 2
        assert "noise" in capsys.readouterr().err

    def test_protocol_subcommand_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, "mis.json", small_rbsv_config())
        assert main(["rb", "--config", path]) == 2
        assert "protocol" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["rb", "--config", str(path)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        path = write_config(tmp_path, "list.json", [1, 2])
        assert main(["rb", "--config", path]) == 2
        assert_one_error(capsys, "JSON object")

    @pytest.mark.parametrize("command, edit, field", [
        ("rb", {"k_m": 3}, "'k_m'"),
        ("rb", {"N_m": 24}, "'N_m'"),
        ("rbsv", {"R_policy": {"cpa": 5}}, "'R_policy.cpa'"),
        ("rbsv", {"noise": {"gate": {"kind": "ideal"}, "p_mesa": 0.1}}, "'noise.p_mesa'"),
        ("compare", {"mode_": "exact"}, "'mode_'"),
    ])
    def test_unknown_fields_rejected(self, tmp_path, capsys, command, edit, field):
        cfg = dict(small_rbsv_config(), protocol=command)
        if command == "rb":
            del cfg["N_m"]
        cfg.update(edit)
        path = write_config(tmp_path, "typo.json", cfg)
        assert main([command, "--config", path]) == 2
        assert_one_error(capsys, f"unknown config field {field}")

    @pytest.mark.parametrize("protocol", ["banana", "irbgs"])
    def test_compare_refuses_other_protocols(self, tmp_path, capsys, protocol):
        path = write_config(tmp_path, "banana.json", dict(small_rbsv_config(), protocol=protocol))
        assert main(["compare", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert_one_error(capsys, f"config 'protocol' is {protocol!r} but subcommand is 'compare'")
        assert not (tmp_path / "out").exists()

    def test_irbgs_checked_before_out_is_made(self, tmp_path, capsys):
        path = write_config(tmp_path, "k0.json", dict(IRBGS_CONFIG, K_m=0))
        out = tmp_path / "out"
        assert main(["irbgs", "--config", path, "--out", str(out)]) == 2
        assert_one_error(capsys, "k_m must be >= 1")
        assert not out.exists()

    def test_irbgs_rejects_rbsv_fields(self, tmp_path, capsys):
        cfg = dict(IRBGS_CONFIG, N_m=100)
        path = write_config(tmp_path, "irbgs.json", cfg)
        assert main(["irbgs", "--config", path]) == 2
        assert_one_error(capsys, "unknown config field 'N_m'")

    def test_missing_channel_field(self, tmp_path, capsys):
        cfg = small_rbsv_config()
        cfg["noise"] = {"gate": {"kind": "depolarizing", "epsilonn": 0.01}}
        path = write_config(tmp_path, "eps.json", cfg)
        assert main(["rbsv", "--config", path]) == 2
        assert_one_error(capsys, "needs field(s) epsilon")

    def test_unknown_channel_field(self, tmp_path, capsys):
        cfg = small_rbsv_config()
        cfg["noise"] = {"gate": {"kind": "depolarizing", "epsilon": 0.01, "epsilom": 0.5}}
        path = write_config(tmp_path, "epsilom.json", cfg)
        assert main(["rbsv", "--config", path]) == 2
        assert_one_error(capsys, "unknown channel field 'epsilom'")

    def test_misspelled_mode_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, "mode.json", dict(small_rbsv_config(), mode="exakt"))
        assert main(["rbsv", "--config", path]) == 2
        assert_one_error(capsys, "'exakt'")

    @pytest.mark.parametrize("n, gate, engine, limit", [
        (9, {"kind": "pauli", "probabilities": {"I" * 9: 0.99, "X" + "I" * 8: 0.01}},
         "pauli", 8),
        (40, {"kind": "depolarizing", "epsilon": 0.01}, "pauli", 8),
        (7, {"kind": "delta_depolarizing", "delta": 0.5, "p_prime": 0.01}, "dense", 6),
    ])
    def test_register_beyond_engine_limit(self, tmp_path, capsys, n, gate, engine, limit):
        cfg = {"protocol": "rb", "n": n, "lengths": [1, 2, 3], "K_m": 2,
               "noise": {"gate": gate}, "seed": 1}
        path = write_config(tmp_path, "big.json", cfg)
        assert main(["rb", "--config", path]) == 2
        assert_one_error(capsys, f"n = {n} exceeds the {engine} engine's limit of {limit} qubits")

    @pytest.mark.parametrize("command, edit, fragment", [
        ("rbsv", {"lengths": 5}, "field 'lengths' must be a list of integers, not 5"),
        ("rbsv", {"lengths": [5, "ten"]}, "field 'lengths' must be a list of integers"),
        ("rbsv", {"K_m": None}, "field 'K_m' must be an integer, not None"),
        ("rbsv", {"N_m": "many"}, "field 'N_m' must be an integer, not 'many'"),
        ("rbsv", {"R_policy": {"kind": "fixed", "R": None}},
         "field 'R_policy.R' must be a number, not None"),
        ("rbsv", {"noise": {"gate": {"kind": "depolarizing", "epsilon": None}}},
         "field 'noise': channel field 'epsilon' must be a number, not None"),
        ("rbsv", {"noise": {"gate": {"kind": "pauli", "probabilities": [1]}}},
         "field 'noise': channel field 'probabilities' must be an object"),
        ("rbsv", {"noise": {"p_meas": None}}, "field 'noise.p_meas' must be a number, not None"),
        ("rbsv", {"noise": {"p_meas": 1.5}}, "field 'noise': meas_flip 1.5 outside [0, 1]"),
        ("irbgs", {"K_m": [2]}, "field 'K_m' must be an integer, not [2]"),
        ("irbgs", {"recipe": {"path": "missing.json", "index": None}},
         "field 'recipe.index' must be an integer, not None"),
        # a non-integral number is refused, not truncated
        ("rbsv", {"K_m": 2.7}, "field 'K_m' must be an integer, not 2.7"),
        ("rbsv", {"lengths": [3, 6.5]}, "field 'lengths' must be a list of integers"),
        ("rbsv", {"N_m": 24.5}, "field 'N_m' must be an integer, not 24.5"),
        ("rbsv", {"shots": 1e-3}, "field 'shots' must be an integer, not 0.001"),
        ("rbsv", {"b": 2.5}, "field 'b' must be an integer, not 2.5"),
        ("rbsv", {"seed": 11.5}, "field 'seed' must be an integer, not 11.5"),
        ("rbsv", {"K_m": True}, "field 'K_m' must be an integer, not True"),
        ("irbgs", {"recipe": {"path": "missing.json", "index": 0.5}},
         "field 'recipe.index' must be an integer, not 0.5"),
        ("rbsv", {"noise": {"gate": {"kind": "delta_depolarizing", "delta": 0.5,
                                     "p_prime": 0.01, "qubit": 0.5}}},
         "field 'noise': channel field 'qubit' must be an integer, not 0.5 (in 'noise.gate')"),
        ("rbsv", {"noise": {"gate": {"kind": "delta_depolarizing", "delta": 0.5,
                                     "p_prime": 0.01, "axis": "Q"}}},
         "channel field 'axis' must be one of 'X', 'Y', 'Z', not 'Q' (in 'noise.gate')"),
        ("rbsv", {"noise": {"prep": {"kind": "warp"}}},
         "field 'noise': unknown channel kind 'warp' (in 'noise.prep')"),
        # a string is not a boolean: "false" would run as true
        ("rbsv", {"include_identity_stabilizer": "false"},
         "field 'include_identity_stabilizer' must be true or false, not 'false'"),
        ("rbsv", {"include_identity_stabilizer": 0},
         "field 'include_identity_stabilizer' must be true or false, not 0"),
        # nor is a string or a boolean a number
        ("rbsv", {"R_policy": {"kind": "fixed", "R": "100"}},
         "field 'R_policy.R' must be a number, not '100'"),
        ("rbsv", {"noise": {"p_meas": True}}, "field 'noise.p_meas' must be a number, not True"),
        ("rbsv", {"noise": {"gate": {"kind": "depolarizing", "epsilon": "0.01"}}},
         "field 'noise': channel field 'epsilon' must be a number, not '0.01'"),
        # nor is a number a string: 1 would read as the unknown fit strategy '1'
        ("rbsv", {"fit_strategy": 1}, "field 'fit_strategy' must be a string, not 1"),
        ("rbsv", {"rb_mode": True}, "field 'rb_mode' must be a string, not True"),
        ("rbsv", {"R_policy": {"kind": None}}, "field 'R_policy.kind' must be a string, not None"),
        ("irbgs", {"fit_strategy": ["box"]}, "field 'fit_strategy' must be a string, not ['box']"),
    ])
    def test_wrong_json_type_names_its_field(self, tmp_path, capsys, command, edit, fragment):
        cfg = dict(small_rbsv_config() if command == "rbsv" else IRBGS_CONFIG, **edit)
        path = write_config(tmp_path, "types.json", cfg)
        assert main([command, "--config", path]) == 2
        assert_one_error(capsys, fragment)

    @pytest.mark.parametrize("edit, fragment", [
        ({"n": 2.5}, "field 'n' must be an integer, not 2.5"),
        ({"q": 2.5}, "field 'q' must be an integer, not 2.5"),
        ({"m": "10"}, "field 'm' must be an integer, not '10'"),
        ({"stabilizer_weights": [1.5, 2]}, "field 'stabilizer_weights' must be a list of integers"),
        ({"stabilizer_weights": 3}, "field 'stabilizer_weights' must be a list of integers, not 3"),
        ({"with_spam": "false"}, "field 'with_spam' must be true or false, not 'false'"),
        ({"t": None}, "field 't' must be a number, not None"),
        ({"t": "0.01"}, "field 't' must be a number, not '0.01'"),
        ({"bogus": 1}, "unknown config field 'bogus'"),
    ])
    def test_plan_field_of_the_wrong_json_type(self, tmp_path, capsys, edit, fragment):
        cfg = dict(json.loads((ROOT / "configs" / "plan_two_qubit.json").read_text()), **edit)
        assert main(["plan", "--config", write_config(tmp_path, "plan.json", cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0]

    @pytest.mark.parametrize("edit, number", [
        ({"noise": {"gate": {"kind": "pauli", "probabilities": {"II": "@", "XI": 0.1}}}}, "NaN"),
        ({"noise": {"gate": {"kind": "delta_depolarizing", "delta": 0.1, "p_prime": 0.9,
                             "angle": "@"}}}, "NaN"),
        ({"noise": {"gate": {"kind": "delta_depolarizing", "delta": 0.1, "p_prime": 0.9,
                             "angle": "@"}}}, "1e400"),
        ({"R_policy": {"kind": "fixed", "R": "@"}}, "NaN"),
        ({"R_policy": {"cap": "@"}}, "NaN"),
        ({"R_policy": {"cap": "@"}}, "Infinity"),
        ({"noise": {"p_meas": "@"}}, "-Infinity"),
    ])
    def test_non_finite_numbers_refused(self, tmp_path, capsys, edit, number):
        # Python's json reads NaN and Infinity, and 1e400 as inf
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(dict(small_rbsv_config(), **edit)).replace('"@"', number))
        assert main(["rbsv", "--config", str(path)]) == 2
        assert_one_error(capsys, f"config number {number} is not finite")

    @pytest.mark.parametrize("rb_mode", ["clifford", "generator"])
    def test_empty_register_refused(self, tmp_path, capsys, rb_mode):
        cfg = {"protocol": "rb", "n": 0, "lengths": [1, 2, 3], "K_m": 2, "rb_mode": rb_mode,
               "noise": {"gate": {"kind": "ideal"}}}
        assert main(["rb", "--config", write_config(tmp_path, "n0.json", cfg)]) == 2
        assert_one_error(capsys, "n must be >= 1")

    def test_integral_floats_accepted(self, tmp_path):
        runs = {}
        for name, k_m in (("int", 6), ("float", 6.0)):
            path = write_config(tmp_path, f"{name}.json", dict(small_rbsv_config(), K_m=k_m))
            out = str(tmp_path / name)
            assert main(["rbsv", "--config", path, "--out", out]) == 0
            runs[name] = open(os.path.join(out, "rbsv.csv")).read()
        assert runs["int"] == runs["float"]

    @pytest.mark.parametrize("recipes, fragment", [
        ([{}], "recipe needs field(s) 'gates', 'target'"),
        ({"gates": []}, "recipe file must hold a JSON list"),
        ([{"gates": [{"gate": "H"}], "target": "CNOT"}],
         "recipe gate 0 must be an object with a 'gate' name and a 'qubits' list"),
        ([{"gates": "H 0", "target": "CNOT"}], "recipe field 'gates' must be a list"),
        ([{"gates": [], "target": {"re": 1}}], "target must be a name or a 4x4 grid"),
        ([{"gates": [{"gate": "H", "qubits": [0.5]}], "target": "CNOT"}],
         "recipe gate H: qubit must be an integer, not 0.5"),
        ([{"gates": [{"gate": "CP", "qubits": [0, 1], "k": "2"}], "target": "CNOT"}],
         "recipe gate CP: k must be an integer, not '2'"),
        ([{"gates": [{"gate": "X", "qubits": [3]}], "target": "CNOT"}],
         "recipe gate X: qubits must be 0 or 1, not [3]"),
    ])
    def test_malformed_recipe_file(self, tmp_path, capsys, recipes, fragment):
        recipe_path = write_config(tmp_path, "recipes.json", recipes)
        assert main(["verify-synthesis", "--recipes", recipe_path]) == 2
        assert_one_error(capsys, f"--recipes: recipe file {recipe_path!r}: {fragment}")
        path = write_config(tmp_path, "irbgs.json",
                            dict(IRBGS_CONFIG, recipe={"path": recipe_path}))
        assert main(["irbgs", "--config", path]) == 2
        assert_one_error(capsys, f"field 'recipe': recipe file {recipe_path!r}: {fragment}")

    def test_missing_recipes_for_verify_synthesis(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["verify-synthesis", "--recipes", missing]) == 2
        assert_one_error(capsys, f"--recipes: cannot read {missing!r}")

    def test_missing_recipe_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        path = write_config(tmp_path, "recipe.json", dict(IRBGS_CONFIG, recipe={"path": missing}))
        assert main(["irbgs", "--config", path]) == 2
        assert_one_error(capsys, f"field 'recipe': cannot read {missing!r}")

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert main(["rb", "--config", str(tmp_path)]) == 2
        assert_one_error(capsys, f"cannot read {str(tmp_path)!r}: ")

    def test_out_path_is_an_existing_file(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("elements drawn before the artifact directory was checked")

        for module in (rb_module, rbsv_module, irbgs_module):
            monkeypatch.setattr(module, "_draw_elements", refuse)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        for command in ("rb", "rbsv", "compare", "irbgs"):
            cfg = (IRBGS_CONFIG if command == "irbgs"
                   else dict(small_rbsv_config(), protocol=command))
            if command == "rb":
                cfg = {k: v for k, v in cfg.items() if k != "N_m"}
            path = write_config(tmp_path, f"{command}.json", cfg)
            assert main([command, "--config", path, "--out", str(taken)]) == 2, command
            assert_one_error(capsys, f"cannot write {str(taken)!r}: ")
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("lengths", [[2, 4], [5, 5, 5]])
    @pytest.mark.parametrize("command", ["rb", "rbsv", "compare", "irbgs"])
    def test_fewer_than_three_distinct_lengths_refused_before_any_draw(
            self, tmp_path, capsys, monkeypatch, command, lengths):
        def refuse(*args):
            raise AssertionError("elements drawn for a config the fit cannot take")

        for module in (rb_module, rbsv_module, irbgs_module):
            monkeypatch.setattr(module, "_draw_elements", refuse)
        cfg = IRBGS_CONFIG if command == "irbgs" else dict(small_rbsv_config(), protocol=command)
        cfg = dict(cfg, lengths=lengths)
        if command == "rb":
            del cfg["N_m"]
        path = write_config(tmp_path, "short.json", cfg)
        assert main([command, "--config", path]) == 2
        assert_one_error(capsys, "need at least 3 points with 3 distinct lengths")

    def test_threads_other_than_one_rejected(self, tmp_path):
        path = write_config(tmp_path, "rbsv.json", small_rbsv_config())
        with pytest.raises(SystemExit) as exc:
            main(["rbsv", "--config", path, "--threads", "2"])
        assert exc.value.code == 2


def assert_fails_without_artifacts(tmp_path, capsys, cfg, fragment):
    """``rbsv`` and ``compare`` on ``cfg`` both exit 2 with the same single
    ``error:`` line holding ``fragment``, and write no CSV."""
    path = write_config(tmp_path, "failing.json", cfg)
    errors = []
    for command in ("rbsv", "compare"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 2, command
        errors.append(capsys.readouterr().err)
        assert not list(out.glob("*.csv")), command
    assert errors[0] == errors[1]
    lines = errors[0].strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert fragment in lines[0]


class TestRunFailures:
    def test_too_noisy_device(self, tmp_path, capsys):
        cfg = {"protocol": "rbsv", "n": 1, "lengths": [2, 4, 6], "K_m": 6, "N_m": 2,
               "include_identity_stabilizer": False, "seed": 5,
               "noise": {"gate": {"kind": "depolarizing", "epsilon": 1.0}}}
        assert_fails_without_artifacts(tmp_path, capsys, cfg, "too strong for verification")

    def test_fixed_copy_count_underflow(self, tmp_path, capsys):
        # P_acc^R underflows at R = 10^4 from m = 5 on; the optimal R keeps P^R = 1/e
        cfg = {"protocol": "rbsv", "n": 2, "lengths": [5, 10, 20, 40], "K_m": 2,
               "mode": "exact", "R_policy": {"kind": "fixed", "R": 10000}, "seed": 1,
               "noise": {"gate": {"kind": "depolarizing", "epsilon": 0.05}}}
        assert_fails_without_artifacts(tmp_path, capsys, cfg, "P_acc^R underflows at P_acc = 0.9")
        del cfg["R_policy"]
        path = write_config(tmp_path, "optimal.json", cfg)
        for command in ("rbsv", "compare"):
            assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 0


class TestRuns:
    def test_non_pauli_noise_in_sampled_rbsv(self, tmp_path):
        # dense probability, then the same binomial draw as Pauli noise
        cfg = small_rbsv_config()
        cfg["noise"] = {"gate": {"kind": "delta_depolarizing", "delta": 0.01,
                                 "p_prime": 0.99}}
        path = write_config(tmp_path, "delta.json", cfg)
        sampled, exact = str(tmp_path / "sampled"), str(tmp_path / "exact")
        assert main(["rbsv", "--config", path, "--out", sampled]) == 0
        assert main(["rbsv", "--config", path, "--out", exact, "--exact"]) == 0
        for got, want in zip(read_csv(os.path.join(sampled, "rbsv.csv")),
                             read_csv(os.path.join(exact, "rbsv.csv"))):
            # same seed, same sequences: K_m binomial draws of N_m repetitions
            p = want["mean_p_acc"]
            sigma = (p * (1 - p) / (cfg["K_m"] * cfg["N_m"])) ** 0.5
            assert abs(got["mean_p_acc"] - p) < 4 * sigma

    def test_rbsv_artifacts(self, tmp_path):
        cfg = small_rbsv_config()
        path = write_config(tmp_path, "rbsv.json", cfg)
        out = str(tmp_path / "out")
        assert main(["rbsv", "--config", path, "--out", out]) == 0
        csv = open(os.path.join(out, "rbsv.csv")).read()
        assert csv.splitlines()[0] == "m,F_bar_m,mean_p_acc,mean_R,n_saturated"
        assert len(csv.splitlines()) == 1 + len(cfg["lengths"])
        summary = json.load(open(os.path.join(out, "rbsv_summary.json")))
        assert {"r_rbsv", "A0", "B0", "p", "fit_residual",
                "reproducibility"} <= set(summary)
        assert "r_rb" not in summary
        assert summary["reproducibility"]["seed"] == cfg["seed"]

    def test_rb_artifacts(self, tmp_path):
        cfg = dict(small_rbsv_config(), protocol="rb")
        del cfg["N_m"]  # an rbsv field; rb rejects it
        path = write_config(tmp_path, "rb.json", cfg)
        out = str(tmp_path / "out")
        assert main(["rb", "--config", path, "--out", out]) == 0
        csv = open(os.path.join(out, "rb.csv")).read()
        assert csv.splitlines()[0] == "m,P_m,stderr,K_m,shots"
        summary = json.load(open(os.path.join(out, "rb_summary.json")))
        assert "r_rb" in summary

    def test_compare_has_both_values_and_ratio(self, tmp_path):
        path = write_config(tmp_path, "cmp.json", small_rbsv_config())
        out = str(tmp_path / "out")
        assert main(["compare", "--config", path, "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "compare_summary.json")))
        assert {"r_rb", "r_rbsv", "ratio_rbsv_over_rb"} <= set(summary)

    def test_exact_flag_and_seed_override(self, tmp_path):
        cfg = small_rbsv_config()
        path = write_config(tmp_path, "rbsv.json", cfg)
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["rbsv", "--config", path, "--out", out1, "--exact", "--seed", "99"]) == 0
        assert main(["rbsv", "--config", path, "--out", out2, "--exact", "--seed", "99"]) == 0
        assert open(os.path.join(out1, "rbsv.csv")).read() == \
            open(os.path.join(out2, "rbsv.csv")).read()
        summary = json.load(open(os.path.join(out1, "rbsv_summary.json")))
        assert summary["reproducibility"]["seed"] == 99

    def test_determinism_bit_identical_csv(self, tmp_path):
        path = write_config(tmp_path, "rbsv.json", small_rbsv_config())
        outs = []
        for sub in ("x", "y"):
            out = str(tmp_path / sub)
            assert main(["rbsv", "--config", path, "--out", out]) == 0
            outs.append(open(os.path.join(out, "rbsv.csv"), "rb").read())
        assert outs[0] == outs[1]

    def test_irbgs_run(self, tmp_path):
        path = write_config(tmp_path, "irbgs.json", IRBGS_CONFIG)
        out = str(tmp_path / "out")
        assert main(["irbgs", "--config", path, "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "irbgs_summary.json")))
        assert {"p", "p_bar_c", "r_c_est", "r_n_est", "error_bound",
                "noise_class"} <= set(summary)
        assert os.path.exists(os.path.join(out, "irbgs_baseline.csv"))
        assert os.path.exists(os.path.join(out, "irbgs_interleaved.csv"))

    def test_plan_subcommand(self, tmp_path, capsys):
        cfg = {"t": 0.01, "delta": 0.05, "lam": 0.02, "upsilon": 0.005,
               "q": 20, "n": 2, "r_copies": 10, "p_meas": 0.001}
        path = write_config(tmp_path, "plan.json", cfg)
        out = str(tmp_path / "out")
        assert main(["plan", "--config", path, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "N_m" in text and "K_m" in text
        values = json.load(open(os.path.join(out, "plan.json")))
        assert values["N_m"] == 10000
        assert values["K_m"] == 182

    def test_plan_reads_integral_weights_and_booleans(self, tmp_path, capsys):
        cfg = {"n": 2, "upsilon": 0.005, "p_meas": 0.01, "stabilizer_weights": [1, 2.0],
               "with_spam": False}
        assert main(["plan", "--config", write_config(tmp_path, "plan.json", cfg)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [row for row in rows if row[0] == "P_perf"] == [["P_perf", str(0.99 ** 3)]]

    def test_plan_rejects_unknown_fields(self, tmp_path, capsys):
        path = write_config(tmp_path, "plan.json", {"bogus": 1})
        assert main(["plan", "--config", path]) == 2

    @pytest.mark.parametrize("flag", [["--exact"], ["--seed", "3"], ["--threads", "1"]])
    def test_plan_rejects_run_flags(self, tmp_path, flag):
        path = write_config(tmp_path, "plan.json", {"n": 2})
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--config", path, *flag])
        assert exc.value.code == 2

    def test_verify_synthesis_bundled(self, capsys):
        assert main(["verify-synthesis"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 7

    def test_verify_synthesis_failure_exit_code(self, tmp_path):
        base = json.loads(bundled_recipe_text())[0]
        base["gates"] = base["gates"][:-1]
        path = write_config(tmp_path, "broken.json", [base])
        assert main(["verify-synthesis", "--recipes", path]) == 1


def test_degenerate_fit_exits_zero_with_flag(tmp_path):
    cfg = small_rbsv_config()
    cfg["noise"] = {"gate": {"kind": "ideal"}}
    cfg["mode"] = "exact"
    path = write_config(tmp_path, "noiseless.json", cfg)
    out = str(tmp_path / "out")
    assert main(["rbsv", "--config", path, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "rbsv_summary.json")))
    assert summary["degenerate"] is True
    assert summary["r_rbsv"] == 0.0


def test_rbsv_with_pauli_channel_config(tmp_path):
    cfg = small_rbsv_config()
    cfg["noise"] = {"gate": {"kind": "pauli",
                             "probabilities": {"II": 0.98, "XI": 0.01, "ZZ": 0.01}}}
    path = write_config(tmp_path, "pauli.json", cfg)
    out = str(tmp_path / "out")
    assert main(["rbsv", "--config", path, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "rbsv_summary.json")))
    assert 0.0 <= summary["p"] <= 1.0


@pytest.mark.parametrize("engine, channel", [
    ("pauli", {"kind": "depolarizing", "epsilon": 0.01}),
    ("dense", {"kind": "delta_depolarizing", "delta": 0.01, "p_prime": 0.99}),
    ("pauli", {"kind": "delta_depolarizing", "delta": 0.01, "p_prime": 0.99, "angle": 0}),
])
def test_summary_names_engine(tmp_path, engine, channel):
    rbsv = dict(small_rbsv_config(), noise={"gate": channel})
    rb = dict(rbsv, protocol="rb")
    del rb["N_m"]
    irbgs = dict(IRBGS_CONFIG, noise_n=channel)
    for command, cfg in (("rb", rb), ("rbsv", rbsv), ("compare", rbsv), ("irbgs", irbgs)):
        path = write_config(tmp_path, f"{command}.json", cfg)
        out = str(tmp_path / command)
        assert main([command, "--config", path, "--out", out]) == 0
        summary = json.load(open(os.path.join(out, f"{command}_summary.json")))
        assert summary["engine"] == engine, command


def test_unrotated_delta_channel_runs_as_depolarizing_beyond_the_dense_limit(tmp_path):
    # n = 7 is above the dense engine's limit; angle 0 is depolarizing noise
    # of strength (1 - delta)(1 - p'), so the runs' curves are the same bits
    csvs = {}
    for name, gate in (("delta", {"kind": "delta_depolarizing", "delta": 0.1,
                                  "p_prime": 0.9, "angle": 0}),
                       ("depolarizing", {"kind": "depolarizing", "epsilon": (1 - 0.1) * (1 - 0.9)})):
        cfg = {"protocol": "rb", "n": 7, "lengths": [1, 2, 3], "K_m": 2, "mode": "exact",
               "noise": {"gate": gate}}
        out = tmp_path / name
        assert main(["rb", "--config", write_config(tmp_path, f"{name}.json", cfg),
                     "--out", str(out)]) == 0
        assert json.loads((out / "rb_summary.json").read_text())["engine"] == "pauli"
        csvs[name] = (out / "rb.csv").read_text()
    assert csvs["delta"] == csvs["depolarizing"]


def test_info_log_has_one_line_per_length(tmp_path):
    # RBSV_LOG is read by the CLI process itself, so run it as one; compare
    # runs one ensemble for both protocols.  The lines come in config order,
    # each with the seconds of the one pass that ran every length
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, RBSV_LOG="INFO",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command in ("rb", "compare"):
        cfg = dict(small_rbsv_config(), protocol=command, lengths=[6, 3, 12, 9])
        if command == "rb":
            del cfg["N_m"]
        path = write_config(tmp_path, f"{command}.json", cfg)
        proc = subprocess.run([sys.executable, "-m", "rbsim.cli", command, "--config", path,
                               "--out", str(tmp_path / command)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stderr.splitlines() if " rbsim.seeding INFO " in line]
        assert [line.split(" INFO ")[1].split()[:2] for line in lines] == \
            [[f"m={m}", f"K_m={cfg['K_m']}"] for m in cfg["lengths"]], command
        assert all(re.search(r" \d+\.\d{3} s$", line) for line in lines)
        assert len({line.split()[-2] for line in lines}) == 1


COMPARE_NOISE = {
    "depolarizing": {"gate": {"kind": "depolarizing", "epsilon": 0.02}},
    "pauli-spam": {"gate": {"kind": "pauli",
                            "probabilities": {"II": 0.95, "XI": 0.03, "IZ": 0.02}},
                   "prep": {"kind": "depolarizing", "epsilon": 0.02},
                   "meas": {"kind": "pauli", "probabilities": {"II": 0.97, "YI": 0.03}},
                   "p_meas": 0.03},
    "delta-dense": {"gate": {"kind": "delta_depolarizing", "delta": 0.02, "p_prime": 0.98}},
}


@pytest.mark.parametrize("noise", sorted(COMPARE_NOISE))
@pytest.mark.parametrize("rb_mode", ["clifford", "generator"])
@pytest.mark.parametrize("mode", ["sampled", "exact"])
def test_compare_csvs_equal_separate_runs(mode, rb_mode, noise, tmp_path):
    # compare reads both observables off one batch per length; each must be
    # what the protocol's own subcommand writes for the same config
    rbsv = {"protocol": "rbsv", "n": 2, "lengths": [2, 4, 7], "K_m": 5, "N_m": 16,
            "shots": 16, "mode": mode, "rb_mode": rb_mode, "b": 2,
            "noise": COMPARE_NOISE[noise], "seed": 23}
    rb = dict(rbsv, protocol="rb")
    del rb["N_m"]
    outs = {}
    for command, cfg in (("rb", rb), ("rbsv", rbsv), ("compare", rbsv)):
        path = write_config(tmp_path, f"{command}.json", cfg)
        outs[command] = tmp_path / command
        assert main([command, "--config", path, "--out", str(outs[command])]) == 0
    for name in ("rb", "rbsv"):
        assert (outs["compare"] / f"{name}.csv").read_bytes() == \
            (outs[name] / f"{name}.csv").read_bytes(), name
    summary = json.loads((outs["compare"] / "compare_summary.json").read_text())
    run_keys = {"engine", "wall_time_s", "reproducibility", "n_saturated_total"}
    for name in ("rb", "rbsv"):
        alone = json.loads((outs[name] / f"{name}_summary.json").read_text())
        assert summary[f"r_{name}"] == alone[f"r_{name}"]
        assert summary["engine"] == alone["engine"]
        # the fit block is the protocol's own summary, apart from run facts
        assert summary[name] == {k: v for k, v in alone.items() if k not in run_keys}


@pytest.mark.parametrize("mode", ["sampled", "exact"])
def test_compare_draws_and_propagates_each_unit_once(mode, tmp_path, monkeypatch):
    calls, drawn, propagated = Counter(), Counter(), Counter()
    draw_elements, propagate = rb_module._draw_elements, CompiledSequence._propagate

    def draw(config, lengths, seeds):
        calls["draw"] += 1
        drawn.update(np.asarray(seeds).tolist())  # each unit's element stream
        return draw_elements(config, lengths, seeds)

    def counted_propagate(self, signed):
        calls["_propagate"] += 1
        # a sequence is propagated with its picks, which are its own table rows
        for k in range(self.batch.elements.shape[1]):
            picks = self.batch.elements[:, k]
            propagated[tuple(self.batch.rows[picks[picks >= 0]].ravel())] += 1
        return propagate(self, signed)

    def counted_init(self, spec):
        calls["__init__"] += 1
        init(self, spec)

    init = CompiledSequence.__init__
    for module in (rb_module, rbsv_module):
        monkeypatch.setattr(module, "_draw_elements", draw)
    monkeypatch.setattr(CompiledSequence, "_propagate", counted_propagate)
    monkeypatch.setattr(CompiledSequence, "__init__", counted_init)
    # Pauli noise and noise that is not Pauli-diagonal alike
    for noise in ("depolarizing", "delta-dense"):
        calls.clear(), drawn.clear(), propagated.clear()
        cfg = dict(small_rbsv_config(), mode=mode, noise=COMPARE_NOISE[noise])
        path = write_config(tmp_path, f"{noise}.json", cfg)
        assert main(["compare", "--config", path, "--out", str(tmp_path / noise)]) == 0
        units = range(len(cfg["lengths"]) * cfg["K_m"])
        # every unit's elements are drawn once, from its own stream, and every
        # sequence is propagated once, all in one batch
        assert drawn == Counter(seed_plan(cfg["seed"], u) for u in units), noise
        assert len(propagated) == len(units) and set(propagated.values()) == {1}, noise
        assert calls == {"draw": 1, "__init__": 1, "_propagate": 1}, noise


@pytest.mark.parametrize("command", ["rbsv", "compare"])
def test_zero_acceptance_names_the_lowest_unit_in_config_order(command, tmp_path, capsys):
    # a certain X flip after every element leaves each sequence's one
    # non-identity stabilizer at +1 or -1, so whole units accept nothing; at
    # this seed they lie at two lengths, and the longest length, which the
    # batch holds first, is not the one the lowest failing unit has
    cfg = {"protocol": "rbsv", "n": 1, "lengths": [3, 7, 5], "K_m": 3, "N_m": 10,
           "mode": "exact", "include_identity_stabilizer": False, "seed": 0,
           "noise": {"gate": {"kind": "pauli", "probabilities": {"X": 1.0}}}}
    config = RBSVConfig(n=1, lengths=cfg["lengths"], k_m=3, n_m=10, exact=True, seed=0,
                        noise=NoiseModel(gate=PauliChannel({"X": 1.0})),
                        include_identity_stabilizer=False)
    failing = []
    for im, m in enumerate(config.lengths):
        units = range(im * 3, (im + 1) * 3)
        seeds = unit_seeds(config.seed, units)
        compiled = rb_module._compile(config, *rb_module._draw_elements(config, m, seeds[0]))
        failing += [(u, m) for u, p in zip(units, compiled.acceptance_probability(False))
                    if p == 0.0]
    assert len({m for _, m in failing}) == 2 and max(m for _, m in failing) != failing[0][1]
    path = write_config(tmp_path, "zero.json", cfg)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    unit, m = failing[0]
    assert_one_error(capsys, f"sequence {unit} (m={m}) accepted 0/10 repetitions")
    assert not list(out.glob("*.csv")) and not list(out.glob("*.json"))


@pytest.mark.parametrize("command, config, artifacts", [
    ("compare", "rbsv_two_qubit.json", ["compare_summary.json", "rb.csv", "rbsv.csv"]),
    ("irbgs", "irbgs_cnot.json",
     ["irbgs_baseline.csv", "irbgs_interleaved.csv", "irbgs_summary.json"]),
    ("plan", "plan_two_qubit.json", ["plan.json"]),
    ("verify-synthesis", None, []),
    ("rb", "rb_two_qubit.json", ["rb.csv", "rb_summary.json"]),
    ("rbsv", "rbsv_two_qubit.json", ["rbsv.csv", "rbsv_summary.json"]),
    ("rb", "rb_coherent_two_qubit.json", ["rb.csv", "rb_summary.json"]),
])
def test_shipped_configs_run(tmp_path, command, config, artifacts):
    # the configs README advertises, through the command-line entry point
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    args = [command]
    if config:
        args += ["--config", str(ROOT / "configs" / config), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-m", "rbsim.cli", *args], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if not config:
        assert proc.stdout.count(" pass ") == 7 and "FAIL" not in proc.stdout
        return
    assert sorted(os.listdir(tmp_path / "out")) == artifacts
    lengths = json.loads((ROOT / "configs" / config).read_text()).get("lengths")
    for name in artifacts:
        path = tmp_path / "out" / name
        if name.endswith(".json"):
            assert json.loads(path.read_text())
        else:
            assert len(read_csv(path)) == len(lengths)
