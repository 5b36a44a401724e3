"""What the benchmark in ``bench/`` relies on from the program.

``bench/tracing.py`` wraps rbsim callables by module and qualified name,
and its observers read ``CliffordElement.key()``, ``spec.n`` and
``spec.elements``; ``bench/child.py`` builds each workload's config with the
CLI builders and then runs ``rbsim.cli.main`` with ``--threads 1``.  A rename
or removal that breaks one of these shows up here rather than as a failed
benchmark run.
"""

import argparse
import importlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rbsim import cli
from rbsim.channels import reject_unknown_fields

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = load_bench_module("tracing")
    for module_name, qualname in tracing.TARGETS:
        module = importlib.import_module(f"rbsim.{module_name}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            # install() replaces the method in the class's own namespace
            assert attr in vars(getattr(module, cls_name)), qualname
        else:
            assert callable(getattr(module, qualname)), qualname


WORKLOADS = load_bench_module("run").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_loads(name, tmp_path):
    workload = WORKLOADS[name]
    cfg = workload.make_config(7)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    cfg = cli.load_config(str(path))
    reject_unknown_fields(cfg, cli._CONFIG_FIELDS[workload.command], "config")
    overrides = argparse.Namespace(seed=None, exact=False, threads=1)
    builders = {"compare": (cli.build_rb_config, cli.build_rbsv_config),
                "rbsv": (cli.build_rbsv_config,), "irbgs": (cli.build_irbgs_config,)}
    for build in builders[workload.command]:
        build(cfg, overrides)


def test_main_accepts_threads_one(tmp_path):
    cfg = {"protocol": "rb", "n": 1, "lengths": [1, 2, 3], "K_m": 2, "mode": "exact",
           "noise": {"gate": {"kind": "depolarizing", "epsilon": 0.01}}}
    path = tmp_path / "rb.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["rb", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--threads", "1"]) == 0


def traced_compare_counters(tmp_path, mode, gate):
    """Run ``bench/child.py --trace`` on a tiny compare config; its counters."""
    cfg = {"protocol": "rbsv", "n": 2, "lengths": [1, 2, 3], "K_m": 2, "N_m": 8,
           "shots": 8, "mode": mode, "seed": 5, "noise": {"gate": gate}}
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "compare.json"
    path.write_text(json.dumps(cfg))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--command", "compare",
         "--config", str(path), "--out", str(tmp_path / "out"), "--result", str(result),
         "--t-spawn", repr(time.perf_counter()), "--trace", str(tmp_path / "spans.npz")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["exit_code"] == 0, proc.stderr
    counters = record["counters"]
    # K_m sequences at each of the three lengths
    assert counters["rbsv.sequences"] == 2 * 3
    return counters


DEPOLARIZING = {"kind": "depolarizing", "epsilon": 0.01}


@pytest.mark.parametrize("mode", ["sampled", "exact"])
def test_traced_child_run_feeds_the_observers(mode, tmp_path):
    # every noise runs the Pauli-basis engine in either mode, which builds no
    # dense matrices
    if mode == "sampled":
        counters = traced_compare_counters(tmp_path, mode, DEPOLARIZING)
        assert counters["engines.table_entries"] > 0
        assert counters["channels.fault_distribution.distinct"] == 1
    else:
        delta = {"kind": "delta_depolarizing", "delta": 0.01, "p_prime": 0.99}
        counters = traced_compare_counters(tmp_path / "delta", mode, delta)
        assert counters["engines.table_entries"] > 0
        assert counters["cliffords.clifford_to_matrix.distinct"] == 0
        counters = traced_compare_counters(tmp_path / "depolarizing", mode, DEPOLARIZING)
        assert counters["cliffords.clifford_to_matrix.distinct"] == 0
