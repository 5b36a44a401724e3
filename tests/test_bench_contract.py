"""What the benchmark in ``bench/`` relies on from the program.

``bench/tracing.py`` wraps rbsim callables by module and qualified name,
``bench/child.py`` builds each workload's config with the CLI builders and
then runs ``rbsim.cli.main`` with ``--threads 1``.  A rename or removal that
breaks one of these shows up here rather than as a failed benchmark run.
"""

import argparse
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rbsim import cli

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
    cli._reject_unknown(cfg, cli._CONFIG_FIELDS[workload.command])
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
