#!/usr/bin/env python3
"""rbsim benchmark: fixed workloads through the public CLI, checked and timed.

Usage, from the repository root::

    python3 bench/run.py --workload compare-n2 --seed 7 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 35 --trace 0

One run builds the workload's config from ``--seed``, then starts fresh
single-threaded processes one after another (a closed loop with one client),
each running the workload once through ``rbsim.cli.main``, until
``--seconds`` have passed.  Every repetition's artifacts are checked against
closed-form oracles, and all repetitions of a run (same seed) must produce
bit-identical CSVs.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics (medians over repetitions, times scaled by each
repetition's timing of the reference in ``calibrate.py``); with
``--trace 1`` untraced and traced repetitions alternate and it reports the
per-layer metrics of the traced ones plus the tracing overhead.  ``--workload all`` runs every workload
in turn and ends with one object whose metric names carry the workload as a
prefix.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".bench_work"

MIN_REPS = 3          # per kind (untraced / traced) in one run
RUN_LIMIT_S = 165.0   # start no repetition that could end past this
REF_NOMINAL_S = 0.25  # calibrate.reference() at the nominal host speed
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1", RBSV_LOG="WARNING")

LENGTHS_N2 = list(range(5, 51, 5))
LENGTHS_IRBGS = list(range(2, 21, 2))
LENGTHS_N6 = list(range(2, 13, 2))


# ---------------------------------------------------------------------------
# Workloads: config from the seed, size counts, and output oracles
# ---------------------------------------------------------------------------


def _compare_config(seed: int) -> dict:
    return {"protocol": "rbsv", "n": 2, "lengths": LENGTHS_N2, "K_m": 40,
            "N_m": 100, "shots": 100, "mode": "sampled",
            "noise": {"gate": {"kind": "depolarizing", "epsilon": 0.001}},
            "R_policy": {"kind": "optimal", "cap": 10000.0}, "seed": seed}


def _irbgs_config(seed: int) -> dict:
    return {"protocol": "irbgs", "lengths": LENGTHS_IRBGS, "K_m": 10,
            "noise": {"gate": {"kind": "depolarizing", "epsilon": 0.001}},
            "noise_n": {"kind": "depolarizing", "epsilon": 0.0005},
            "recipe": "cnot", "seed": seed}


def _rbsv_gen_config(seed: int) -> dict:
    gate = {"IIIIII": 0.997, "XIIIII": 0.001, "IIZIII": 0.001, "IIIIYZ": 0.001}
    return {"protocol": "rbsv", "n": 6, "lengths": LENGTHS_N6, "K_m": 40,
            "N_m": 100, "mode": "sampled", "rb_mode": "generator", "b": 10,
            "noise": {"gate": {"kind": "pauli", "probabilities": gate},
                      "prep": {"kind": "depolarizing", "epsilon": 0.01},
                      "p_meas": 0.002},
            "seed": seed}


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> list:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    keys = header.split(",")
    return [dict(zip(keys, map(float, row.split(",")))) for row in rows]


def _check_compare(cfg: dict, out: Path) -> list:
    """Criterion 2c window around (d-1)eps/d, and criterion 2a ordering."""
    s = _read_json(out / "compare_summary.json")
    d = 2 ** cfg["n"]
    ref = (d - 1) * cfg["noise"]["gate"]["epsilon"] / d
    problems = []
    if not ref / 3 <= s["r_rb"] <= 3 * ref:
        problems.append(f"r_rb={s['r_rb']!r} outside [{ref / 3!r}, {3 * ref!r}]")
    if not s["r_rbsv"] >= s["r_rb"]:
        problems.append(f"r_rbsv={s['r_rbsv']!r} < r_rb={s['r_rb']!r}")
    return problems


def _check_irbgs(cfg: dict, out: Path) -> list:
    """Planted depolarizing Lambda_N: r_N = (d-1)eps_N/d exactly (criterion 6)."""
    s = _read_json(out / "irbgs_summary.json")
    r_n = 3 * cfg["noise_n"]["epsilon"] / 4
    problems = []
    if not abs(s["r_n_est"] - r_n) < 1e-6:
        problems.append(f"r_n_est={s['r_n_est']!r} not within 1e-6 of {r_n!r}")
    if not abs(r_n - s["r_n_est"]) <= s["error_bound"]:
        problems.append(f"|r_n - r_n_est| exceeds bound {s['error_bound']!r}")
    return problems


def _check_rbsv(cfg: dict, out: Path) -> list:
    """Finite converged fit; a zero-accept sequence makes run_rbsv raise, so a
    clean exit already shows none occurred, and every length must accept."""
    s = _read_json(out / "rbsv_summary.json")
    problems = []
    if not (isinstance(s["r_rbsv"], float) and math.isfinite(s["r_rbsv"]) and s["converged"]):
        problems.append(f"fit not finite/converged: r_rbsv={s['r_rbsv']!r}")
    if any(row["mean_p_acc"] <= 0.0 for row in _read_csv(out / "rbsv.csv")):
        problems.append("a length has zero mean acceptance")
    return problems


def _rb_elements(cfg: dict) -> int:
    return sum(cfg["K_m"] * (m + 1) for m in cfg["lengths"])


@dataclass(frozen=True)
class Workload:
    command: str
    make_config: Callable[[int], dict]
    elements: Callable[[dict], int]    # noisy elements simulated per run
    sequences: Callable[[dict], int]   # operations per run: one sequence each
    check: Callable[[dict, Path], list]


WORKLOADS = {
    # RB (m elements + inverse) and RBSV (m elements) over K_m sequences each
    "compare-n2": Workload(
        "compare", _compare_config,
        lambda c: _rb_elements(c) + sum(c["K_m"] * m for m in c["lengths"]),
        lambda c: 2 * c["K_m"] * len(c["lengths"]), _check_compare),
    # baseline (m + inverse) and interleaved (m random + m fixed + inverse)
    "irbgs-exact-n2": Workload(
        "irbgs", _irbgs_config,
        lambda c: _rb_elements(c) + sum(c["K_m"] * (2 * m + 1) for m in c["lengths"]),
        lambda c: 2 * c["K_m"] * len(c["lengths"]), _check_irbgs),
    # generator mode: m blocks of b gates, each gate one noisy element
    "rbsv-gen-n6": Workload(
        "rbsv", _rbsv_gen_config,
        lambda c: sum(c["K_m"] * m * c["b"] for m in c["lengths"]),
        lambda c: c["K_m"] * len(c["lengths"]), _check_rbsv),
}


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _layer_stats(spans_path: Path, wall_s: float) -> dict:
    """Calls and self time per span name, plus wall time no root span covers."""
    import numpy as np

    with np.load(spans_path) as data:
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        names = json.loads(str(data["names"]))
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_time = dur - covered
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=self_time, minlength=len(names))
    return {"calls": {k: int(calls[i]) for i, k in enumerate(names)},
            "self_s": {k: float(self_s[i]) for i, k in enumerate(names)},
            "unattributed_s": wall_s - float(dur[~nested].sum())}


def run_rep(workload: Workload, cfg: dict, cfg_path: Path, work: Path,
            traced: bool, timeout: float, setup_only: bool = False) -> dict:
    rep_dir = Path(tempfile.mkdtemp(dir=work))
    out, result, spans = rep_dir / "out", rep_dir / "result.json", rep_dir / "spans.npz"
    rep = {"traced": traced, "problems": []}
    try:
        cmd = [sys.executable, str(CHILD), "--command", workload.command,
               "--config", str(cfg_path), "--out", str(out), "--result", str(result)]
        if traced:
            cmd += ["--trace", str(spans)]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--t-spawn", repr(time.perf_counter())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            rep["problems"].append(f"timed out after {timeout:.0f} s")
            return rep
        last_error = (proc.stderr.strip().splitlines() or [""])[-1]
        if proc.returncode != 0 or not result.exists():
            rep["problems"].append(f"child exited {proc.returncode}: {last_error}")
            return rep
        rep.update(_read_json(result))
        if setup_only:
            return rep
        if rep["exit_code"] != 0:
            rep["problems"].append(f"rbsim exited {rep['exit_code']}: {last_error}")
            return rep
        # completed: timings count even if a check below fails
        rep["csv_sha256"] = {p.name: _sha256(p) for p in sorted(out.glob("*.csv"))}
        rep["artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        if traced:
            rep["layers"] = _layer_stats(spans, rep["wall_s"])
        try:
            rep["problems"] += workload.check(cfg, out)
        except (OSError, KeyError, ValueError) as exc:
            rep["problems"].append(f"artifacts unreadable: {exc!r}")
        return rep
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def check_repeatable(completed: list):
    """Same seed, same bytes and same exact counts: flag every completed
    repetition that differs from the first one."""
    sha = completed[0]["csv_sha256"]
    for r in completed[1:]:
        if r["csv_sha256"] != sha:
            r["problems"].append(f"CSV bytes differ between repetitions: {r['csv_sha256']}")
    traced = [r for r in completed if r["traced"]]
    for r in traced[1:]:
        if (r["layers"]["calls"], r["counters"]) != (traced[0]["layers"]["calls"],
                                                      traced[0]["counters"]):
            r["problems"].append("exact counts differ between traced repetitions")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(reps: list, elements: int) -> dict:
    """Medians over the repetitions, the times in host-calibrated seconds:
    each repetition's times scaled by REF_NOMINAL_S over its own reference
    timings (``ref_s``: right after set-up, right after the timed call)."""
    wall = _median(r["wall_s"] * REF_NOMINAL_S / statistics.fmean(r["ref_s"]) for r in reps)
    return {
        "setup_s": (_median(r["setup_s"] * REF_NOMINAL_S / r["ref_s"][0] for r in reps), "s"),
        "wall_s": (wall, "s"),
        "elements_per_s": (elements / wall, "1/s"),
        "peak_rss_mb": (_median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def per_layer_metrics(traced: list, untraced: list) -> dict:
    from tracing import SPAN_NAMES

    first = traced[0]
    calls, counters = first["layers"]["calls"], first["counters"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (_median(r["layers"]["self_s"][name] for r in traced), "s")
    for name in ("cliffords.clifford_to_matrix", "channels.fault_distribution"):
        ratio = counters[f"{name}.distinct"] / calls[name] if calls[name] else 0.0
        out[f"{name}.distinct_ratio"] = (ratio, "ratio")
    for name in ("engines.table_entries", "rbsv.sequences", "rbsv.saturated",
                 "rbsv.zero_accept"):
        out[name] = (counters[name], "count")
    out["cli.artifact_bytes"] = (_median(r["artifact_bytes"] for r in traced), "bytes")
    for module in dict.fromkeys(n.split(".")[0] for n in SPAN_NAMES):
        out[f"{module}.self_share"] = (_median(
            sum(v for k, v in r["layers"]["self_s"].items() if k.startswith(module + "."))
            / r["wall_s"] for r in traced), "ratio")
    # whole-process counters of the untraced repetitions: tracing changes the
    # heap layout and with it the page faults (see README)
    out["process.user_s"] = (_median(r["user_s"] for r in untraced), "s")
    out["process.sys_s"] = (_median(r["sys_s"] for r in untraced), "s")
    out["process.minor_faults"] = (_median(r["minor_faults"] for r in untraced), "count")
    traced_wall = _median(r["wall_s"] for r in traced)
    out["unattributed_s"] = (_median(r["layers"]["unattributed_s"] for r in traced), "s")
    out["traced_wall_s"] = (traced_wall, "s")
    out["trace_overhead_s"] = (traced_wall - _median(r["wall_s"] for r in untraced), "s")
    return out


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git without running git; None when the
    checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit()}


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One run of one workload; prints its lines and returns the result object,
    or None (after printing why) when no repetition completed."""
    workload = WORKLOADS[name]
    cfg = workload.make_config(seed)
    elements, sequences = workload.elements(cfg), workload.sequences(cfg)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=1))
        start = time.perf_counter()
        # compiles bytecode and warms the file cache; not measured
        warm = run_rep(workload, cfg, cfg_path, work, False, RUN_LIMIT_S, setup_only=True)
        if warm["problems"]:
            print(f"error: set-up failed: {warm['problems'][0]}", file=sys.stderr)
            return None
        reps, slowest = [], 0.0
        while True:
            traced = bool(trace) and len(reps) % 2 == 1
            t0 = time.perf_counter()
            remaining = RUN_LIMIT_S - (t0 - start)
            reps.append(run_rep(workload, cfg, cfg_path, work, traced, remaining))
            slowest = max(slowest, time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            per_kind = len(reps) // 2 if trace else len(reps)
            if elapsed + slowest > RUN_LIMIT_S:
                break
            if per_kind >= MIN_REPS and elapsed >= seconds and len(reps) % (1 + trace) == 0:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it

    completed = [r for r in reps if "csv_sha256" in r]
    untraced = [r for r in completed if not r["traced"]]
    traced = [r for r in completed if r["traced"]]
    if not untraced or (trace and not traced):
        first = next((p for r in reps for p in r["problems"]), "")
        print(f"error: no repetition completed ({first}); nothing to report", file=sys.stderr)
        return None
    check_repeatable(completed)
    failed = sequences * sum(1 for r in reps if r["problems"])
    for i, r in enumerate(reps):
        for problem in r["problems"]:
            print(f"FAIL {name} repetition {i} ({'traced' if r['traced'] else 'untraced'}): "
                  f"{problem}")

    record = environment(name, seed, seconds, trace)
    record.update(repetitions=len(reps), elements=elements, sequences=sequences,
                  csv_sha256=completed[0]["csv_sha256"],
                  wall_s=[r["wall_s"] for r in untraced],
                  setup_s=[r["setup_s"] for r in untraced],
                  ref_s=[r["ref_s"] for r in untraced])
    print("record: " + json.dumps(record, sort_keys=True))
    if trace:
        metrics = per_layer_metrics(traced, untraced)
    else:
        metrics = end_to_end_metrics(untraced, elements)
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": sequences * len(reps), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rbsim" / "__init__.py").is_file():
        print(f"error: no rbsim sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        if results[name] is None:
            return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    # all workloads: one object, metric names prefixed with the workload
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
