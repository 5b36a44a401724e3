"""One workload repetition in a fresh process: set up, run the CLI, record.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 bench/child.py --command compare --config cfg.json --out DIR \
        --result result.json --t-spawn T [--trace spans.npz]

``T`` is the parent's ``time.perf_counter()`` just before it started this
process; on Linux that clock is CLOCK_MONOTONIC and shared by processes, so
``setup_s`` runs from process start, through ``import rbsim``, to the built
config.  ``wall_s`` runs from the start of the ``rbsim.cli.main`` call until
it returns, by which time the CSV and JSON artifacts are written.  The
reference computation of ``calibrate.py`` is timed right after set-up and
right after the call (``ref_s``), outside both intervals, so ``run.py`` can
put the times on a common host-speed scale.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--trace", default=None, help="write spans to this .npz")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import rbsim
    import rbsim.cli as cli
    from calibrate import reference

    if Path(rbsim.__file__).resolve().parent != SRC / "rbsim":
        print(f"error: imported rbsim from {rbsim.__file__}, not {SRC}", file=sys.stderr)
        return 3
    builders = {"compare": (cli.build_rb_config, cli.build_rbsv_config),
                "rbsv": (cli.build_rbsv_config,), "irbgs": (cli.build_irbgs_config,)}
    cfg = cli.load_config(args.config)
    overrides = argparse.Namespace(seed=None, exact=False, threads=1)
    for build in builders[args.command]:
        build(cfg, overrides)
    t_setup = time.perf_counter()
    record = {"setup_s": t_setup - args.t_spawn, "ref_s": []}
    ref_usage = [0.0, 0.0]  # user and system seconds spent in reference()

    def time_reference():
        before = resource.getrusage(resource.RUSAGE_SELF)
        record["ref_s"].append(reference())
        after = resource.getrusage(resource.RUSAGE_SELF)
        ref_usage[0] += after.ru_utime - before.ru_utime
        ref_usage[1] += after.ru_stime - before.ru_stime

    time_reference()
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        t0 = time.perf_counter()
        code = cli.main([args.command, "--config", args.config, "--out", args.out,
                         "--threads", "1"])
        record["wall_s"] = time.perf_counter() - t0
        record["exit_code"] = code
        time_reference()
        if tracer is not None:
            tracer.save(args.trace)
            record["counters"] = tracer.summary()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update(peak_rss_mb=usage.ru_maxrss / 1024.0,
                  user_s=usage.ru_utime - ref_usage[0], sys_s=usage.ru_stime - ref_usage[1],
                  minor_faults=usage.ru_minflt)
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
