"""Command-line orchestration: config parsing, runs, CSV/JSON artifacts.

Subcommands: ``rb``, ``rbsv``, ``irbgs``, ``compare``, ``plan`` and
``verify-synthesis``.  Every run writes a per-length CSV and a summary JSON
with a reproducibility block (seed, config hash, version).  ``RBSV_LOG``
sets the log level.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .channels import (NoiseModel, SpamModel, channel_from_spec, config_integer, config_json,
                       config_number, config_value, reject_unknown_fields)
from .engines import engine_for
from .fitting import DecayFit
from .irbgs import IRBGSConfig, builtin_recipes, load_recipes, run_irbgs, verify_synthesis
from .rb import RBConfig, RBData, run_standard_rb
from .rbsv import FailureSignatureError, RBSVConfig, RBSVResult, RPolicy, run_rbsv

__all__ = ["main", "load_config", "build_rb_config", "build_rbsv_config",
           "build_irbgs_config"]

log = logging.getLogger("rbsim")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def _setup_logging():
    level = os.environ.get("RBSV_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = config_json(fh.read())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _int_list(value) -> tuple:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return tuple(config_integer(m) for m in value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("not a boolean")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def _exact(mode) -> bool:
    """The ``mode`` field: True for ``exact``."""
    if mode not in ("exact", "sampled"):
        raise ValueError(f"not a mode: {mode!r}")
    return mode == "exact"


# what each converter expects, for ``config_value``'s message
_int_list.expected, _boolean.expected = "a list of integers", "true or false"
_string.expected, _exact.expected = "a string", "'exact' or 'sampled'"

# the converter of each ``ResourcePlan`` field that is not a number
_PLAN_KINDS = {"q": config_integer, "n": config_integer, "m": config_integer,
               "with_spam": _boolean, "stabilizer_weights": _int_list}


def _field(cfg: dict, name: str, kind, default=None, prefix: str = "", n: int | None = None):
    """``cfg[name]`` read by ``kind``, or ``default`` when absent.  A JSON-type
    converter (one with an ``expected`` noun) names the field ``prefix + name``
    when the value is of the wrong type (``config_value``); any other is an
    object reader, given the value and the register size ``n``, whose errors
    name the field themselves."""
    if name not in cfg:
        return default
    if hasattr(kind, "expected"):
        return config_value(cfg[name], kind, f"field {prefix + name!r}")
    return kind(cfg[name], n)


def _build(cls, cfg: dict, keys: dict, prefix: str = "", **fixed):
    """``cls`` from each key of ``keys`` present in ``cfg``, read by its
    converter (``_field``) into the class field it names, and from ``fixed``,
    which wins.  Every other field takes the class default, so each default
    and each check is written once, in ``cls``.  ``n`` comes first in a table:
    the readers after it take its value."""
    fields = {}
    for key, (name, kind) in keys.items():
        if key in cfg:
            fields[name] = _field(cfg, key, kind, prefix=prefix, n=fields.get("n"))
    return cls(**{**fields, **fixed})


def _noise_model(spec, n: int) -> NoiseModel:
    """The ``noise`` object: ``gate``, ``prep`` and ``meas`` channels (absent:
    ideal) and the ``p_meas`` flip probability."""
    if not isinstance(spec, dict):
        raise ConfigError("field 'noise' must be an object")
    reject_unknown_fields(spec, ("gate", "prep", "meas", "p_meas"), "config", "noise.")
    flip = _field(spec, "p_meas", config_number, SpamModel.meas_flip, "noise.")
    channels = {}
    for key in ("gate", "prep", "meas"):
        try:
            channels[key] = channel_from_spec(spec.get(key), n)
        except ValueError as exc:
            raise ConfigError(f"field 'noise': {exc} (in 'noise.{key}')") from exc
    try:
        return NoiseModel(channels["gate"], SpamModel(channels["prep"], channels["meas"], flip))
    except ValueError as exc:
        raise ConfigError(f"field 'noise': {exc}") from exc


def _noise_n(spec, n: int):
    try:
        return channel_from_spec(spec, n)
    except ValueError as exc:
        raise ConfigError(f"field 'noise_n': {exc}") from exc


_POLICY_KEYS = {"kind": ("kind", _string), "R": ("fixed", config_number),
                "cap": ("cap", config_number)}


def _r_policy(spec, n: int) -> RPolicy:
    if not isinstance(spec, dict):
        raise ConfigError("field 'R_policy' must be an object")
    reject_unknown_fields(spec, _POLICY_KEYS, "config", "R_policy.")
    return _build(RPolicy, spec, _POLICY_KEYS, "R_policy.")


def _load_recipe_file(path: str, source: str) -> list:
    """``load_recipes(path)``; a file that cannot be read or parsed raises a
    ``ConfigError`` naming ``source`` and the path."""
    try:
        return load_recipes(path)
    except OSError as exc:
        raise ConfigError(f"{source}: cannot read {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # json.JSONDecodeError included
        raise ConfigError(f"{source}: recipe file {path!r}: {exc}") from exc


def _recipe(spec, n: int):
    if isinstance(spec, str):
        for recipe in builtin_recipes():
            if recipe.name == spec or recipe.target_name == spec:
                return recipe
        raise ConfigError(f"unknown built-in recipe {spec!r}")
    if isinstance(spec, dict) and isinstance(spec.get("path"), str):
        reject_unknown_fields(spec, ("path", "index"), "config", "recipe.")
        index = _field(spec, "index", config_integer, 0, "recipe.")
        recipes = _load_recipe_file(spec["path"], "field 'recipe'")
        if not 0 <= index < len(recipes):
            raise ConfigError(f"recipe index {index} out of range")
        return recipes[index]
    raise ConfigError("field 'recipe' must be a built-in name or {path, index}")


# config key -> (the config-class field it sets, the converter that reads it)
_RB_KEYS = {
    "n": ("n", config_integer), "lengths": ("lengths", _int_list),
    "K_m": ("k_m", config_integer), "shots": ("shots", config_integer),
    "mode": ("exact", _exact), "noise": ("noise", _noise_model), "rb_mode": ("mode", _string),
    "b": ("generator_block", config_integer), "seed": ("seed", config_integer),
    "fit_strategy": ("fit_strategy", _string),
}
_RBSV_KEYS = {**_RB_KEYS, "N_m": ("n_m", config_integer), "R_policy": ("r_policy", _r_policy),
              "include_identity_stabilizer": ("include_identity_stabilizer", _boolean)}
_IRBGS_KEYS = {**{key: _RB_KEYS[key] for key in ("n", "lengths", "K_m", "noise", "seed",
                                                  "fit_strategy")},
               "noise_n": ("noise_n", _noise_n), "recipe": ("recipe", _recipe)}
# the top-level fields each run subcommand reads; anything else is a typo
_CONFIG_FIELDS = {command: frozenset(keys) | {"protocol"} for command, keys in (
    ("rb", _RB_KEYS), ("rbsv", _RBSV_KEYS), ("compare", _RBSV_KEYS), ("irbgs", _IRBGS_KEYS))}
# the CLI's defaults where a run's config class has none (RBConfig: n and
# lengths; IRBGSConfig: lengths and recipe); every other default is the class's
_DEFAULTS = {"n": 2, "lengths": list(range(5, 51, 5)), "recipe": "cnot"}


def _run_config(cls, cfg: dict, keys: dict, overrides):
    """``cls`` from a run config (see ``_build``), whose ``noise`` is required,
    with the ``--seed`` and ``--exact`` overrides."""
    if "noise" not in cfg:
        raise ConfigError("missing required config field 'noise'")
    fixed = {} if overrides.seed is None else {"seed": overrides.seed}
    if overrides.exact:
        fixed["exact"] = True
    return _build(cls, {**_DEFAULTS, **cfg}, keys, **fixed)


def build_rb_config(cfg: dict, overrides) -> RBConfig:
    return _run_config(RBConfig, cfg, _RB_KEYS, overrides)


def build_rbsv_config(cfg: dict, overrides) -> RBSVConfig:
    return _run_config(RBSVConfig, cfg, _RBSV_KEYS, overrides)


def build_irbgs_config(cfg: dict, overrides) -> IRBGSConfig:
    return _run_config(IRBGSConfig, cfg, _IRBGS_KEYS, overrides)


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _repro_block(cfg: dict, seed: int) -> dict:
    return {"seed": seed, "config_hash": _config_hash(cfg), "version": __version__}


def _artifact_dir(args) -> str:
    """``--out`` (default: the working directory), created if missing and checked
    with a temporary file, so a path that cannot take the artifacts fails before the run."""
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
        with tempfile.TemporaryFile(dir=out):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write {out!r}: {exc.strerror}") from exc
    return out


def rb_csv(data: RBData, shots: int) -> str:
    """The survival curve, with the repetitions per sequence (0: exact)."""
    lines = ["m,P_m,stderr,K_m,shots"]
    for m, pm, se in zip(data.lengths, data.mean, data.stderr):
        lines.append(f"{int(m)},{float(pm)!r},{float(se)!r},{data.per_sequence.shape[1]},{shots}")
    return "\n".join(lines) + "\n"


def rbsv_csv(result: RBSVResult) -> str:
    lines = ["m,F_bar_m,mean_p_acc,mean_R,n_saturated"]
    for m, fb, pa, rr, ns in zip(result.bounds.lengths, result.bounds.mean, result.mean_p_acc,
                                 result.mean_copies, result.n_saturated):
        lines.append(f"{int(m)},{float(fb)!r},{float(pa)!r},{float(rr)!r},{int(ns)}")
    return "\n".join(lines) + "\n"


def _fit_status(fit: DecayFit) -> dict:
    return {"converged": not fit.degenerate, "degenerate": fit.degenerate,
            "at_boundary": fit.at_boundary}


def _fit_summary(fit: DecayFit, r_name: str, r_value: float) -> dict:
    return {
        r_name: r_value,
        "A0": fit.a0,
        "B0": fit.b0,
        "p": fit.p,
        "fit_residual": fit.residual_rms,
        **_fit_status(fit),
    }


def _shown(value, fit: DecayFit) -> str:
    """``value``, read off ``fit``, for a stdout line: marked when the fit is
    degenerate, whose p = 1 is no measurement and whose r of 0 reads as perfect."""
    return f"{value!r} (degenerate fit)" if fit.degenerate else repr(value)


def _emit(out: str, summary_name: str, summary: dict, **csvs):
    """Write each ``name=text`` CSV as ``<name>.csv`` and the summary JSON
    in the directory ``out`` (see ``_artifact_dir``)."""
    files = {f"{name}.csv": text for name, text in csvs.items()}
    files[summary_name] = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    for name, text in files.items():
        path = os.path.join(out, name)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from exc
        log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------


def _engine(config: RBConfig, *channels) -> str:
    """The engine that ran ``config``'s noise and any further ``channels``."""
    return engine_for(config.noise.channels + channels, config.n)


def _rb_report(config: RBConfig, data: RBData):
    """A run's summary fields (without the run facts ``_cmd_run`` adds), its
    CSVs by name and its stdout line; one such report per run subcommand."""
    summary = dict(_fit_summary(data.fit, "r_rb", data.r), engine=_engine(config))
    csvs = {"rb": rb_csv(data, 0 if config.exact else config.shots)}
    return summary, csvs, f"r_rb = {_shown(data.r, data.fit)} (p = {data.fit.p!r})"


def _rbsv_report(config: RBSVConfig, result: RBSVResult):
    bounds = result.bounds
    summary = dict(_fit_summary(bounds.fit, "r_rbsv", bounds.r), engine=_engine(config),
                   n_saturated_total=int(np.sum(result.n_saturated)))
    line = f"r_rbsv = {_shown(bounds.r, bounds.fit)} (p = {bounds.fit.p!r})"
    return summary, {"rbsv": rbsv_csv(result)}, line


def _compare_report(config: RBSVConfig, result: RBSVResult):
    data, bounds = result.rb, result.bounds
    # a degenerate fit's r of 0 would read as a perfect bound: no ratio
    ratio = (bounds.r / data.r if data.r and not (data.fit.degenerate or bounds.fit.degenerate)
             else None)
    summary = {"rb": _fit_summary(data.fit, "r_rb", data.r), "r_rb": data.r,
               "rbsv": _fit_summary(bounds.fit, "r_rbsv", bounds.r), "r_rbsv": bounds.r,
               "ratio_rbsv_over_rb": ratio, "engine": _engine(config)}
    csvs = {"rb": rb_csv(data, 0 if config.exact else config.shots), "rbsv": rbsv_csv(result)}
    line = f"r_rb = {_shown(data.r, data.fit)}  r_rbsv = {_shown(bounds.r, bounds.fit)}"
    return summary, csvs, line


def _irbgs_report(config: IRBGSConfig, estimate):
    runs = {"baseline": estimate.baseline_data, "interleaved": estimate.interleaved_data}
    summary = {key: getattr(estimate, key) for key in
               ("p", "p_bar_c", "d", "nonclifford_count", "r_c_est", "r_n_est", "noise_class")}
    # the interleaved run's channels include the baseline's
    summary.update(error_bound=estimate.bound, recipe=config.recipe.name,
                   engine=_engine(config, config.noise_n))
    summary.update({f"{name}_fit": _fit_status(data.fit) for name, data in runs.items()})
    degenerate = [name for name, data in runs.items() if data.fit.degenerate]
    line = (f"r_n_est = {estimate.r_n_est!r} (bound {estimate.bound!r}, "
            f"class {estimate.noise_class})")
    if degenerate:  # a degenerate fit's p = 1 is no measurement
        summary.update(r_c_est=None, r_n_est=None, error_bound=None)
        line = f"r_n_est = None (degenerate fit: {', '.join(degenerate)})"
    # both runs are exact
    csvs = {f"irbgs_{name}": rb_csv(data, 0) for name, data in runs.items()}
    return summary, csvs, line


# run subcommand -> (config reader, protocol run, report).  The runs look up
# run_standard_rb, run_rbsv and run_irbgs when called, so the wrappers that
# bench/tracing.py installs on them see the call; compare runs RBSVConfig,
# which extends RBConfig, and reads both protocols off the same sequences
_RUNS = {
    "rb": (build_rb_config, lambda config: run_standard_rb(config), _rb_report),
    "rbsv": (build_rbsv_config, lambda config: run_rbsv(config), _rbsv_report),
    "compare": (build_rbsv_config, lambda config: run_rbsv(config, with_rb=True),
                _compare_report),
    "irbgs": (build_irbgs_config, lambda config: run_irbgs(config), _irbgs_report),
}


def _cmd_run(cfg: dict, args) -> int:
    """Build the subcommand's config, check ``--out``, time the run, then
    write its report with the wall time and the reproducibility block."""
    build, run, report = _RUNS[args.command]
    config = build(cfg, args)
    out = _artifact_dir(args)
    t0 = time.perf_counter()
    result = run(config)
    wall = time.perf_counter() - t0
    summary, csvs, line = report(config, result)
    summary.update(wall_time_s=wall, reproducibility=_repro_block(cfg, config.seed))
    _emit(out, f"{args.command}_summary.json", summary, **csvs)
    print(line)
    return 0


def _cmd_plan(cfg: dict, args) -> int:
    from .resources import ResourcePlan  # only plan reads it, so runs never import it

    reject_unknown_fields(cfg, ResourcePlan.__dataclass_fields__, "config")
    plan = ResourcePlan(**{name: _field(cfg, name, _PLAN_KINDS.get(name, config_number))
                           for name in cfg})
    try:
        values = plan.evaluate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"resource plan: {exc}") from exc
    width = max(len(k) for k in values)
    for key, val in values.items():
        print(f"{key:<{width}}  {val}")
    if args.out:
        _emit(_artifact_dir(args), "plan.json", values)
    return 0


def _cmd_verify_synthesis(args) -> int:
    recipes = (_load_recipe_file(args.recipes, "--recipes") if args.recipes
               else builtin_recipes())
    failures = 0
    for recipe in recipes:
        report = verify_synthesis(recipe)
        status = "pass" if report.passed else "FAIL"
        print(f"{recipe.name:<26s} {status}  max_deviation={report.max_deviation:.3e}  "
              f"L={recipe.nonclifford_count}")
        failures += 0 if report.passed else 1
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, run: bool = True):
    """``--config`` and ``--out``; with ``run``, also the flags a protocol run reads."""
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="artifact directory")
    if run:
        parser.add_argument("--seed", type=int, default=None, help="override master seed")
        parser.add_argument("--threads", type=int, default=1, choices=[1],
                            help="worker threads; runs are single-threaded, so only 1")
        parser.add_argument("--exact", action="store_true", help="force exact mode")


def _add_recipes(parser: argparse.ArgumentParser):
    parser.add_argument("--recipes", default=None, help="recipe JSON (default: bundled)")


# subcommand -> the function that adds its arguments to its parser
_SUBCOMMANDS = {**{name: _add_common for name in _RUNS},
                "plan": lambda parser: _add_common(parser, run=False),
                "verify-synthesis": _add_recipes}


def main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="rbsim",
        description="Clifford benchmarking simulator: plain, verification-based "
                    "and interleaved protocols plus resource planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand gets a parser, for the choices and the help, but only the
    # one that will parse the rest of argv gets its arguments.  argparse hands
    # the rest to the subcommand that the first positional argument names, and
    # no top-level option takes a value, so that is the first argument naming
    # one (a first positional that names none fails before any subcommand)
    asked = next((arg for arg in argv if arg in _SUBCOMMANDS), None)
    for name, add_arguments in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name)
        if name == asked:
            add_arguments(subparser)
    args = parser.parse_args(argv)

    try:
        if args.command == "verify-synthesis":
            return _cmd_verify_synthesis(args)
        cfg = load_config(args.config)
        if args.command == "plan":
            return _cmd_plan(cfg, args)
        protocol = cfg.get("protocol", args.command)
        # compare reads the rb and rbsv fields of either protocol's config
        if protocol not in ((args.command,) if args.command != "compare"
                            else ("rb", "rbsv", "compare")):
            raise ConfigError(
                f"config 'protocol' is {protocol!r} but subcommand is {args.command!r}")
        reject_unknown_fields(cfg, _CONFIG_FIELDS[args.command], "config")
        return _cmd_run(cfg, args)
    except (ValueError, FailureSignatureError) as exc:
        # ConfigError, UnsupportedChannelError and other run-time ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        # a count beyond int64 or an array beyond memory, such as K_m = 1e30
        print(f"error: a config number is too large to run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
