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
from .channels import NoiseModel, SpamModel, channel_from_spec, config_integer
from .fitting import DecayFit
from .irbgs import IRBGSConfig, builtin_recipes, load_recipes, run_irbgs, verify_synthesis
from .rb import RBConfig, RBData, run_standard_rb
from .rbsv import FailureSignatureError, RBSVConfig, RBSVResult, RPolicy, run_rbsv
from .resources import ResourcePlan

__all__ = ["main", "load_config", "build_rb_config", "build_rbsv_config",
           "build_irbgs_config"]

log = logging.getLogger("rbsim")

DEFAULT_LENGTHS = tuple(range(5, 51, 5))

# top-level config fields each subcommand reads; anything else is a typo
_RB_FIELDS = frozenset({"protocol", "n", "lengths", "K_m", "shots", "mode", "noise",
                        "rb_mode", "b", "seed", "fit_strategy"})
_RBSV_FIELDS = _RB_FIELDS | {"N_m", "R_policy", "include_identity_stabilizer"}
_CONFIG_FIELDS = {
    "rb": _RB_FIELDS,
    "rbsv": _RBSV_FIELDS,
    "compare": _RBSV_FIELDS,
    "irbgs": frozenset({"protocol", "n", "lengths", "K_m", "noise", "noise_n", "recipe",
                        "seed", "fit_strategy"}),
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def _setup_logging():
    level = os.environ.get("RBSV_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _reject_unknown(obj: dict, known, prefix: str = ""):
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError("unknown config field "
                          + ", ".join(repr(prefix + k) for k in unknown))


def _int_list(value) -> tuple:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return tuple(config_integer(m) for m in value)


# what each converter of ``_field`` expects, for its error message
_EXPECTED = {config_integer: "an integer", float: "a number", _int_list: "a list of integers"}


def _field(cfg: dict, name: str, default=None, required: bool = False, kind=None,
           prefix: str = ""):
    """``cfg[name]``, or ``default`` when absent.  With ``kind`` (a key of
    ``_EXPECTED``) a present value is converted, and one of the wrong JSON
    type raises a ``ConfigError`` naming the field ``prefix + name``."""
    if name not in cfg:
        if required:
            raise ConfigError(f"missing required config field {prefix + name!r}")
        return default
    value = cfg[name]
    if kind is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {prefix + name!r} must be {_EXPECTED[kind]}, "
                          f"not {value!r}") from exc


def _noise_model(cfg: dict, n: int) -> NoiseModel:
    spec = _field(cfg, "noise", required=True)
    if not isinstance(spec, dict):
        raise ConfigError("field 'noise' must be an object")
    _reject_unknown(spec, ("gate", "prep", "meas", "p_meas"), "noise.")
    p_meas = _field(spec, "p_meas", 0.0, kind=float, prefix="noise.")
    channels = {}
    for key, default in (("gate", {"kind": "ideal"}), ("prep", None), ("meas", None)):
        try:
            channels[key] = channel_from_spec(spec.get(key, default), n)
        except ValueError as exc:
            raise ConfigError(f"field 'noise': {exc} (in 'noise.{key}')") from exc
    try:
        spam = SpamModel(prep=channels["prep"], meas=channels["meas"], meas_flip=p_meas)
    except ValueError as exc:
        raise ConfigError(f"field 'noise': {exc}") from exc
    return NoiseModel(gate=channels["gate"], spam=spam)


def _common_rb_fields(cfg: dict, overrides) -> dict:
    n = _field(cfg, "n", 2, kind=config_integer)
    mode = _field(cfg, "mode", "sampled")
    if mode not in ("exact", "sampled"):
        raise ConfigError(f"field 'mode' must be 'exact' or 'sampled', not {mode!r}")
    fields = dict(
        n=n,
        lengths=_field(cfg, "lengths", DEFAULT_LENGTHS, kind=_int_list),
        k_m=_field(cfg, "K_m", 100, kind=config_integer),
        shots=_field(cfg, "shots", 100, kind=config_integer),
        exact=mode == "exact",
        noise=_noise_model(cfg, n),
        mode=str(_field(cfg, "rb_mode", "clifford")),
        generator_block=_field(cfg, "b", 10, kind=config_integer),
        seed=_field(cfg, "seed", 0, kind=config_integer),
        fit_strategy=str(_field(cfg, "fit_strategy", "auto")),
    )
    if overrides.seed is not None:
        fields["seed"] = overrides.seed
    if overrides.exact:
        fields["exact"] = True
    return fields


def build_rb_config(cfg: dict, overrides) -> RBConfig:
    try:
        return RBConfig(**_common_rb_fields(cfg, overrides))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_rbsv_config(cfg: dict, overrides) -> RBSVConfig:
    fields = _common_rb_fields(cfg, overrides)
    policy_spec = _field(cfg, "R_policy", {"kind": "optimal"})
    if not isinstance(policy_spec, dict):
        raise ConfigError("field 'R_policy' must be an object")
    _reject_unknown(policy_spec, ("kind", "R", "cap"), "R_policy.")
    fixed = _field(policy_spec, "R", 100.0, kind=float, prefix="R_policy.")
    cap = _field(policy_spec, "cap", 1.0e4, kind=float, prefix="R_policy.")
    n_m = _field(cfg, "N_m", 100, kind=config_integer)
    try:
        policy = RPolicy(kind=str(policy_spec.get("kind", "optimal")), fixed=fixed, cap=cap)
        return RBSVConfig(
            **fields,
            n_m=n_m,
            r_policy=policy,
            include_identity_stabilizer=bool(
                _field(cfg, "include_identity_stabilizer", True)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_recipe_file(path: str, source: str) -> list:
    """``load_recipes(path)``; a file that cannot be read or parsed raises a
    ``ConfigError`` naming ``source`` and the path."""
    try:
        return load_recipes(path)
    except OSError as exc:
        raise ConfigError(f"{source}: cannot read {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # json.JSONDecodeError included
        raise ConfigError(f"{source}: recipe file {path!r}: {exc}") from exc


def _resolve_recipe(cfg: dict):
    spec = _field(cfg, "recipe", "cnot")
    if isinstance(spec, str):
        for recipe in builtin_recipes():
            if recipe.name == spec or recipe.target_name == spec:
                return recipe
        raise ConfigError(f"unknown built-in recipe {spec!r}")
    if isinstance(spec, dict) and isinstance(spec.get("path"), str):
        index = _field(spec, "index", 0, kind=config_integer, prefix="recipe.")
        recipes = _load_recipe_file(spec["path"], "field 'recipe'")
        if not 0 <= index < len(recipes):
            raise ConfigError(f"recipe index {index} out of range")
        return recipes[index]
    raise ConfigError("field 'recipe' must be a built-in name or {path, index}")


def build_irbgs_config(cfg: dict, overrides) -> IRBGSConfig:
    n = _field(cfg, "n", 2, kind=config_integer)
    noise = _noise_model(cfg, n)
    try:
        noise_n = channel_from_spec(_field(cfg, "noise_n", {"kind": "ideal"}), n)
    except ValueError as exc:
        raise ConfigError(f"field 'noise_n': {exc}") from exc
    seed = _field(cfg, "seed", 0, kind=config_integer)
    if overrides.seed is not None:
        seed = overrides.seed
    lengths = _field(cfg, "lengths", DEFAULT_LENGTHS, kind=_int_list)
    k_m = _field(cfg, "K_m", 30, kind=config_integer)
    try:
        return IRBGSConfig(
            lengths=lengths,
            k_m=k_m,
            seed=seed,
            noise=noise,
            noise_n=noise_n,
            recipe=_resolve_recipe(cfg),
            n=n,
            fit_strategy=str(_field(cfg, "fit_strategy", "auto")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


def rb_csv(data: RBData) -> str:
    lines = ["m,P_m,stderr,K_m,shots"]
    for m, pm, se in zip(data.lengths, data.mean, data.stderr):
        lines.append(f"{int(m)},{float(pm)!r},{float(se)!r},{data.k_m},{data.shots}")
    return "\n".join(lines) + "\n"


def rbsv_csv(result: RBSVResult) -> str:
    lines = ["m,F_bar_m,mean_p_acc,mean_R,n_saturated"]
    for m, fb, pa, rr, ns in zip(result.bounds.lengths, result.bounds.mean, result.mean_p_acc,
                                 result.mean_copies, result.n_saturated):
        lines.append(f"{int(m)},{float(fb)!r},{float(pa)!r},{float(rr)!r},{int(ns)}")
    return "\n".join(lines) + "\n"


def _fit_summary(fit: DecayFit, r_name: str, r_value: float) -> dict:
    return {
        r_name: r_value,
        "A0": fit.a0,
        "B0": fit.b0,
        "p": fit.p,
        "fit_residual": fit.residual_rms,
        "converged": not fit.degenerate,
        "degenerate": fit.degenerate,
        "at_boundary": fit.at_boundary,
    }


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


def _cmd_rb(cfg: dict, args) -> int:
    config = build_rb_config(cfg, args)
    out = _artifact_dir(args)
    t0 = time.perf_counter()
    data = run_standard_rb(config)
    wall = time.perf_counter() - t0
    summary = _fit_summary(data.fit, "r_rb", data.r)
    summary.update(engine=data.engine, wall_time_s=wall,
                   reproducibility=_repro_block(cfg, config.seed))
    _emit(out, "rb_summary.json", summary, rb=rb_csv(data))
    print(f"r_rb = {data.r!r} (p = {data.fit.p!r})")
    return 0


def _cmd_rbsv(cfg: dict, args) -> int:
    config = build_rbsv_config(cfg, args)
    out = _artifact_dir(args)
    t0 = time.perf_counter()
    result = run_rbsv(config)
    wall = time.perf_counter() - t0
    bounds = result.bounds
    summary = _fit_summary(bounds.fit, "r_rbsv", bounds.r)
    summary.update(
        engine=bounds.engine,
        wall_time_s=wall,
        n_saturated_total=int(np.sum(result.n_saturated)),
        reproducibility=_repro_block(cfg, config.seed),
    )
    _emit(out, "rbsv_summary.json", summary, rbsv=rbsv_csv(result))
    print(f"r_rbsv = {bounds.r!r} (p = {bounds.fit.p!r})")
    return 0


def _cmd_compare(cfg: dict, args) -> int:
    # RBSVConfig extends RBConfig, and both protocols read the same sequences
    config = build_rbsv_config(cfg, args)
    out = _artifact_dir(args)
    t0 = time.perf_counter()
    result = run_rbsv(config, with_rb=True)
    data, bounds = result.rb, result.bounds
    wall = time.perf_counter() - t0
    summary = {
        "rb": _fit_summary(data.fit, "r_rb", data.r),
        "rbsv": _fit_summary(bounds.fit, "r_rbsv", bounds.r),
        "r_rb": data.r,
        "r_rbsv": bounds.r,
        "ratio_rbsv_over_rb": (bounds.r / data.r) if data.r else None,
        "engine": data.engine,
        "wall_time_s": wall,
        "reproducibility": _repro_block(cfg, config.seed),
    }
    _emit(out, "compare_summary.json", summary, rb=rb_csv(data), rbsv=rbsv_csv(result))
    print(f"r_rb = {data.r!r}  r_rbsv = {bounds.r!r}")
    return 0


def _cmd_irbgs(cfg: dict, args) -> int:
    config = build_irbgs_config(cfg, args)
    out = _artifact_dir(args)
    t0 = time.perf_counter()
    estimate = run_irbgs(config)
    wall = time.perf_counter() - t0
    summary = {
        "p": estimate.p,
        "p_bar_c": estimate.p_bar_c,
        "d": estimate.d,
        "nonclifford_count": estimate.nonclifford_count,
        "r_c_est": estimate.r_c_est,
        "r_n_est": estimate.r_n_est,
        "error_bound": estimate.bound,
        "noise_class": estimate.noise_class,
        "recipe": config.recipe.name,
        # the interleaved run's channels include the baseline's
        "engine": estimate.interleaved_data.engine,
        "wall_time_s": wall,
        "reproducibility": _repro_block(cfg, config.seed),
    }
    _emit(out, "irbgs_summary.json", summary, irbgs_baseline=rb_csv(estimate.baseline_data),
          irbgs_interleaved=rb_csv(estimate.interleaved_data))
    print(f"r_n_est = {estimate.r_n_est!r} (bound {estimate.bound!r}, "
          f"class {estimate.noise_class})")
    return 0


def _cmd_plan(cfg: dict, args) -> int:
    try:
        plan = ResourcePlan.from_dict(cfg)
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


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="rbsim",
        description="Clifford benchmarking simulator: plain, verification-based "
                    "and interleaved protocols plus resource planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("rb", "rbsv", "compare", "irbgs"):
        _add_common(sub.add_parser(name))
    _add_common(sub.add_parser("plan"), run=False)
    vs = sub.add_parser("verify-synthesis")
    vs.add_argument("--recipes", default=None, help="recipe JSON (default: bundled)")
    args = parser.parse_args(argv)

    try:
        if args.command == "verify-synthesis":
            return _cmd_verify_synthesis(args)
        cfg = load_config(args.config)
        if args.command == "plan":
            return _cmd_plan(cfg, args)
        protocol = cfg.get("protocol", args.command)
        if protocol != args.command and args.command != "compare":
            raise ConfigError(
                f"config 'protocol' is {protocol!r} but subcommand is {args.command!r}")
        _reject_unknown(cfg, _CONFIG_FIELDS[args.command])
        handler = {"rb": _cmd_rb, "rbsv": _cmd_rbsv,
                   "compare": _cmd_compare, "irbgs": _cmd_irbgs}[args.command]
        return handler(cfg, args)
    except (ValueError, FailureSignatureError) as exc:
        # ConfigError, UnsupportedChannelError and other run-time ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
