"""Command-line entry point.

One subcommand per toolkit area: ``airtime``, ``duty-cycle``, ``link-budget``,
``adr-sim``, ``predict``, ``simulate``, ``pipeline``, ``fit``, ``evaluate``
and ``cross-validate``.  Structured results go to stdout (JSON) or to output
files (JSON/CSV); logs go to stderr.  Exit codes: 0 success, 1 domain error,
2 usage error.

Every run emits exactly one manifest recording inputs, seeds and outputs:
``*.manifest.json`` beside the first file the command wrote (``--out``, else
``--report``; ``manifest.json`` for pipeline runs), or a log line on stderr
when it wrote no file.  All randomness is seed-injected through flags; the only
environment variable honoured is ``LORAPROP_OUT_DIR`` (default output
directory override).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .adr import AdrState, adr_step, record_snr, snr_margin
from .errors import LorapropError
from .evaluation import cross_validate, evaluate_model
from .fitting import FitConfig, fit
from .jsonio import atomic_write, manifest, read_json, to_json, write_json
from .link_budget import (
    DEFAULT_LINK_BUDGET,
    esp,
    experimental_path_loss,
    load_link_budget,
    noise_power,
    receivable,
)
from .lora_phy import RadioConfig, duty_cycle, payload_symbols, symbol_duration, time_on_air
from .pipeline import check_kfold, ingest, run_pipeline
from .propagation import ENV_FIELDS, ModelVariant, SceneSpec, load_model, predict, save_model, simulate_scene
from .records import check_range, check_setting

log = logging.getLogger("loraprop")


# ---------------------------------------------------------------------------
# Flags, results and manifests


def _args_config(args: argparse.Namespace, *skip: str) -> dict:
    """Flag values of a parsed command, JSON-ready (handler dropped)."""
    drop = set(skip) | {"func"}
    return {k: v for k, v in vars(args).items() if k not in drop}


def _finish(args: argparse.Namespace, config: dict, payload: dict | None = None) -> int:
    """Write ``payload`` to ``--report``, or print it, then emit the run's
    manifest: beside the first file written (``--out``, else ``--report``),
    or to the log when the command wrote no file.  ``config`` is what the
    manifest's digest covers."""
    flags = vars(args)
    if payload is not None:
        if flags.get("report"):
            write_json(flags["report"], payload)
        else:
            print(to_json(payload, indent=2))
    outputs = [flags[name] for name in ("out", "report") if flags.get(name)]
    record = manifest(
        args.command,
        config,
        inputs=[
            flags[name]
            for name in ("schedule", "params", "trace", "model", "input", "config")
            if flags.get(name)
        ],
        outputs=outputs,
        seeds={"seed": args.seed} if "seed" in flags else {},
    )
    if outputs:
        primary = Path(outputs[0])
        write_json(primary.with_name(primary.stem + ".manifest.json"), record)
    else:
        log.info("manifest: %s", to_json(record, sort_keys=True))
    return 0


def non_negative_int(text: str) -> int:
    """``int`` of a ``--seed`` value, refusing the negatives numpy cannot seed with."""
    value = int(text)
    if value < 0:
        raise ValueError(f"negative: {text!r}")
    return value


def finite_float(text: str) -> float:
    """``float`` of a flag value or a trace line, refusing NaN and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# ---------------------------------------------------------------------------
# Subcommand implementations


def cmd_airtime(args: argparse.Namespace) -> int:
    cfg = RadioConfig(sf=args.sf, bw_hz=args.bw, payload_bytes=args.payload, cr_index=args.cr,
                      preamble_symbols=args.preamble, crc_on=args.crc, implicit_header=args.implicit_header,
                      low_dr_opt=args.low_dr_opt)
    payload = {
        "t_symbol_ms": symbol_duration(cfg) * 1e3,
        "n_payload": payload_symbols(cfg),
        "toa_ms": time_on_air(cfg) * 1e3,
    }
    return _finish(args, _args_config(args), payload)


def cmd_duty_cycle(args: argparse.Namespace) -> int:
    schedule = []
    with open(args.schedule, "rb") as handle:
        lines = handle.read().splitlines()  # at \n, \r\n and \r, as a text file's lines end
    for line_no, line in enumerate(lines, start=1):
        try:  # each fault, a byte that is not UTF-8 too, names its line
            if not (text := line.decode("utf-8").strip()):
                continue
            entry = json.loads(text)
            count = entry.pop("count")
            schedule.append((RadioConfig(**entry), count))
            check_setting("count", count, 0.0, math.inf, "[)")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:  # a LorapropError too
            raise LorapropError(f"schedule line {line_no}: {exc}") from exc
    report = duty_cycle(schedule, limit=args.limit)
    payload = {
        "total_airtime_ms_per_hour": report.total_airtime_ms_per_hour,
        "duty_cycle_fraction": report.duty_cycle_fraction,
        "per_sf_airtime_ms": {str(sf): ms for sf, ms in sorted(report.per_sf_airtime_ms.items())},
        "limit": report.limit,
        "compliant": report.compliant,
        "violations": list(report.violations),
    }
    return _finish(args, {"limit": args.limit}, payload)


def cmd_link_budget(args: argparse.Namespace) -> int:
    check_range("rssi", args.rssi)
    check_range("snr", args.snr)
    params = load_link_budget(args.params) if args.params else DEFAULT_LINK_BUDGET
    payload = {
        "esp_dbm": esp(args.rssi, args.snr),
        "noise_dbm": noise_power(args.rssi, args.snr),
        "exp_pl_db": experimental_path_loss(params, args.rssi),
        "receivable": (
            receivable(esp(args.rssi, args.snr), args.snr, args.sf)
            if args.sf is not None
            else None
        ),
    }
    return _finish(args, {"rssi": args.rssi, "snr": args.snr, "sf": args.sf}, payload)


def cmd_adr_sim(args: argparse.Namespace) -> int:
    state = AdrState(
        current_sf=args.sf,
        current_power_dbm=args.power,
        fade_margin_db=args.fade_margin,
        power_step_db=args.power_step,
        max_power_dbm=args.max_power,
        min_sf=args.min_sf,
        history_capacity=args.history,
    )
    with open(args.trace, encoding="utf-8") as handle:
        try:
            values = [check_range("snr", finite_float(line)) for line in map(str.strip, handle) if line]
        except ValueError as exc:
            raise LorapropError(f"bad SNR trace {args.trace}: {exc}") from exc
    for index, snr in enumerate(values):
        state = record_snr(state, snr)
        margin = snr_margin(state)
        state, decision = adr_step(state)
        print(
            to_json(
                {
                    "index": index,
                    "snr_db": snr,
                    "margin_db": margin,
                    "decision": decision.value,
                    "sf": state.current_sf,
                    "power_dbm": state.current_power_dbm,
                }
            )
        )
    return _finish(args, _args_config(args, "trace"))


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    extended = model.variant is ModelVariant.MW_EP
    if extended and (args.env_json is None or args.freq is None or args.snr is None):
        raise LorapropError("the extended variant needs --freq, --env-json and --snr")
    # every reading given is checked, also those the structural variant does not use
    given = {"frequency": args.freq, "snr": args.snr}
    if args.env_json is not None:
        try:
            env = json.loads(args.env_json)
            if not isinstance(env, dict):
                raise TypeError("not a JSON object")
            unknown = sorted(set(env) - set(ENV_FIELDS))
            if unknown:
                raise ValueError(f"unknown readings {unknown}, not among {list(ENV_FIELDS)}")
            missing = [name for name in ENV_FIELDS if extended and name not in env]
            if missing:
                raise ValueError(f"missing readings {missing}, which the extended variant needs")
            for name, value in env.items():
                if type(value) not in (int, float):  # bool is a subclass of int
                    raise TypeError(f"{name} must be a JSON number, got {value!r}")
            given |= {name: float(env[name]) for name in ENV_FIELDS if name in env}
        except (TypeError, ValueError, OverflowError) as exc:
            raise LorapropError(f"bad --env-json: {exc}") from exc
    inputs = {"distance": args.distance, "c_walls": args.brick, "w_walls": args.wood}
    inputs |= {name: check_range(name, value) for name, value in given.items() if value is not None}
    return _finish(args, _args_config(args), {"path_loss_db": predict(model, inputs)})


#: Scene points ``simulate`` formats and writes at a time.
_SCENE_BLOCK = 4096


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = SceneSpec(
        max_distance_m=args.max_distance,
        num_points=args.points,
        reference_distance_m=args.d0,
        reference_loss_db=args.pl0,
        path_loss_exponent=args.exponent,
        shadowing_sigma_db=args.sigma,
    )
    scene = simulate_scene(spec, args.seed)
    columns = (scene["distance"], scene["true_pl"], scene["noisy_pl"], scene["c_walls"] + scene["w_walls"])
    with atomic_write(args.out) if args.out else nullcontext(sys.stdout) as handle:
        handle.write("distance,true_pl,noisy_pl,walls_crossed\n")
        for start in range(0, spec.num_points, _SCENE_BLOCK):
            rows = zip(*(c[start : start + _SCENE_BLOCK].tolist() for c in columns))
            handle.write("".join(f"{d!r},{pl!r},{noisy!r},{walls}\n" for d, pl, noisy, walls in rows))
    return _finish(args, _args_config(args))


def cmd_pipeline_run(args: argparse.Namespace) -> int:
    out_dir = args.out_dir or os.environ.get("LORAPROP_OUT_DIR")
    if not out_dir:
        raise LorapropError("no output directory: pass --out-dir or set LORAPROP_OUT_DIR")
    result = run_pipeline(
        input_path=args.input,
        out_dir=out_dir,
        seed=args.seed,
        contamination=args.contamination,
        dedup_window_s=args.dedup_window,
        test_fraction=args.test_fraction,
    )
    counts = result.manifest["counts"]
    log.info(
        "pipeline complete: %d clean rows (%d train / %d test)",
        counts["clean"],
        counts["train"],
        counts["test"],
    )
    # run_pipeline writes the full manifest at <out-dir>/manifest.json.
    return 0


def _fit_config_from_file(path: str | None) -> FitConfig:
    if path is None:
        return FitConfig()
    raw = read_json(path)
    try:
        return FitConfig(**raw)
    except TypeError as exc:
        raise LorapropError(f"invalid fit config {path}: {exc}") from exc


def cmd_fit(args: argparse.Namespace) -> int:
    config = _fit_config_from_file(args.config)
    records = ingest(args.input).records
    report = fit(records, ModelVariant(args.variant), config)
    save_model(report.to_model(), args.out)
    payload = {
        "variant": report.variant.value,
        "params": report.params_by_name(),
        "rss": report.rss,
        "shadowing_sigma_db": report.shadowing_sigma_db,
        "iterations": report.iterations,
        "converged": report.converged,
        "n_observations": len(records),
    }
    return _finish(args, {"variant": args.variant}, payload)


def cmd_evaluate(args: argparse.Namespace) -> int:
    report = evaluate_model(load_model(args.model), ingest(args.input).records)
    return _finish(args, {}, asdict(report))


def cmd_cross_validate(args: argparse.Namespace) -> int:
    config = _fit_config_from_file(args.config)
    check_kfold(args.folds, args.seed)
    records = ingest(args.input).records
    result = cross_validate(
        records, ModelVariant(args.variant), folds=args.folds, seed=args.seed, config=config
    )
    payload = {"variant": args.variant} | asdict(result) | {"aggregate": result.aggregate()}
    return _finish(args, {"variant": args.variant, "folds": args.folds}, payload)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loraprop",
        description="LoRaWAN indoor-propagation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("airtime", help="symbol time, payload symbols and time on air")
    p.add_argument("--sf", type=int, required=True)
    p.add_argument("--bw", type=finite_float, required=True, help="bandwidth in Hz")
    p.add_argument("--payload", type=int, required=True, help="payload size in bytes")
    p.add_argument("--cr", type=int, default=1, help="coding rate index n in 4/(4+n)")
    p.add_argument("--preamble", type=int, default=8)
    p.add_argument("--crc", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument(
        "--implicit-header", action=argparse.BooleanOptionalAction, default=False
    )
    p.add_argument("--low-dr-opt", action=argparse.BooleanOptionalAction, default=False)
    p.set_defaults(func=cmd_airtime)

    p = sub.add_parser("duty-cycle", help="hourly airtime budget of a schedule file")
    p.add_argument("--schedule", required=True, help="JSONL: radio config plus count per line")
    p.add_argument("--limit", type=finite_float, default=0.01)
    p.set_defaults(func=cmd_duty_cycle)

    p = sub.add_parser("link-budget", help="ESP, noise power and derived path loss")
    p.add_argument("--rssi", type=finite_float, required=True)
    p.add_argument("--snr", type=finite_float, required=True)
    p.add_argument("--sf", type=int, default=None)
    p.add_argument("--params", default=None, help="JSON link-budget parameter file")
    p.set_defaults(func=cmd_link_budget)

    p = sub.add_parser("adr-sim", help="replay an SNR trace through the ADR procedure")
    p.add_argument("--trace", required=True, help="file with one SNR (dB) per line")
    p.add_argument("--sf", type=int, default=12)
    p.add_argument("--power", type=finite_float, default=14.0)
    p.add_argument("--min-sf", type=int, default=7)
    p.add_argument("--max-power", type=finite_float, default=14.0)
    p.add_argument("--fade-margin", type=finite_float, default=10.0)
    p.add_argument("--power-step", type=finite_float, default=2.0)
    p.add_argument("--history", type=int, default=20)
    p.set_defaults(func=cmd_adr_sim)

    p = sub.add_parser("predict", help="deterministic path loss of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--distance", type=finite_float, required=True)
    p.add_argument("--brick", type=int, default=0)
    p.add_argument("--wood", type=int, default=0)
    p.add_argument("--freq", type=finite_float, default=None, help="carrier frequency in MHz")
    p.add_argument("--env-json", default=None, help="JSON covariates: temperature, humidity, pressure, pm25, co2")
    p.add_argument("--snr", type=finite_float, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="sweep a random multi-wall scene")
    p.add_argument("--seed", type=non_negative_int, required=True)
    p.add_argument("--max-distance", type=finite_float, required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--sigma", type=finite_float, default=9.0)
    p.add_argument("--exponent", type=finite_float, default=3.5)
    p.add_argument("--pl0", type=finite_float, default=40.0)
    p.add_argument("--d0", type=finite_float, default=1.0)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="data cleaning pipeline")
    pipeline_sub = p.add_subparsers(dest="action", required=True)
    p = pipeline_sub.add_parser("run", help="ingest, clean, screen and split a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed", type=non_negative_int, default=42)
    p.add_argument("--contamination", type=finite_float, default=0.01)
    p.add_argument("--dedup-window", type=finite_float, default=2.0)
    p.add_argument("--test-fraction", type=finite_float, default=0.2)
    p.set_defaults(func=cmd_pipeline_run)

    p = sub.add_parser("fit", help="estimate model coefficients from a cleaned CSV")
    p.add_argument("--variant", choices=[v.value for v in ModelVariant], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--config", default=None, help="JSON fit configuration")
    p.add_argument("--out", required=True, help="fitted model JSON path")
    p.add_argument("--report", default=None, help="fit report JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="score a saved model against a cleaned CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cross-validate", help="k-fold refit and evaluation")
    p.add_argument("--variant", choices=[v.value for v in ModelVariant], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=non_negative_int, default=42)
    p.add_argument("--config", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_cross_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an overflow, invalid value or division by zero that no local errstate
        # handles ends the command; a forked child inherits the state
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (LorapropError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        log.error("%s", exc)
        return 1
    except FloatingPointError as exc:
        log.error("a computation left the float range: %s", exc)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
