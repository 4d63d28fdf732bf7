"""Command-line interface: generate, run, train, report.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .config import load_config
from .errors import AvFuseError, InvalidConfig, InvalidInput
from .pipeline import run_pipeline, train_on_scenario
from .scenario import Scenario, generate_scenario, preset_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avfuse",
        description="Audio-visual stream fusion and anomaly detection on recorded or synthetic captures.",
    )
    parser.add_argument("--config", type=Path, help="JSON config overriding the defaults")
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed (preset rendering, detector noise, autoencoder init); "
                             "fusion weights come from fusion.seed in the config")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--deterministic", action="store_true",
                        help="size the ingest queue to hold every window so nothing drops (run only)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a scenario capture directory")
    gen.add_argument("--scenario", type=Path, help="scenario JSON (default: a built-in preset)")
    gen.add_argument("--preset", default="canonical",
                     choices=("canonical", "training", "injection"),
                     help="built-in scenario when --scenario is not given")

    run = sub.add_parser("run", help="run the full pipeline over a capture directory")
    run.add_argument("capture", type=Path, help="directory produced by `generate`")
    run.add_argument("--params", type=Path, help="trained fusion model (from `train`)")
    run.add_argument("--autoencoder", type=Path, help="trained autoencoder (from `train`)")
    run.add_argument("--export-features", type=Path,
                     help="write spectrogram/scalogram/flow CSVs here")
    run.add_argument("--single-thread", action="store_true",
                     help="accepted and ignored: every run is single-threaded")

    train = sub.add_parser("train", help="train fusion model and autoencoder on a scenario")
    train.add_argument("capture", type=Path, help="directory produced by `generate`")

    report = sub.add_parser("report", help="summarize a JSONL event log")
    report.add_argument("log", type=Path, help="events.jsonl from a run")
    return parser


def cmd_generate(args, config) -> int:
    if args.scenario is not None:
        scenario = Scenario.from_json(args.scenario)
    else:
        scenario = preset_scenario(args.preset, seed=args.seed)
    directory = generate_scenario(scenario, args.out)
    print(f"scenario '{scenario.name}': {scenario.n_frames} frames, "
          f"{scenario.duration_s:g}s audio @ {scenario.sample_rate} Hz -> {directory}")
    return EXIT_OK


def cmd_run(args, config) -> int:
    summary = run_pipeline(
        args.capture,
        config,
        args.out,
        deterministic=args.deterministic,
        model_path=args.params,
        autoencoder_path=args.autoencoder,
        export_dir=args.export_features,
        seed=args.seed,
    )
    print(f"processed {summary.windows_processed}/{summary.windows_ingested} windows, "
          f"{summary.anomalies_triggered} anomalies triggered, "
          f"drops {sum(summary.drops.values())}, log: {summary.log_path}")
    for stage, latency in summary.stage_latency.items():
        print(f"  {stage:9s} p50 {latency['p50_ms']:7.2f} ms   p95 {latency['p95_ms']:7.2f} ms")
    if not summary.accounting_ok:
        print("warning: queue accounting mismatch", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_train(args, config) -> int:
    result = train_on_scenario(args.capture, config, args.out, seed=args.seed)
    print(f"trained on {result['sequences']} sequences: "
          f"loss {result['final_loss']:.4f}, motion accuracy {result['training_accuracy']:.2f}")
    print(f"model: {result['model_path']}")
    if result["autoencoder_path"]:
        print(f"autoencoder: {result['autoencoder_path']}")
    return EXIT_OK


def cmd_report(args, config) -> int:
    if not args.log.exists():
        raise InvalidConfig([f"no such log: {args.log}"])
    kinds = Counter()
    windows = set()
    triggered = []
    for number, line in enumerate(args.log.read_bytes().splitlines(), start=1):
        try:
            record = json.loads(line)
            kinds[record["kind"]] += 1
            windows.add(record["window"])
            if record["kind"] == "anomaly" and record["payload"].get("triggered"):
                triggered.append((float(record["payload"]["combined"]), float(record["t"]),
                                  str(record["payload"].get("type", "?"))))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise InvalidInput(f"{args.log}:{number}: not an event record "
                               f"({type(exc).__name__}: {exc})") from exc
    print(f"{len(windows)} windows, {sum(kinds.values())} records")
    for kind in sorted(kinds):
        print(f"  {kind:15s} {kinds[kind]}")
    triggered.sort(reverse=True)
    print(f"anomalies triggered: {len(triggered)}")
    for combined, t, kind in triggered[:10]:
        print(f"  t={t:8.3f}s  type={kind:15s} combined={combined:.3f}")
    return EXIT_OK


COMMANDS = {
    "generate": cmd_generate,
    "run": cmd_run,
    "train": cmd_train,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command != "run" and args.deterministic:
            raise InvalidConfig(["--deterministic applies only to run"])
        if args.seed < 0:
            raise InvalidConfig([f"--seed must be non-negative, got {args.seed}"])
        config = load_config(args.config)
        return COMMANDS[args.command](args, config)
    except InvalidConfig as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except AvFuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
