"""Benchmark steps that run avfuse, each in a fresh interpreter.

``run.py`` starts one of these subcommands at a time and reads the JSON it
writes to ``--result``. Keeping the program out of ``run.py``'s process
means peak memory, set-up time and patched-in tracing belong to one step.

    prepare      build scenario JSON from the seed, render it with
                 ``avfuse generate --scenario``, train set-up models
    probe        time from interpreter start until a run could begin
    measure-run  ``avfuse run`` repetitions (or one traced pass)
    measure-train  ``avfuse train`` repetitions (or one traced pass)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    capture_digest,
    check_capture,
    check_event_log,
    check_identical,
    check_summary,
    detection_outcome,
    file_digest,
)

PRESETS = ("injection", "training")
MIN_REPS = 2  # byte-identity across repetitions needs two


class Ledger:
    """Operations attempted and the problems found in them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def cli(argv: list[str]) -> tuple[int, float]:
    """Exit code and wall seconds of one in-process ``avfuse`` command."""
    from avfuse.cli import main

    start = time.perf_counter()
    code = main([str(a) for a in argv])
    return code, time.perf_counter() - start


def n_frames(capture: Path) -> int:
    return len(json.loads((capture / "manifest.json").read_text())["frames"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def cmd_prepare(args) -> dict:
    from avfuse.scenario import preset_scenario

    work = Path(args.work)
    out = {"captures": {}, "windows": {}, "train_s": None, "versions": versions()}
    for preset in PRESETS:
        scenario_path = work / "scenarios" / f"{preset}.json"
        scenario_path.parent.mkdir(parents=True, exist_ok=True)
        scenario = preset_scenario(preset, seed=args.seed)
        scenario_path.write_text(json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n")
        capture = work / preset
        code, _ = cli(["--seed", args.seed, "--out", capture, "generate", "--scenario", scenario_path])
        if code != 0:
            raise SystemExit(f"generate {preset} exited {code}")
        out["captures"][preset] = capture_digest(capture)
        out["windows"][preset] = n_frames(capture)
    if args.train_models:
        code, wall = cli(["--config", args.config, "--seed", args.seed, "--out", work / "models",
                          "train", work / "training"])
        if code != 0:
            raise SystemExit(f"set-up train exited {code}")
        out["train_s"] = wall
    return out


def cmd_probe(args) -> dict:
    """Mirror run_pipeline's set-up through the public functions it calls."""
    from avfuse.anomaly import load_autoencoder
    from avfuse.config import load_config
    from avfuse.fusion import load_model
    from avfuse.io import load_capture
    from avfuse.pipeline import PipelineContext
    from avfuse.scenario import Scenario
    from avfuse.timebase import align_audio_to_frames, validate_burst

    capture = Path(args.capture)
    config = load_config(args.config)
    scenario = Scenario.from_json(capture / "scenario.json")
    burst, clip = load_capture(capture)
    if not validate_burst(burst).ok:
        raise SystemExit("probe: invalid burst")
    align_audio_to_frames(burst, clip)
    bundle = load_model(args.params) if args.params else None
    autoencoder = load_autoencoder(args.autoencoder) if args.autoencoder else None
    PipelineContext(config, scenario, clip.sample_rate, model_bundle=bundle,
                    autoencoder=autoencoder, seed=args.seed)
    return {"ready_monotonic": time.monotonic()}


class RunJob:
    """One workload's ``avfuse run`` invocations over the injection capture."""

    def __init__(self, args, ledger: Ledger, params: Path, autoencoder: Path):
        self.args = args
        self.ledger = ledger
        self.work = Path(args.work)
        self.capture = self.work / "injection"
        self.n = n_frames(self.capture)
        self.model_args = ["--params", params, "--autoencoder", autoencoder]
        self.count = 0

    def run(self, label: str, deterministic: bool, single_thread: bool = False) -> dict:
        self.count += 1
        out = self.work / "runs" / f"{self.count:02d}-{label}"
        argv = ["--config", self.args.config, "--seed", self.args.seed, "--out", out]
        if deterministic:
            argv.append("--deterministic")
        argv += ["run", self.capture, *self.model_args]
        if single_thread:
            argv.append("--single-thread")
        code, wall = cli(argv)
        result = {"wall_s": wall, "out": out, "events_sha": None, "summary": {}}
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            result["summary"] = json.loads((out / "summary.json").read_text())
            problems += check_summary(result["summary"], self.n, deterministic)
            if deterministic:
                problems += check_event_log(out / "events.jsonl", self.n)
            result["events_sha"] = file_digest(out / "events.jsonl")
        result["ok"] = self.ledger.record(f"run {out.name}", problems)
        result["rate"] = result["summary"].get("windows_processed", 0) / wall
        return result

    def dropped_ratio(self) -> float:
        """Share shed by one run with default flags (also the warm-up)."""
        summary = self.run("default", deterministic=False)["summary"]
        return sum(summary.get("drops", {}).values()) / max(summary.get("windows_ingested", 0), 1)

    def check_identical(self, results: list[dict], what: str) -> None:
        shas = [r["events_sha"] for r in results if r["events_sha"]]
        self.ledger.record(what, check_identical(shas, "events.jsonl"))

    def outcome(self, result: dict) -> dict:
        """Hits and false alarms of a deterministic run (zeros if it failed)."""
        if not result["ok"]:
            return {"triggered": [], "injected_hits": 0, "false_alarms": 0,
                    "anomaly_auc": 0.0, "injected_score": 0.0, "normal_score": 0.0}
        scenario = json.loads((self.capture / "scenario.json").read_text())
        return detection_outcome(result["out"] / "events.jsonl", scenario)


def check_inputs(args, ledger: Ledger) -> dict:
    prepared = json.loads((Path(args.work) / "prepare.json").read_text())
    for preset, digest in prepared["captures"].items():
        ledger.record(f"capture {preset}", check_capture(Path(args.work) / preset, digest))
    return prepared


def repeat(seconds: float, step) -> list:
    results = []
    start = time.perf_counter()
    while len(results) < MIN_REPS or time.perf_counter() - start < seconds:
        results.append(step(len(results)))
    return results


def cmd_measure_run(args) -> dict:
    ledger = Ledger()
    check_inputs(args, ledger)
    models = Path(args.work) / "models"
    job = RunJob(args, ledger, models / "fusion.bin", models / "autoencoder.bin")
    dropped = job.dropped_ratio()
    if not args.trace:
        reps = repeat(args.seconds, lambda k: job.run(f"rep{k}", deterministic=True))
        job.check_identical(reps, "deterministic repetitions")
        check_inputs(args, ledger)
        return {"rates": [r["rate"] for r in reps], "dropped_ratio": dropped,
                "outcome": job.outcome(reps[0]), "peak_rss_mb": peak_rss_mb(), **ledger.as_dict()}

    from tracing import Tracer

    untraced = job.run("untraced", deterministic=True)
    tracer = Tracer()
    with tracer.installed():
        traced = job.run("traced", deterministic=True)
    inline = job.run("inline", deterministic=True, single_thread=True)
    job.check_identical([untraced, traced, inline], "threaded, traced and inline runs")
    return traced_result(args, ledger, tracer, traced, untraced,
                         rates=(untraced["rate"], inline["rate"]))


def traced_result(args, ledger: Ledger, tracer, traced: dict, untraced: dict,
                  rates: tuple[float, float]) -> dict:
    """Per-layer metrics of the traced pass; the spans go to trace.jsonl."""
    from layers import summarize

    layers = summarize(tracer.spans, tracer.queue_puts, traced["wall_s"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    layers["pipeline.threaded_windows_per_s"], layers["pipeline.inline_windows_per_s"] = rates
    trace_path = tracer.write(Path(args.work) / "trace.jsonl")
    return {"layers": layers, "trace_path": str(trace_path), **ledger.as_dict()}


def reload_problems(model_dir: Path, advanced: bool) -> list[str]:
    """``train`` outputs must load back through the program's loaders."""
    import avfuse.anomaly
    import avfuse.fusion
    from avfuse.errors import AvFuseError

    try:
        model, _ = avfuse.fusion.load_model(model_dir / "fusion.bin")
        autoencoder = avfuse.anomaly.load_autoencoder(model_dir / "autoencoder.bin")
    except (AvFuseError, OSError, KeyError, ValueError) as exc:
        return [f"reload failed: {exc}"]
    problems = []
    if isinstance(model, avfuse.fusion.AdvancedFusionModel) != advanced:
        problems.append(f"reloaded {type(model).__name__}, expected advanced={advanced}")
    if not math.isfinite(autoencoder.training_mse):
        problems.append("reloaded autoencoder has a non-finite training_mse")
    return problems


def cmd_measure_train(args) -> dict:
    from avfuse.config import load_config

    ledger = Ledger()
    prepared = check_inputs(args, ledger)
    work = Path(args.work)
    advanced = load_config(args.config).fusion.model == "advanced"

    def train(label: str) -> dict:
        out = work / "train" / label
        code, wall = cli(["--config", args.config, "--seed", args.seed, "--out", out,
                          "train", work / "training"])
        problems = [f"exit code {code}"] if code else reload_problems(out, advanced)
        return {"wall_s": wall, "out": out, "ok": ledger.record(f"train {label}", problems)}

    if args.trace:
        from tracing import Tracer

        untraced = train("untraced")
        tracer = Tracer()
        with tracer.installed():
            traced = train("traced")
        return traced_result(args, ledger, tracer, traced, untraced, rates=(0.0, 0.0))

    reps = repeat(args.seconds, lambda k: train(f"rep{k}"))
    # Evaluate what training produced: detection quality and shedding of a
    # run that uses the last repetition's models (outside the timed region).
    models = reps[-1]["out"]
    job = RunJob(args, ledger, models / "fusion.bin", models / "autoencoder.bin")
    evaluated = job.run("eval", deterministic=True)
    dropped = job.dropped_ratio()
    check_inputs(args, ledger)
    return {"train_walls": [r["wall_s"] for r in reps],
            "windows": prepared["windows"]["training"], "dropped_ratio": dropped,
            "outcome": job.outcome(evaluated), "peak_rss_mb": peak_rss_mb(),
            **ledger.as_dict()}


COMMANDS = {
    "prepare": cmd_prepare,
    "probe": cmd_probe,
    "measure-run": cmd_measure_run,
    "measure-train": cmd_measure_train,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--config", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--train-models", action="store_true")
    parser.add_argument("--capture", type=Path)
    parser.add_argument("--params", type=Path)
    parser.add_argument("--autoencoder", type=Path)
    args = parser.parse_args(argv)
    result = COMMANDS[args.command](args)
    args.result.write_text(json.dumps(result, default=str, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
