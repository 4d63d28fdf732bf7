"""avfuse benchmark: one workload, one seed, checked outputs, one JSON line.

    python3 perfbench/run.py --workload injection-basic --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. It builds the inputs from the
seed (outside any timed region), runs the workload through
``perfbench/worker.py`` in fresh interpreters, checks every output, prints
each metric by name with its unit and sample count, and ends with one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the traced pass and
reports the per-layer metrics. Exit code 0 means every check passed, 1 that
a check failed, 2 that the checkout holds no avfuse sources.

This process starts no threads of its own and runs one worker at a time,
so each workload is a closed loop with one client.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import per_layer_names  # noqa: E402

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "injection-basic": {"kind": "run", "config": {}},
    "fusion-advanced": {"kind": "run", "config": {
        "fusion": {"model": "advanced", "burst_tokens": 32, "steps": 10}}},
    "train-advanced": {"kind": "train", "config": {
        "fusion": {"model": "advanced", "steps": 10}}},
}

END_TO_END = (
    ("setup_s", "s"),
    ("windows_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("dropped_ratio", "ratio"),
    ("anomaly_auc", "ratio"),
    ("injected_score", "score"),
    ("normal_score", "score"),
)

SETUP_PROBES = 7
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


class Bench:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}"
        self.deadline = time.monotonic() + DEADLINE_S
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}

    def worker(self, command: str, *extra, **options) -> dict:
        """Run one worker step to completion; its JSON result."""
        result_path = self.work / f"{command}.json"
        argv = [sys.executable, str(HERE / "worker.py"), command, "--result", str(result_path),
                "--work", str(self.work), "--config", str(self.work / "config.json"),
                "--seed", str(self.args.seed), *map(str, extra)]
        for key, value in options.items():
            argv += [f"--{key}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerFailed(f"{command}: out of time before it started")
        try:
            done = subprocess.run(argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{command}: timed out") from None
        if done.returncode != 0:
            raise WorkerFailed(f"{command}: exit code {done.returncode}")
        return json.loads(result_path.read_text())

    def setup_s(self) -> list[float]:
        """Fresh interpreter to ready pipeline, timed across the process start."""
        if self.spec["kind"] == "run":
            models = self.work / "models"
            where = dict(capture=self.work / "injection", params=models / "fusion.bin",
                         autoencoder=models / "autoencoder.bin")
        else:
            where = dict(capture=self.work / "training")
        times = []
        for _ in range(SETUP_PROBES):
            start = time.monotonic()
            ready = self.worker("probe", **where)["ready_monotonic"]
            times.append(ready - start)
        return times

    def provenance(self, prepared: dict) -> dict:
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
        return {"workload": self.args.workload, "seed": self.args.seed,
                "capture_sha256": prepared["captures"], "git_commit": commit,
                "source_sha256": digest.hexdigest(), **prepared["versions"]}

    def execute(self) -> tuple[dict, dict]:
        """The measuring step's result and {metric: (value, unit, sample note)}."""
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        (self.work / "config.json").write_text(json.dumps(self.spec["config"]) + "\n")
        is_run = self.spec["kind"] == "run"
        prepared = self.worker("prepare", *(["--train-models"] if is_run else []))
        print("provenance " + json.dumps(self.provenance(prepared), sort_keys=True))
        command = "measure-run" if is_run else "measure-train"

        if self.args.trace:
            measured = self.worker(command, seconds=self.args.seconds, trace=1)
            print(f"trace written to {measured['trace_path']}")
            units = dict(per_layer_names())
            metrics = {name: (measured["layers"][name], unit, "traced pass")
                       for name, unit in units.items()}
            return measured, metrics

        setup = self.setup_s()
        measured = self.worker(command, seconds=self.args.seconds, trace=0)
        outcome = measured["outcome"]
        if is_run:
            rates = measured["rates"]
            windows_per_s = (statistics.median(rates), f"median of {len(rates)} runs")
            train_s = (prepared["train_s"], "1 set-up train")
        else:
            walls = measured["train_walls"]
            median = statistics.median(walls)
            train_s = (median, f"median of {len(walls)} trains")
            windows_per_s = (measured["windows"] / median,
                             f"{measured['windows']} training windows / median train_s")
        values = {
            "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
            "windows_per_s": windows_per_s,
            "peak_rss_mb": (measured["peak_rss_mb"], "1 process"),
            "dropped_ratio": (measured["dropped_ratio"], "1 run with default flags"),
            "anomaly_auc": (outcome["anomaly_auc"], "injected vs other windows of 1 run"),
            "injected_score": (outcome["injected_score"], "mean over injected windows of 1 run"),
            "normal_score": (outcome["normal_score"], "mean over other windows of 1 run"),
        }
        metrics = {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}
        # Printed, not gated (see README.md): failed_ratio is 0 whenever the
        # checks pass, the exact detection counts swing with the seed, and
        # train_s is gated as windows_per_s on train-advanced.
        attempted = max(measured["attempted"], 1)
        for name, value, unit, note in (
            ("train_s", train_s[0], "s", train_s[1]),
            ("failed_ratio", measured["failed"] / attempted, "ratio",
             f"{measured['failed']} of {attempted} operations"),
            ("injected_hits", outcome["injected_hits"], "count",
             f"1 deterministic run, triggered {outcome['triggered']}"),
            ("false_alarms", outcome["false_alarms"], "count", "1 deterministic run"),
        ):
            print(f"  {name:40s} {value:.6g} {unit}   ({note})")
        return measured, metrics

    def cleanup(self) -> None:
        """Keep the trace and step results; drop captures, models and run outputs."""
        if not self.work.exists():
            return
        for path in self.work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "avfuse" / "cli.py").is_file():
        print(f"perfbench: no avfuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    bench = Bench(args)
    try:
        measured, metrics = bench.execute()
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        measured, metrics = {"attempted": 1, "failed": 1, "problems": [str(exc)]}, {}
    finally:
        bench.cleanup()

    for name, (value, unit, note) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}   ({note})")
    for problem in measured["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = measured["failed"] == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(measured["attempted"], 1),
        "failed": measured["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
