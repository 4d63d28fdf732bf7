"""Peak memory of ``avfuse train``, and of ``avfuse run --deterministic`` as the capture grows.

Usage::

    python3 tools/peak_memory.py [--scales 1 2 4 10] [--work DIR] [--json PATH]

The script renders the seed-1 ``injection`` preset at k times its
``duration_s`` for each scale k, and trains a basic and an advanced model
(``fusion.steps`` 10) on the seed-1 ``training`` preset. For each model it
starts a fresh interpreter that runs that ``avfuse train`` twice, and for
each model and scale one that runs ``avfuse --deterministic run`` on the
capture twice: once untraced, reading ``ru_maxrss`` after it, and once
under ``tracemalloc``, reading its traced peak. It prints one line per
measured command, and with ``--json`` writes the same records to PATH.

Rendering and training run in a child interpreter too. Linux carries a
process's peak RSS across ``fork`` and ``exec``, so this process stays
small: numpy is never imported here.

``--work`` keeps the captures, models and run outputs in DIR, which must not
exist; by default they go to a temporary directory that is removed at the
end. ``OPENBLAS_NUM_THREADS`` is pinned to 1 in every interpreter, so that
BLAS worker threads do not add their stacks to the peak.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

SEED = 1
MODELS = {"basic": {"fusion": {"model": "basic", "steps": 10}},
          "advanced": {"fusion": {"model": "advanced", "steps": 10}}}


def avfuse(*argv) -> None:
    from avfuse.cli import main

    argv = [str(a) for a in argv]
    if main(argv) != 0:
        raise SystemExit(f"avfuse {' '.join(argv)} failed")


def prepare(work: Path, scales: list[int]) -> None:
    """The scaled captures, the training capture and one trained model per kind."""
    from avfuse.scenario import generate_scenario, preset_scenario

    injection = preset_scenario("injection", seed=SEED)
    for k in scales:
        generate_scenario(dataclasses.replace(injection, duration_s=k * injection.duration_s),
                          work / "captures" / f"injection-x{k}")
    generate_scenario(preset_scenario("training", seed=SEED), work / "captures" / "training")
    for kind, config in MODELS.items():
        path = work / "configs" / f"{kind}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(config))
        avfuse("--config", path, "--seed", SEED, "--out", work / "models" / kind,
               "train", work / "captures" / "training")


def measure(out: str, argv: list[str]) -> dict:
    """This interpreter's untraced ``ru_maxrss`` and traced peak of the run ``argv``,
    writing to ``out`` with a suffix per pass."""
    start = time.perf_counter()
    avfuse("--out", out + "-untraced", *argv)
    wall_s = time.perf_counter() - start
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc.start()
    avfuse("--out", out + "-traced", *argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"ru_maxrss_mib": rss_mib, "tracemalloc_peak_mib": peak / 2**20, "wall_s": wall_s}


def report(record: dict, label: str) -> dict:
    print(f"{label}  ru_maxrss {record['ru_maxrss_mib']:7.1f} MiB"
          f"  tracemalloc peak {record['tracemalloc_peak_mib']:6.2f} MiB"
          f"  wall {record['wall_s']:.2f} s", flush=True)
    return record


def run_all(work: Path, scales: list[int]) -> list[dict]:
    records = []
    for kind in MODELS:
        argv = ["--config", work / "configs" / f"{kind}.json", "--seed", SEED,
                "train", work / "captures" / "training"]
        records.append(report({"command": "train", "model": kind, **json.loads(
            child("--measure", work / "trains" / kind, *argv))}, f"{kind:8s} train"))
    for kind in MODELS:
        models = work / "models" / kind
        for k in scales:
            capture = work / "captures" / f"injection-x{k}"
            n_frames = len(json.loads((capture / "manifest.json").read_text())["frames"])
            argv = ["--config", work / "configs" / f"{kind}.json", "--seed", SEED,
                    "--deterministic", "run", capture, "--params", models / "fusion.bin",
                    "--autoencoder", models / "autoencoder.bin"]
            record = {"command": "run", "model": kind, "scale": k, "frames": n_frames,
                      **json.loads(child("--measure", work / "runs" / f"{kind}-x{k}", *argv))}
            records.append(report(record, f"{kind:8s} x{k:<3d} {n_frames:5d} frames"))
    return records


def child(*argv) -> str:
    """The last line a fresh interpreter running this script with ``argv`` prints."""
    done = subprocess.run([sys.executable, __file__, *map(str, argv)],
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def main() -> None:
    if sys.argv[1:2] == ["--prepare"]:
        prepare(Path(sys.argv[2]), [int(k) for k in sys.argv[3:]])
        return
    if sys.argv[1:2] == ["--measure"]:
        print(json.dumps(measure(sys.argv[2], sys.argv[3:])))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", type=int, nargs="+", default=[1, 2, 4, 10])
    parser.add_argument("--work", type=Path)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        work = args.work or Path(scratch) / "work"
        work.mkdir(parents=True)
        child("--prepare", work, *args.scales)
        records = run_all(work, args.scales)
    if args.json:
        args.json.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
