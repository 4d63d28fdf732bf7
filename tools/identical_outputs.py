"""Render every deterministic output a behaviour-preserving change must keep.

Usage::

    python3 tools/identical_outputs.py OUT

OUT must not exist. The script renders the ``injection`` and ``training``
presets at seed 5, trains a basic and an advanced model on ``training``
(``fusion.steps`` 10) and runs ``--deterministic`` on ``injection`` with
each model kind, untrained and trained, threaded and ``--single-thread``.
Every ``summary.json`` is deleted because it holds wall-clock timings, so
what stays under OUT is bytes the program promises to reproduce:

    OUT/captures/<preset>/     the rendered captures
    OUT/models/<kind>/         fusion.bin and autoencoder.bin
    OUT/runs/<kind>-<trained|untrained>-<threaded|single-thread>/
                               events.jsonl and anomalies/

Render OUT once from each of two checkouts and compare with
``diff -r OUT_A OUT_B``. ``OPENBLAS_NUM_THREADS`` is pinned to 1 before
numpy loads, because a multi-threaded BLAS may sum in a different order.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from avfuse.cli import main  # noqa: E402

SEED = 5


def avfuse(*argv) -> None:
    argv = [str(a) for a in argv]
    if main(argv) != 0:
        raise SystemExit(f"avfuse {' '.join(argv)} failed")


def render(out: Path) -> None:
    captures = out / "captures"
    for preset in ("injection", "training"):
        avfuse("--seed", SEED, "--out", captures / preset, "generate", "--preset", preset)
    for kind in ("basic", "advanced"):
        config = out / f"config-{kind}.json"
        config.write_text(json.dumps({"fusion": {"model": kind, "steps": 10}}) + "\n")
        models = out / "models" / kind
        common = ["--config", config, "--seed", SEED]
        avfuse(*common, "--out", models, "train", captures / "training")
        for trained in ("untrained", "trained"):
            model_args = (["--params", models / "fusion.bin",
                           "--autoencoder", models / "autoencoder.bin"]
                          if trained == "trained" else [])
            for mode, mode_args in (("threaded", []), ("single-thread", ["--single-thread"])):
                run_dir = out / "runs" / f"{kind}-{trained}-{mode}"
                avfuse(*common, "--out", run_dir, "--deterministic", "run",
                       captures / "injection", *model_args, *mode_args)
                (run_dir / "summary.json").unlink()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    target = Path(sys.argv[1])
    if target.exists():
        raise SystemExit(f"{target} already exists")
    render(target)
