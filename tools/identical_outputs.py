"""Render every deterministic output a behaviour-preserving change must keep.

Usage::

    python3 tools/identical_outputs.py OUT
    python3 tools/identical_outputs.py --manifest OUT
    python3 tools/identical_outputs.py --compare OUT_A OUT_B

OUT must not exist. The script renders the ``canonical``, ``injection``
and ``training`` presets at seed 5, trains a basic and an advanced model on
``training`` (``fusion.steps`` 10) and runs ``--deterministic`` on
``injection`` with each model kind, untrained and trained. One more run,
of the untrained basic model on ``canonical`` with ``--export-features``,
covers the feature dump. ``--single-thread`` runs the same path, so it is
not rendered again. Every ``summary.json`` is deleted because it holds
wall-clock timings, so what stays under OUT is bytes the program promises
to reproduce:

    OUT/captures/<preset>/     the rendered captures
    OUT/models/<kind>/         fusion.bin and autoencoder.bin
    OUT/runs/<kind>-<trained|untrained>-threaded/
                               events.jsonl and anomalies/
    OUT/runs/basic-untrained-export/
                               events.jsonl, and under features/ the
                               flow_*.csv, spectrogram.csv and scalogram.csv

Render OUT once from each of two checkouts and compare with
``diff -r OUT_A OUT_B``. ``OPENBLAS_NUM_THREADS`` is pinned to 1 before
numpy loads, because a multi-threaded BLAS may sum in a different order.

``--manifest`` renders OUT the same way and prints one ``sha256 size
path`` line per file, sorted by path, under a header naming the numpy and
BLAS versions. ``tests/golden/identical_outputs.sha256`` is that output;
a change that alters an output byte on purpose regenerates it with
``--manifest OUT > tests/golden/identical_outputs.sha256``.

``--compare`` checks two rendered trees within stated tolerances, for a
change that alters float arithmetic on purpose. Both trees must hold the
same files. Floats in ``events.jsonl`` and ``report.json`` must agree to
a relative ``JSON_RTOL``, and every other JSON value (records, kinds,
triggers, labels) must be equal. The tensors in ``fusion.bin`` and
``autoencoder.bin`` must have the same names and shapes, and each value
must agree to a relative ``TENSOR_RTOL``. A relative gap is the
difference over the larger magnitude of the two values. Every other file,
the captures included, must be byte-identical. Every file outside the
bounds is printed, one line each, with its largest gap and where it
occurs, and the exit status is 1.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from avfuse.cli import main  # noqa: E402
from avfuse.errors import InvalidInput  # noqa: E402
from avfuse.tensor import load_tensors  # noqa: E402

SEED = 5
JSON_RTOL = 1e-12
TENSOR_RTOL = 1e-8
TENSOR_FILES = ("fusion.bin", "autoencoder.bin")


def avfuse(*argv) -> None:
    argv = [str(a) for a in argv]
    if main(argv) != 0:
        raise SystemExit(f"avfuse {' '.join(argv)} failed")


def render(out: Path) -> None:
    captures = out / "captures"
    for preset in ("canonical", "injection", "training"):
        avfuse("--seed", SEED, "--out", captures / preset, "generate", "--preset", preset)
    export_run = out / "runs" / "basic-untrained-export"
    avfuse("--seed", SEED, "--out", export_run, "--deterministic", "run", captures / "canonical",
           "--export-features", export_run / "features")
    (export_run / "summary.json").unlink()
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
            run_dir = out / "runs" / f"{kind}-{trained}-threaded"
            avfuse(*common, "--out", run_dir, "--deterministic", "run",
                   captures / "injection", *model_args)
            (run_dir / "summary.json").unlink()


def versions() -> str:
    """The numpy and BLAS builds that rendered a tree; other builds may round differently."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"


def manifest(tree: Path) -> str:
    """A header naming :func:`versions`, then ``sha256 size path`` per file, sorted by path."""
    files = sorted((p.relative_to(tree).as_posix(), p) for p in tree.rglob("*") if p.is_file())
    lines = [f"# {versions()}"]
    for relative, path in files:
        data = path.read_bytes()
        lines.append(f"{hashlib.sha256(data).hexdigest()} {len(data)} {relative}")
    return "".join(line + "\n" for line in lines)


def json_gaps(a, b, field: str):
    """Every place two parsed JSON values differ beyond ``JSON_RTOL``, as (gap, where).

    A difference other than between two floats has an infinite gap.
    """
    if isinstance(a, float) and isinstance(b, float):
        if not (a == b or abs(a - b) <= JSON_RTOL * max(abs(a), abs(b))):
            yield abs(a - b) / max(abs(a), abs(b)), f"{field}: {a!r} vs {b!r}"
        return
    if type(a) is not type(b):
        yield float("inf"), f"{field}: {a!r} vs {b!r}"
        return
    if isinstance(a, dict):
        if a.keys() != b.keys():
            yield float("inf"), f"{field}: keys {sorted(a)} vs {sorted(b)}"
            return
        items = ((f"{field}.{key}", a[key], b[key]) for key in a)
    elif isinstance(a, list):
        if len(a) != len(b):
            yield float("inf"), f"{field}: {len(a)} vs {len(b)} entries"
            return
        items = ((f"{field}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b)))
    else:
        if a != b:
            yield float("inf"), f"{field}: {a!r} vs {b!r}"
        return
    for name, x, y in items:
        yield from json_gaps(x, y, name)


def tensor_gaps(name: str, x: np.ndarray, y: np.ndarray):
    """The largest relative gap of one tensor outside ``TENSOR_RTOL``, as (gap, where, count)."""
    if x.shape != y.shape:
        yield float("inf"), f"{name}: shape {x.shape} vs {y.shape}", 1
        return
    outside = np.abs(x - y) > TENSOR_RTOL * np.maximum(np.abs(x), np.abs(y))
    if outside.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            gaps = np.where(outside, np.abs(x - y) / np.maximum(np.abs(x), np.abs(y)), 0.0)
        at = tuple(int(i) for i in np.unravel_index(np.argmax(gaps), x.shape))
        yield (float(gaps[at]), f"{name}{list(at)}: {float(x[at])!r} vs {float(y[at])!r}",
               int(outside.sum()))


def file_gaps(a: Path, b: Path) -> list[tuple[float, str, int]]:
    """Where two files of the same relative path differ beyond the bounds, as (gap, where, count)."""
    if a.name == "events.jsonl":
        lines_a, lines_b = a.read_text().splitlines(), b.read_text().splitlines()
        if len(lines_a) != len(lines_b):
            return [(float("inf"), f"{len(lines_a)} vs {len(lines_b)} records", 1)]
        return [(gap, where, 1) for number, (x, y) in enumerate(zip(lines_a, lines_b), 1)
                for gap, where in json_gaps(json.loads(x), json.loads(y), f"line {number}")]
    if a.name == "report.json":
        return [(gap, where, 1) for gap, where in
                json_gaps(json.loads(a.read_text()), json.loads(b.read_text()), "report")]
    if a.name in TENSOR_FILES:
        tensors_a, tensors_b = load_tensors(a), load_tensors(b)
        if tensors_a.keys() != tensors_b.keys():
            return [(float("inf"), f"tensors {sorted(tensors_a)} vs {sorted(tensors_b)}", 1)]
        return [gap for name, x in tensors_a.items() for gap in tensor_gaps(name, x, tensors_b[name])]
    return [] if a.read_bytes() == b.read_bytes() else [(float("inf"), "bytes differ", 1)]


def describe(gaps: list[tuple[float, str, int]]) -> str:
    """A file's largest gap and where it occurs, and how many values left the bounds."""
    gap, where, _ = max(gaps, key=lambda g: g[0])
    count = sum(g[2] for g in gaps)
    text = where if gap == float("inf") else f"{where}, relative gap {gap:.3g}"
    return text if count == 1 else f"{text} (largest of {count} outside the bounds)"


def compare(a: Path, b: Path) -> list[str]:
    """One line per file where tree ``b`` leaves tree ``a``'s bounds; empty when none does."""
    files = [sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file()) for root in (a, b)]
    found = [f"file lists differ: {only} is in only one tree"
             for only in sorted(set(files[0]) ^ set(files[1]))]
    for relative in sorted(set(files[0]) & set(files[1])):
        try:
            gaps = file_gaps(a / relative, b / relative)
        except (ValueError, InvalidInput) as exc:  # ValueError covers bad JSON
            gaps = [(float("inf"), f"unreadable ({exc})", 1)]
        if gaps:
            found.append(f"{relative}: {describe(gaps)}")
    return found


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        trees = [Path(arg) for arg in sys.argv[2:]]
        for tree in trees:
            if not tree.is_dir():
                raise SystemExit(f"{tree} is not a directory")
        differences = compare(*trees)
        if differences:
            raise SystemExit(f"outside the bounds in {len(differences)} files:\n"
                             + "\n".join(differences))
        print(f"within the bounds: floats to {JSON_RTOL:g} relative, tensors to {TENSOR_RTOL:g}")
        raise SystemExit(0)
    listing = len(sys.argv) == 3 and sys.argv[1] == "--manifest"
    if len(sys.argv) != 2 and not listing:
        raise SystemExit(__doc__)
    target = Path(sys.argv[-1])
    if target.exists():
        raise SystemExit(f"{target} already exists")
    if listing:
        with redirect_stdout(sys.stderr):  # the commands' own output
            render(target)
        sys.stdout.write(manifest(target))
    else:
        render(target)
