"""Output checks and input digests for the avfuse benchmark.

Pure standard library: nothing here imports avfuse, so the self-test can
exercise every check on hand-made files. Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

STAGES = ("analyze", "detect", "tokenize", "fuse", "score", "sink")
PER_WINDOW_KINDS = ("detection", "track", "classification", "anomaly")
INJECTED_KINDS = ("visual_burst", "audio_burst")


def capture_digest(directory: str | Path) -> str:
    """SHA-256 over every file of a capture directory, names included."""
    directory = Path(directory)
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_capture(directory: str | Path, expected: str) -> list[str]:
    """The capture on disk must be the one rendered for this seed."""
    actual = capture_digest(directory)
    if actual != expected:
        return [f"{directory}: capture digest {actual[:12]} != rendered {expected[:12]}"]
    return []


def read_event_log(path: str | Path) -> tuple[list[dict], list[str]]:
    """Parsed records plus any problem with the file's framing."""
    text = Path(path).read_text()
    problems = []
    if text and not text.endswith("\n"):
        problems.append(f"{path}: last line is not newline-terminated (truncated?)")
    records = []
    for number, line in enumerate(text.splitlines(), 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"{path}:{number}: not JSON ({exc.msg})")
            continue
        if not isinstance(record, dict) or set(record) != {"t", "window", "kind", "payload"}:
            problems.append(f"{path}:{number}: record keys are not t/window/kind/payload")
            continue
        records.append(record)
    return records, problems


def check_event_log(path: str | Path, n_windows: int) -> list[str]:
    """A complete, drop-free log: every window has each per-window record
    once, and each stage's metric record reports all windows processed."""
    records, problems = read_event_log(path)
    seen: dict[tuple[int, str], int] = {}
    stage_metrics: dict[str, dict] = {}
    for record in records:
        if record["kind"] == "metric":
            stage_metrics[record["payload"].get("stage")] = record["payload"]
        else:
            key = (record["window"], record["kind"])
            seen[key] = seen.get(key, 0) + 1
    missing = [w for w in range(n_windows)
               if any(seen.get((w, kind), 0) != 1 for kind in PER_WINDOW_KINDS)]
    if missing:
        problems.append(f"{path}: {len(missing)} windows lack a complete record set "
                        f"(first: {missing[0]})")
    extra = sorted({w for w, _ in seen if not 0 <= w < n_windows})
    if extra:
        problems.append(f"{path}: records for windows outside [0, {n_windows}): {extra[:5]}")
    for stage in STAGES:
        m = stage_metrics.get(stage)
        if m is None:
            problems.append(f"{path}: no metric record for stage {stage}")
        elif m.get("processed") != n_windows or m.get("dropped") != 0:
            problems.append(f"{path}: stage {stage} processed {m.get('processed')} "
                            f"dropped {m.get('dropped')} of {n_windows}")
    return problems


def check_summary(summary: dict, n_windows: int, deterministic: bool) -> list[str]:
    """Queue accounting; a deterministic run must also process every window."""
    problems = []
    if not summary.get("accounting_ok"):
        problems.append("summary: queue accounting mismatch")
    ingested = summary.get("windows_ingested")
    processed = summary.get("windows_processed")
    dropped = sum(summary.get("drops", {}).values())
    if ingested != n_windows:
        problems.append(f"summary: ingested {ingested} of {n_windows} windows")
    if deterministic:
        if processed != ingested:
            problems.append(f"summary: processed {processed} != ingested {ingested}")
        if dropped:
            problems.append(f"summary: {dropped} windows dropped in a deterministic run")
    elif processed is None or processed + dropped != ingested:
        problems.append(f"summary: processed {processed} + dropped {dropped} != ingested {ingested}")
    return problems


def check_identical(digests: list[str], what: str) -> list[str]:
    if len(set(digests)) > 1:
        return [f"{what} differs across repetitions: {[d[:12] for d in digests]}"]
    return []


def injected_windows(scenario: dict) -> set[int]:
    return {w for inj in scenario.get("injections", []) if inj["kind"] in INJECTED_KINDS
            for w in range(inj["window_start"], inj["window_end"] + 1)}


def detection_outcome(events_path: str | Path, scenario: dict) -> dict:
    """Triggered windows split into injected hits and false alarms; how well
    the combined anomaly score ranks injected above normal windows; and its
    mean over injected and over normal windows."""
    records, _ = read_event_log(events_path)
    scores = {r["window"]: r["payload"]["combined"] for r in records if r["kind"] == "anomaly"}
    triggered = sorted({r["window"] for r in records
                        if r["kind"] == "anomaly" and r["payload"].get("triggered")})
    injected = injected_windows(scenario)
    hits = [w for w in triggered if w in injected]
    injected_scores = [v for w, v in scores.items() if w in injected]
    normal_scores = [v for w, v in scores.items() if w not in injected]
    # Area under the ROC curve: the chance that an injected window outscores
    # a normal one, ties counting half.
    pairs = [(a > b) + 0.5 * (a == b) for a in injected_scores for b in normal_scores]
    return {
        "triggered": triggered,
        "injected_hits": len(hits),
        "false_alarms": len(triggered) - len(hits),
        "anomaly_auc": sum(pairs) / max(len(pairs), 1),
        "injected_score": sum(injected_scores) / max(len(injected_scores), 1),
        "normal_score": sum(normal_scores) / max(len(normal_scores), 1),
    }
