"""Output checks on a written bundle, and its per-artifact digests.

`check_bundle` raises `CheckFailed` on the first defect; the benchmark counts
that run as failed. Digests cover the deterministic artifacts only: every
file but `fed_timings.json`, which holds wall-clock timings.
"""

import csv
import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

NONDETERMINISTIC = frozenset({"fed_timings.json"})


class CheckFailed(Exception):
    pass


def _parse(path: Path):
    """Parse one artifact by its suffix; a parse error is a check failure."""
    text = path.read_text(encoding="utf-8")
    try:
        if path.suffix == ".json":
            return json.loads(text)
        if path.suffix == ".csv":
            return list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
        if path.suffix == ".svg":
            return ET.fromstring(text)
    except (ValueError, ET.ParseError) as exc:
        raise CheckFailed(f"{path.name} does not parse: {exc}") from exc
    raise CheckFailed(f"{path.name}: unknown artifact type")


def _check_metrics(metrics: dict, ids, group_of: dict, name: str) -> None:
    """Accuracy must equal its recomposition from the per-group accuracies and group sizes."""
    sizes = {}
    for i in ids:
        sizes[group_of[i]] = sizes.get(group_of[i], 0) + 1
    if metrics["n"] != len(ids):
        raise CheckFailed(f"{name}: n={metrics['n']} but the test set has {len(ids)} ids")
    per_group = {int(g): v for g, v in metrics["per_group_accuracy"].items()}
    if set(per_group) != set(sizes):
        raise CheckFailed(f"{name}: per-group keys {sorted(per_group)} != groups {sorted(sizes)}")
    correct = 0
    for g, acc in per_group.items():
        hits = round(acc * sizes[g])
        if hits / sizes[g] != acc:
            raise CheckFailed(f"{name}: group {g} accuracy {acc} is not a count over {sizes[g]}")
        correct += hits
    if correct / len(ids) != metrics["accuracy"]:
        raise CheckFailed(f"{name}: accuracy {metrics['accuracy']} != recomposed {correct / len(ids)}")


def check_bundle(bundle_dir: Path) -> None:
    """Every manifest artifact exists and parses; every metrics file recomposes."""
    manifest = _parse(bundle_dir / "manifest.json")
    parsed = {}
    for name in manifest["artifacts"]:
        path = bundle_dir / name
        if not path.is_file():
            raise CheckFailed(f"manifest lists {name}, which is missing")
        parsed[name] = _parse(path)
    header, *rows = parsed["dataset.csv"]
    group_of = {int(r[0]): int(r[1]) for r in rows}
    test_sets = parsed["test_sets.json"]
    for name, key in (("metrics_overlapping.json", "overlapping"),
                      ("metrics_non_overlapping.json", "non_overlapping")):
        _check_metrics(parsed[name], test_sets[key], group_of, name)


def digests(bundle_dir: Path) -> dict:
    """sha256 of each deterministic artifact, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(bundle_dir.iterdir())
            if p.is_file() and p.name not in NONDETERMINISTIC}


def bundle_bytes(bundle_dir: Path) -> int:
    return sum(p.stat().st_size for p in bundle_dir.iterdir() if p.is_file())
