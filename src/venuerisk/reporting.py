"""Report files, run manifests, and atomic output writing.

Reports are JSON (summary, comparison) and CSV (per-venue results,
histogram bins). Floats are serialized with Python's shortest
round-trip ``repr``, JSON keys are sorted, and CSV rows follow the
input venue order, so identical runs produce byte-identical report
files. Each CSV text is rendered by
:func:`~venuerisk.ingest.render_table` from the report's columns: the
number columns are passed as Python numbers, not as text.

Every output file names the manifest hash that produced it: CSV files
carry a leading ``# manifest_sha256: ...`` comment, JSON files a
``manifest_sha256`` key. The hash covers the deterministic manifest
payload (tool version, input digests, resolved parameters, scenario
configs; for generated data, the generator config); the run timestamp
is stored in the manifest but excluded from the hash so reruns on
identical inputs stay comparable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .epi import EpiParams
from .ingest import (
    HISTOGRAM_COLUMNS,
    MANIFEST_COMMENT,
    VENUE_RESULT_COLUMNS,
    VenueTable,
    compute_volumes,
    render_table,
)
from .scenario import ScenarioConfig
from .stats import Histogram, severity_labels

TOOL_VERSION = "0.1.0"
# characters per write of a report file: each slice is copied and encoded on its own
_WRITE_SLICE_CHARS = 1 << 20


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def dump_json(obj) -> str:
    """Strict JSON: a NaN or infinity raises ValueError instead of being written."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def hashed_manifest(payload: dict, timestamp: str | None = None) -> dict:
    """Return ``payload`` with the tool version, a run timestamp and a sha256 hash added.

    The hash is of the canonical JSON of ``payload`` and the tool
    version. The timestamp (now, unless given) is not hashed, so reruns
    on identical inputs share a hash.
    """
    payload = {"tool_version": TOOL_VERSION, **payload}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {
        **payload,
        "timestamp": timestamp,
        "manifest_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }


def build_manifest(
    input_paths: Iterable[str | Path],
    params: EpiParams,
    scenario_configs: Iterable[ScenarioConfig],
    timestamp: str | None = None,
) -> dict:
    """Assemble the manifest for a run over the given input files."""
    digests = {p: sha256_file(p) for p in sorted({str(p) for p in input_paths})}
    payload = {
        "input_file_digests": digests,
        "resolved_params": dataclasses.asdict(params),
        "scenario_configs": [dataclasses.asdict(c) for c in scenario_configs],
    }
    return hashed_manifest(payload, timestamp)


def write_reports(out_dir: str | Path, reports: Mapping[str, str]) -> Path:
    """Create ``out_dir`` and atomically write each ``{file name: text}`` report into it."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in reports.items():
        atomic_write_text(out_dir / name, text)
    return out_dir


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file + rename so partial outputs never survive.

    The text goes to the file in slices of ``_WRITE_SLICE_CHARS``
    characters, so no encoded copy of the whole text is made beside it.
    The file gets the usual ``0o666 & ~umask`` mode; ``mkstemp`` alone
    would leave it ``0o600``.
    """
    path = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            for start in range(0, len(text), _WRITE_SLICE_CHARS):
                handle.write(text[start:start + _WRITE_SLICE_CHARS])
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def venue_results_csv(
    venues: VenueTable,
    weekly: np.ndarray,
    params: EpiParams,
    severity_threshold: float,
    manifest_hash: str,
) -> str:
    """Render the per-venue report CSV: one row per venue of ``venues``, in its order.

    Volumes come from ``params.ceiling_height``, and each venue's
    severity from :func:`~venuerisk.stats.severity_labels` at
    ``severity_threshold``.
    """
    volumes = compute_volumes(venues.areas, params.ceiling_height)
    labels = severity_labels(weekly, severity_threshold)
    columns = [
        venues.ids, venues.names, venues.categories,
        *(column.tolist() for column in (venues.areas, volumes, weekly, labels)),
    ]
    return render_table(VENUE_RESULT_COLUMNS, columns, [MANIFEST_COMMENT.format(manifest_hash)])


def histogram_csv(hist: Histogram, manifest_hash: str) -> str:
    """Render plot-ready histogram bins with provenance comments."""
    edges = hist.bin_edges
    comments = [
        MANIFEST_COMMENT.format(manifest_hash),
        f"scale: {hist.scale.value}, excluded_count: {hist.excluded_count}",
    ]
    return render_table(HISTOGRAM_COLUMNS, [edges[:-1], edges[1:], hist.counts], comments)
