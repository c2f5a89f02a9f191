"""Structured reports and run manifests with deterministic bodies.

Report bodies are reproducible across runs: keys are sorted, counterexample
lists come in scan order, and the wall-clock fields (elapsed_ms here, the
manifest timestamp) are the only parts excluded from the determinism digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone

from .permutation import ScanOutcome

VOLATILE_FIELDS = ("elapsed_ms", "timestamp")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def body_digest(obj: dict) -> str:
    """sha256 of the canonical body with wall-clock fields removed."""
    body = {k: v for k, v in obj.items() if k not in VOLATILE_FIELDS}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def outcome_report(outcome: ScanOutcome, params: dict, elapsed_ms: int) -> dict:
    return {
        "scan": outcome.name,
        "n": outcome.n,
        "params": params,
        "counterexamples": outcome.counterexamples,
        "stats": outcome.stats,
        "elapsed_ms": elapsed_ms,
    }


def hash_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def hash_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    params: dict
    version: str
    timestamp: str
    input_hashes: dict
    result_summary: dict
    exit_status: int

    def to_json_obj(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "version": self.version,
            "timestamp": self.timestamp,
            "input_hashes": self.input_hashes,
            "result_summary": self.result_summary,
            "exit_status": self.exit_status,
        }


def make_manifest(
    command: str,
    params: dict,
    version: str,
    input_hashes: dict,
    result_summary: dict,
    exit_status: int,
) -> RunManifest:
    return RunManifest(
        command=command,
        params=params,
        version=version,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        input_hashes=input_hashes,
        result_summary=result_summary,
        exit_status=exit_status,
    )
