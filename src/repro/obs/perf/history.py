"""Append-only JSONL benchmark history keyed by (bench, config hash).

One line per series record
(:meth:`~repro.obs.perf.results.Series.as_record`), plus a
``recorded_at`` wall-clock stamp.  The committed seed lives at
``BENCH_history.jsonl`` in the repo root; ``perf record`` appends one
baseline record per series, ``perf compare`` gates fresh results
against the latest matching record, and the nightly job appends to a
copy so the trajectory (``perf trend``) has a time axis.

Baseline resolution prefers the most recent record taken in the *same*
environment fingerprint; when only foreign-environment records exist the
newest of those is returned with ``env_match=False`` so the caller can
demote absolute-seconds comparisons to informational (shares, ratios,
fractions and counts stay gateable — see :mod:`repro.obs.perf.regress`).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path

#: the committed seed history at the repo root
DEFAULT_HISTORY = "BENCH_history.jsonl"


def config_hash(config: dict) -> str:
    """Stable short digest of a JSON-able config dict (the history key)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def env_fingerprint() -> dict:
    """Where a sample was taken: everything that moves absolute seconds."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def fingerprint_key(env: dict) -> str:
    """Short digest of an environment fingerprint dict."""
    return config_hash({k: env.get(k) for k in
                        ("python", "platform", "cpu_count")})


def git_sha() -> str | None:
    """Current short commit SHA, or ``None`` outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def utc_stamp() -> str:
    """A ``recorded_at`` value: UTC now, to the second."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class History:
    """An append-only JSONL time series of benchmark records."""

    def __init__(self, path: str | Path = DEFAULT_HISTORY) -> None:
        self.path = Path(path)
        #: every record of the file, parsed on first read (see
        #: :meth:`_all`); an :meth:`append` drops it
        self._parsed: list[dict] | None = None

    # -- writing -------------------------------------------------------------

    def append(self, record: dict) -> dict:
        """Append one record and return the dict actually written."""
        record = dict(record)
        record.setdefault("recorded_at", utc_stamp())
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._parsed = None
        return record

    # -- reading -------------------------------------------------------------

    def _all(self) -> list[dict]:
        """Every stored record, in file (time) order, parsed once per
        instance.

        Unparseable lines are skipped — an append-only log must survive a
        torn write without poisoning every future comparison.
        """
        if self._parsed is None:
            self._parsed = []
            if self.path.exists():
                for line in self.path.read_text().splitlines():
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict):
                        self._parsed.append(record)
        return self._parsed

    def records(self, bench: str | None = None,
                config_hash: str | None = None,
                mode: str | None = None) -> list[dict]:
        """Every stored record matching the filters, in file (time) order."""
        return [
            record for record in self._all()
            if (bench is None or record.get("bench") == bench)
            and (config_hash is None
                 or record.get("config_hash") == config_hash)
            and (mode is None or record.get("mode") == mode)
        ]

    def benches(self) -> list[tuple[str, str, str]]:
        """Distinct (bench, mode, config_hash) series present, sorted."""
        seen = {
            (r.get("bench", "?"), r.get("mode", "-"),
             r.get("config_hash", "?"))
            for r in self.records()
        }
        return sorted(seen)

    def baseline(self, bench: str, config_hash: str,
                 env_fingerprint: str | None = None,
                 ) -> tuple[dict | None, bool]:
        """Latest matching record, preferring the same environment.

        Returns ``(record, env_match)``; ``(None, False)`` when the
        series has no history at all (the first-run case: record, don't
        alarm).
        """
        matching = self.records(bench=bench, config_hash=config_hash)
        if not matching:
            return None, False
        if env_fingerprint is not None:
            same_env = [r for r in matching
                        if r.get("env_fingerprint") == env_fingerprint]
            if same_env:
                return same_env[-1], True
        return matching[-1], env_fingerprint is None
