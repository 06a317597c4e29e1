"""Append-only JSONL logs: one writer and one reader contract.

The run ledger (``ledger.jsonl``, :mod:`repro.perf.ledger`) and the
serve job journal (``jobs.jsonl``, :mod:`repro.serve.journal`) are
both one self-describing JSON object per line, and share:

- **best-effort appends** — a log observes a run, it must never fail
  one: an environment variable set to ``0``/``false``/``no`` opts
  out, the directory is created on demand, and a filesystem error is
  reported as ``False`` instead of raised;
- **byte-stable lines** — sorted keys, compact separators, so a
  crashed writer corrupts at most its own line;
- **the ``recorded_unix``/``recorded_at`` stamp** on every entry;
- **skip-and-count reading** — blank lines are ignored; torn writes,
  foreign junk and entries the caller does not accept are counted in
  ``skipped``, so an old or mixed file degrades to fewer entries,
  never to a crash.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import time


def enabled(env_var):
    """False when ``env_var`` is set to ``0``/``false``/``no``."""
    return os.environ.get(env_var, "").strip().lower() \
        not in ("0", "false", "no")


def stamp(now=None):
    """The ``recorded_unix``/``recorded_at`` fields for ``now``."""
    now = time.time() if now is None else now
    return {
        "recorded_unix": round(now, 3),
        "recorded_at": datetime.datetime.fromtimestamp(
            now, datetime.timezone.utc).isoformat(),
    }


def write(path, entry):
    """Append ``entry`` as one compact line; raises OSError."""
    path = pathlib.Path(path)
    line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(line + "\n")
    return path


def append(path, entry):
    """Best-effort :func:`write`: False instead of an OSError."""
    try:
        write(path, entry)
    except OSError:
        return False
    return True


def read(path, accept):
    """``(entries, skipped)`` oldest-first: the lines ``accept`` takes.

    ``accept(entry)`` sees every line that parses to a JSON object;
    what it rejects, and what does not parse, counts in ``skipped``.
    A missing or unreadable file reads as ``([], 0)``.
    """
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError:
        return [], 0
    entries, skipped = [], 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if isinstance(entry, dict) and accept(entry):
            entries.append(entry)
        else:
            skipped += 1
    return entries, skipped
