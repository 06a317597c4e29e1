"""The shared JSONL contract of the run ledger and the job journal.

Both logs are read by older and newer versions of this package at
once, so their lines are pinned byte for byte, and both readers must
degrade the same way on torn, blank and foreign lines.
"""

import json

import pytest

from repro import __version__, jsonl
from repro.perf import ledger
from repro.serve.journal import JOURNAL_FILENAME, JobJournal

BODY = {"kernels": ["dc_filter"], "configs": ["HOM64"],
        "variants": ["basic"]}

#: A fixed clock: sub-millisecond digits survive only in recorded_at.
FROZEN_UNIX = 1700000000.123456


def test_lines_are_byte_stable(tmp_path, monkeypatch):
    monkeypatch.setattr(jsonl.time, "time", lambda: FROZEN_UNIX)
    monkeypatch.setattr(ledger.platform, "node", lambda: "host-a")
    stamp = ('"recorded_at":"2023-11-14T22:13:20.123456+00:00",'
             '"recorded_unix":1700000000.123')
    ledger.record("bench", {"total_seconds": 1.5, "cases": {"x": 1.5}},
                  cache_dir=tmp_path)
    assert ledger.ledger_path(tmp_path).read_text() == (
        '{"command":"bench","hostname":"host-a","kind":"ledger-entry",'
        f'"package_version":"{__version__}",{stamp},"schema":1,'
        '"summary":{"cases":{"x":1.5},"total_seconds":1.5}}\n')
    journal = JobJournal(tmp_path / JOURNAL_FILENAME)
    journal.record("submitted", "job-1-abc", job_kind="sweep",
                   body={"kernels": ["fir"]}, priority=2)
    journal.record("finished", "job-1-abc")
    assert journal.path.read_text() == (
        '{"body":{"kernels":["fir"]},"event":"submitted",'
        '"job_id":"job-1-abc","job_kind":"sweep","kind":"job-event",'
        f'"priority":2,{stamp},"schema":1}}\n'
        '{"event":"finished","job_id":"job-1-abc","kind":"job-event",'
        f'{stamp},"schema":1}}\n')


def ledger_log(tmp_path):
    path = ledger.ledger_path(tmp_path)
    ledger.append_entry(ledger.make_entry("bench", {"cases": {}}), path)

    def read():
        entries, skipped = ledger.read_ledger(path)
        return len(entries), skipped
    return path, read, [json.dumps({"kind": "something-else"})]


def journal_log(tmp_path):
    journal = JobJournal(tmp_path / JOURNAL_FILENAME)
    journal.record("submitted", "job-1", job_kind="sweep", body=BODY)

    def read():
        jobs, skipped = journal.replay()
        assert jobs["job-1"]["event"] == "submitted"
        return len(jobs), skipped
    return journal.path, read, [
        json.dumps({"kind": "run-ledger"}),
        json.dumps({"kind": "job-event", "event": "vanished",
                    "job_id": "job-1"})]


@pytest.mark.parametrize("make_log", [ledger_log, journal_log],
                         ids=["ledger", "journal"])
def test_reader_skips_and_counts_bad_lines(tmp_path, make_log):
    path, read, foreign = make_log(tmp_path)
    with open(path, "a") as handle:
        handle.write("{torn line\n")
        handle.write("\n")  # blank lines are ignored, not counted
        for line in foreign:
            handle.write(line + "\n")
    assert read() == (1, 1 + len(foreign))
