"""Every command line of the CLI corpus (``cli_corpus.py``) prints the bytes
pinned in ``cli_corpus.json``: exit code, stdout and stderr, as one sha256
each."""

import json

from cli_corpus import FIXTURE, corpus, digest, outcomes


def test_the_fixture_lists_the_corpus():
    # An edited corpus needs a regenerated fixture.
    entries = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert [tuple(entry["argv"]) for entry in entries] == corpus()


def test_every_command_line_prints_its_pinned_bytes(tmp_path):
    entries = json.loads(FIXTURE.read_text(encoding="utf-8"))
    moved = [
        " ".join(entry["argv"])
        for entry, outcome in zip(entries, outcomes(tmp_path))
        if digest(outcome) != entry["sha256"]
    ]
    assert not moved, f"{len(moved)} command lines print other bytes:\n" + "\n".join(moved)
