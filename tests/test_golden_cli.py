"""Replay the golden CLI corpus: every committed run prints the same bytes today."""

import json

import pytest
from golden_cli import CORPUS, cases, run

ROWS = [json.loads(line) for line in CORPUS.read_text().splitlines()]


@pytest.fixture(scope="module")
def replayed():
    return [run(row["argv"]) for row in ROWS]


def test_corpus_is_the_seeded_case_list():
    assert [row["argv"] for row in ROWS] == cases()


def test_every_run_matches_its_row(replayed):
    changed = [row["argv"] for row, now in zip(ROWS, replayed) if now != row]
    assert not changed, f"{len(changed)} runs differ, the first: {changed[0]}"


def test_json_documents_keep_every_committed_key(replayed):
    for row, now in zip(ROWS, replayed):
        if "json_keys" in row:
            missing = set(row["json_keys"]) - set(now["json_keys"])
            assert not missing, (row["argv"], sorted(missing))
