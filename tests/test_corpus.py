"""The differential corpus: every case's output digest matches the one recorded.

See `corpus.py` for the cases and the command that re-records
`corpus_digests.json` for a change meant to alter outputs.
"""

import json

import corpus


def test_every_digest_matches_the_recorded_one():
    recorded = json.loads(corpus.DIGESTS.read_text())
    changed = corpus.changed_ids(recorded, corpus.record())
    assert not changed, f"{len(changed)} case digests changed: {changed}"


def test_changed_ids_name_moved_added_and_dropped_cases():
    old = {"a": "1", "b": "2", "c": "3"}
    assert corpus.changed_ids(old, {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]
    assert corpus.changed_ids(old, dict(old)) == []
