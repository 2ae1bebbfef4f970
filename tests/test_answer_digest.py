"""Smoke test for ``tools/answer_digest.py``: the digests are stable."""

from __future__ import annotations

from tools import answer_digest


def test_two_runs_print_the_same_digests(capsys):
    """One checked request per stream, twice: every stream prints one
    line, and both runs print the same digests."""
    outputs = []
    for _ in range(2):
        assert answer_digest.main(["--ops", "1", "--seed", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    names = [line.split()[0] for line in outputs[0].splitlines()]
    assert names == list(answer_digest.STREAMS)
