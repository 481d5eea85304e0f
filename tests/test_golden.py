"""Golden outputs: every case's emitted files match the committed digests.

On a machine whose fingerprint matches ``golden.json``'s, every digest is
compared; elsewhere only the portable one is, and the rest skip with the
fingerprint that differs. ``tests/make_golden.py`` regenerates the file.
"""

import json

import pytest

from make_golden import CASES, GOLDEN, digests, fingerprint

_GOLDEN = json.loads(GOLDEN.read_text())
_MEASURED: dict = {}


def _measured(case: str) -> dict:
    # Both tests of a case read one run.
    if case not in _MEASURED:
        _MEASURED[case] = digests(CASES[case])
    return _MEASURED[case]


def test_golden_covers_every_case():
    assert sorted(_GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_golden_portable_fields(case):
    assert _measured(case)["portable"] == _GOLDEN["cases"][case]["portable"]


@pytest.mark.parametrize("case", list(CASES))
def test_golden_digests(case):
    here, there = fingerprint(), _GOLDEN["fingerprint"]
    if here != there:
        differs = {k: here[k] for k in here if here[k] != there.get(k)}
        pytest.skip(f"fingerprint {differs} differs from golden.json's")
    got, want = _measured(case), _GOLDEN["cases"][case]
    assert {k: got[k] for k in want} == want
