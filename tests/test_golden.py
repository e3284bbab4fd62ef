"""Pin the canonical ``classify()`` report of every fixture in the corpus.

The golden file is the behaviour contract for the fixture corpus: a change
that moves any verdict, witness, counter or bound shows up here field by
field.  Regenerate it, after checking that the change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from tenclass import classify
from tenclass.tensor_io import canonical_dumps
from tenclass.verify import load_fixtures

GOLDEN = Path(__file__).parent / "golden" / "fixture_reports.json"


def fixture_reports() -> str:
    reports = {f.name: classify(f.tensor).to_json() for f in load_fixtures()}
    return canonical_dumps(reports, indent=2) + "\n"


def test_fixture_reports_match_golden():
    text = fixture_reports()
    golden = GOLDEN.read_text(encoding="utf-8")
    got, want = json.loads(text), json.loads(golden)
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name
    assert text == golden


if __name__ == "__main__":
    GOLDEN.write_text(fixture_reports(), encoding="utf-8")
