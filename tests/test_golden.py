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


def moved_fields(want, got, path=""):
    """Yield ``path: old -> new`` for every JSON path whose value differs."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in [*want, *(k for k in got if k not in want)]:
            yield from moved_fields(want.get(key, "<absent>"), got.get(key, "<absent>"),
                                    f"{path}/{key}")
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            yield from moved_fields(w, g, f"{path}/{i}")
    elif want != got:
        yield f"{path}: {want!r} -> {got!r}"


def test_fixture_reports_match_golden():
    text = fixture_reports()
    golden = GOLDEN.read_text(encoding="utf-8")
    moved = list(moved_fields(json.loads(golden), json.loads(text)))
    assert not moved, f"{len(moved)} moved fields:\n" + "\n".join(moved)
    assert text == golden


if __name__ == "__main__":
    GOLDEN.write_text(fixture_reports(), encoding="utf-8")
