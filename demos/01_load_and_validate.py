"""Load an annotation export and audit what diagnostics it can support.

Builds a small JSONL file in a temp directory, loads it leniently (bad rows
are collected, not fatal), and prints the validation report.
"""

import json
import tempfile
from pathlib import Path

from prefaudit import load_records, to_row, validate

rows = [
    # a1 rates the same item in two sessions -> a temporal repeat
    {"record_id": "r1", "annotator_id": "a1", "item_id": "greeting", "prompt_text": "Hello",
     "score": 10.0, "scale_kind": "continuous_0_100", "session_id": "s1"},
    {"record_id": "r2", "annotator_id": "a1", "item_id": "greeting", "prompt_text": "Hello",
     "score": 100.0, "scale_kind": "continuous_0_100", "session_id": "s2"},
    # one item carries two framing variants
    {"record_id": "r3", "annotator_id": "a1", "item_id": "reactor", "prompt_text": "variant one",
     "score": 95.0, "scale_kind": "continuous_0_100", "framing_id": "a"},
    {"record_id": "r4", "annotator_id": "a1", "item_id": "reactor", "prompt_text": "variant two",
     "score": 20.0, "scale_kind": "continuous_0_100", "framing_id": "b"},
    # a malformed row: score outside the scale
    {"record_id": "r5", "annotator_id": "a2", "item_id": "greeting", "prompt_text": "Hello",
     "score": 150.0, "scale_kind": "continuous_0_100"},
]

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "export.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")

    dataset = load_records(path)
    print(f"loaded {len(dataset.records)} records, rejected {len(dataset.rejected)}")
    for reject in dataset.rejected:
        print(f"  line {reject.line_no}: {reject.reason}")

    report = validate(dataset)
    print("\nvalidation report:")
    for key, value in to_row(report).items():
        if key != "warnings":
            print(f"  {key}: {value}")
    for warning in report.warnings:
        print(f"  warning: {warning}")
