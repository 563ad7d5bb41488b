"""Shared fixtures and record factories."""

from __future__ import annotations

import gc
import itertools

import pytest

from prefaudit import records
from prefaudit.records import AnnotationRecord, Dataset, ItemMetadata

_counter = itertools.count()


@pytest.fixture(autouse=True)
def _collector_left_enabled():
    """Fail a test after which the cyclic garbage collector is off, as a paused
    collector that is never restored would leave it, and turn it back on."""
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the cyclic garbage collector was left disabled"


def flag_row(flag) -> dict:
    """One flag as a ``repeats --flags-output`` row, its own fields and its pair's: the
    reference whose ``records.to_json`` the flags writer (``records.write_jsonl`` of
    ``InconsistencyFlag`` rows) must match byte for byte."""
    row = records.to_row(flag)
    row.update(records.to_row(row.pop("pair")))
    return row


def rec(
    annotator: str,
    item: str,
    score,
    session: str | None = None,
    framing: str | None = None,
    scale: str = "continuous_0_100",
    prompt: str | None = None,
    **kwargs,
) -> AnnotationRecord:
    return AnnotationRecord(
        record_id=f"r{next(_counter):06d}",
        annotator_id=annotator,
        item_id=item,
        prompt_text=prompt if prompt is not None else f"prompt {item}",
        score=score,
        scale_kind=scale,
        session_id=session,
        framing_id=framing,
        **kwargs,
    )


def dataset_of(records, scale="continuous_0_100", metadata=None, embeddings=None) -> Dataset:
    return Dataset(records=list(records), scale_kind=scale, metadata=metadata or {}, embeddings=embeddings)


@pytest.fixture
def repeat_dataset() -> Dataset:
    """One annotator rating three items twice across sessions: deltas 0, 15, 40."""
    records = [
        rec("a1", "i1", 80.0, session="s1"),
        rec("a1", "i1", 80.0, session="s2"),
        rec("a1", "i2", 60.0, session="s1"),
        rec("a1", "i2", 75.0, session="s2"),
        rec("a1", "i3", 50.0, session="s1"),
        rec("a1", "i3", 10.0, session="s2"),
    ]
    return dataset_of(records)


def metadata_of(**by_item) -> dict[str, ItemMetadata]:
    return {item: ItemMetadata(item_id=item, **codes) for item, codes in by_item.items()}
