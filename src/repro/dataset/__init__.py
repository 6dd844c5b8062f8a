"""Dataset layer: compact record schemas, the in-memory dataset, a
gzip-JSONL store, and aggregation helpers used by the analysis.

The record schemas are imported eagerly (every ingest and store path
needs them); the dataset container and the numpy helpers resolve on
first access."""

from repro._lazy import lazy_exports
from repro.dataset.records import (
    DeviceRecord,
    FailureRecord,
    TransitionRecord,
)

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.dataset.store": ("Dataset", "load_dataset", "save_dataset"),
    "repro.dataset.aggregate": ("cdf", "group_by", "quantile"),
})

__all__ = [
    "DeviceRecord",
    "FailureRecord",
    "TransitionRecord",
    "Dataset",
    "load_dataset",
    "save_dataset",
    "cdf",
    "group_by",
    "quantile",
]
