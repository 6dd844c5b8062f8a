"""Backend substrate: the centralized side of the study — ingestion and
deduplication of the devices' compressed uploads."""

from repro.backend.ingest import IngestionServer, ServiceUnavailable

__all__ = ["IngestionServer", "ServiceUnavailable"]
