"""Packed result storage for sweep caches (see :mod:`repro.store.packed`).

Public surface re-exported here so callers write ``from repro.store import
PackedResultStore`` without caring about the module split.
"""

from .packed import (
    DATA_FILENAME,
    INDEX_FILENAME,
    LOCK_FILENAME,
    PackedResultStore,
    PackedStoreError,
    PackedStoreLockedError,
)

__all__ = [
    "DATA_FILENAME",
    "INDEX_FILENAME",
    "LOCK_FILENAME",
    "PackedResultStore",
    "PackedStoreError",
    "PackedStoreLockedError",
]
