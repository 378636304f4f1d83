"""The Feature Management Manager (Figure 3, component 2A).

The unified mechanism applications use to retrieve and receive features:

* :meth:`FeatureManager.publish` — the southbound elements push every
  generated feature here, as its document; it is stored in the distributed
  database (unless storage is disabled, the Table IX "no DB" ablation) and
  matched against the *event delivery table*;
* :meth:`FeatureManager.request_features` — translates an Athena query into
  database queries (filters or aggregation pipelines) and returns documents;
* the event delivery table — registered (query, handler) pairs evaluated
  against every live feature, feeding applications and online validators.
"""

# athena-lint: hot-path

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.chaos.retry import RetryPolicy, RetryQueue
from repro.core.feature_format import INDEX_KEYS, AthenaFeature
from repro.core.features.catalog import FEATURE_CATALOG
from repro.core.query import Query
from repro.distdb import DatabaseCluster
from repro.distdb.frame import FeatureFrame
from repro.errors import AthenaError
from repro.telemetry import get_telemetry

FeatureHandler = Callable[[AthenaFeature], None]

#: Collection holding every published feature document.
FEATURE_COLLECTION = "athena_features"


@dataclass
class _DeliveryEntry:
    """One row of the event delivery table."""

    entry_id: int
    query: Query
    handler: FeatureHandler
    delivered: int = 0


class FeatureManager:
    """Unified feature retrieval and live delivery."""

    def __init__(
        self,
        database: DatabaseCluster,
        store_features: bool = True,
        scheduler=None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.database = database
        self.store_features = store_features
        # With a simulator scheduler, feature-store writes that hit a
        # DatabaseError are buffered and retried with backoff instead of
        # failing the publish — live delivery keeps flowing either way.
        self._retry: Optional[RetryQueue] = None
        if scheduler is not None:
            self._retry = RetryQueue(
                scheduler,
                retry_policy or RetryPolicy(),
                name="feature_writes",
            )
        self._delivery_table: List[_DeliveryEntry] = []
        self._entry_ids = itertools.count(1)
        self.features_published = 0
        self.features_delivered = 0
        registry = get_telemetry().registry
        self._telemetry_on = registry.enabled
        self._metric_published = registry.counter(
            "athena_feature_published_total",
            "Features published into the feature manager.",
        )
        self._metric_delivered = registry.counter(
            "athena_feature_delivered_total",
            "Features delivered to event-table handlers.",
        )
        self._metric_requests = registry.counter(
            "athena_feature_requests_total",
            "RequestFeatures queries served.",
        )
        self._metric_request_seconds = registry.histogram(
            "athena_feature_request_seconds",
            "Wall seconds per RequestFeatures query.",
        )
        self.database.create_index(FEATURE_COLLECTION, "switch_id")
        self.database.create_index(FEATURE_COLLECTION, "feature_scope")
        self.database.create_index(FEATURE_COLLECTION, "ip_src")
        # Compound index backing the per-flow feature queries, whose
        # filters pin (feature_scope, switch_id) inside an $and.
        self.database.create_index(FEATURE_COLLECTION, "feature_scope", "switch_id")

    # -- southbound-facing ---------------------------------------------------

    def publish(self, doc: Dict[str, Any]) -> None:
        """Store a feature's document; matching handlers get it rebuilt
        as one :class:`AthenaFeature`.

        With a retry queue armed, a database failure buffers the write
        (retried on the sim clock, never dropped) and the feature is still
        delivered to live handlers — detection degrades gracefully rather
        than stalling on the store.
        """
        self.features_published += 1
        if self._telemetry_on:
            self._metric_published.inc()
        if self.store_features:
            if self._retry is not None:
                self._retry.submit(self.database.insert_one, FEATURE_COLLECTION, doc)
            else:
                self.database.insert_one(FEATURE_COLLECTION, doc)
        feature = None
        for entry in self._delivery_table:
            if entry.query.matches(doc):
                if feature is None:
                    feature = AthenaFeature.from_document(doc)
                entry.delivered += 1
                self.features_delivered += 1
                if self._telemetry_on:
                    self._metric_delivered.inc()
                entry.handler(feature)

    def publish_documents(self, docs: List[Dict[str, Any]]) -> int:
        """Bulk-load pre-built feature documents (dataset replay path)."""
        if self.store_features:
            # The store takes its own private copy of every document.
            self.database.insert_many(FEATURE_COLLECTION, docs)
        return len(docs)

    # -- application-facing ------------------------------------------------------

    @staticmethod
    def validate_query_features(query: Query) -> None:
        """Resolve every catalog-looking field the query names.

        Uppercase names are the feature namespace (lowercase names are
        index/meta fields), so a misspelled catalog name fails loudly with
        a did-you-mean suggestion instead of silently matching nothing.
        """
        for name in query.fieldnames():
            if name[:1].isalpha() and name == name.upper() and name not in INDEX_KEYS:
                FEATURE_CATALOG.resolve(name)

    def request_features(self, query: Query) -> List[Dict[str, Any]]:
        """Retrieve stored features satisfying ``query`` (RequestFeatures)."""
        self.validate_query_features(query)
        self._metric_requests.inc()
        with self._metric_request_seconds.time():
            pipeline = query.to_db_pipeline()
            if pipeline is not None:
                return self.database.aggregate(FEATURE_COLLECTION, pipeline)
            return self.database.find(
                FEATURE_COLLECTION,
                filter_=query.to_db_filter() or None,
                sort=query.sort_spec or None,
                limit=query.limit_value,
            )

    def request_frame(
        self, query: Query, columns: Optional[List[str]] = None
    ) -> FeatureFrame:
        """RequestFeatures as a frame, not documents: what detection jobs
        fetch (docs/PERF.md, "The batch path").

        Compiles the query to a boolean mask over numpy columns and
        returns a :class:`~repro.distdb.frame.FeatureFrame` holding
        exactly the rows :meth:`request_features` would return, in the
        same order, as zero-copy views over the stored documents.
        ``columns`` names the fields the caller will read, so the store
        slices them from the columns it keeps per generation.
        Aggregation queries have no frame shape and raise
        :class:`~repro.errors.AthenaError`.
        """
        self.validate_query_features(query)
        if query.to_db_pipeline() is not None:
            raise AthenaError(
                "request_frame serves filter queries; aggregation queries "
                "return reduced rows — use request_features"
            )
        self._metric_requests.inc()
        with self._metric_request_seconds.time():
            return self.database.find_frame(
                FEATURE_COLLECTION,
                query.to_db_filter() or None,
                sort=query.sort_spec or None,
                limit=query.limit_value,
                columns=tuple(columns) if columns is not None else None,
            )

    def count_features(self, query: Optional[Query] = None) -> int:
        filter_ = query.to_db_filter() if query is not None else None
        return self.database.count(FEATURE_COLLECTION, filter_ or None)

    def add_event_handler(self, query: Query, handler: FeatureHandler) -> int:
        """Register a delivery-table entry; returns its id (AddEventHandler)."""
        if handler is None:
            raise AthenaError("event handler must be callable")
        entry = _DeliveryEntry(next(self._entry_ids), query, handler)
        self._delivery_table.append(entry)
        return entry.entry_id

    def remove_event_handler(self, entry_id: int) -> bool:
        before = len(self._delivery_table)
        self._delivery_table = [
            e for e in self._delivery_table if e.entry_id != entry_id
        ]
        return len(self._delivery_table) < before

    def delivery_table_size(self) -> int:
        return len(self._delivery_table)

    def clear_features(self) -> int:
        """Drop every stored feature (test and bench housekeeping)."""
        return self.database.delete_many(FEATURE_COLLECTION, None)

    # -- write buffering -----------------------------------------------------

    @property
    def pending_writes(self) -> int:
        """Feature-store writes buffered by the retry queue."""
        return self._retry.pending if self._retry is not None else 0

    def flush_pending(self) -> int:
        """Retry buffered writes immediately; returns commits achieved."""
        return self._retry.flush() if self._retry is not None else 0
