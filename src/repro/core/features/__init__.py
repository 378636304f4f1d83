"""Athena's feature catalog and extractors.

:mod:`repro.core.features.catalog` enumerates the 100+ named features by
Table I category; the sibling modules compute them:

* :mod:`~repro.core.features.protocol` — values copied directly out of
  OpenFlow control messages,
* :mod:`~repro.core.features.combination` — pre-defined formulas over
  protocol features (flow utilization, bytes per packet, ...),
* :mod:`~repro.core.features.stateful` — values that need network state
  (pair flows, flow origins, per-source flow fan-out),
* :mod:`~repro.core.features.variation` — deltas against the previous
  sample of the same entity, kept in hash tables,
* :mod:`~repro.core.features.engine` — the per-consumer state engine
  that folds one flow observation through all of the above.
"""

from repro.core.features.catalog import (
    FEATURE_CATALOG,
    FeatureCategory,
    FeatureDef,
    feature_names,
    features_by_category,
    features_by_scope,
    is_known_feature,
)

__all__ = [
    "FEATURE_CATALOG",
    "FeatureCategory",
    "FeatureDef",
    "feature_names",
    "features_by_category",
    "features_by_scope",
    "is_known_feature",
]
