"""Partition machinery: grids, feature classification, allocation, merging.

This package contains everything about *where* partitions go and *which*
features they may touch; the algorithms that use them live in
:mod:`repro.core`.
"""

from repro.partitioning.grid import (
    PartitionGrid,
    single_point_partition,
    grid_partitions,
)
from repro.partitioning.classify import PartitionPlan, PartitionContext, classify_features
from repro.partitioning.allocation import allocate_iterations
from repro.partitioning.intelligent import segment_image, SegmentationResult
from repro.partitioning.blind import BlindPartition, blind_partitions
from repro.partitioning.merge import (
    MergeReport,
    merge_blind_models,
    concat_models,
    match_circles,
)

__all__ = [
    "PartitionGrid",
    "single_point_partition",
    "grid_partitions",
    "PartitionPlan",
    "PartitionContext",
    "classify_features",
    "allocate_iterations",
    "segment_image",
    "SegmentationResult",
    "BlindPartition",
    "blind_partitions",
    "MergeReport",
    "merge_blind_models",
    "concat_models",
    "match_circles",
]
