"""j-trees and the recursive virtual-tree hierarchy (paper §§4, 8)."""

from repro.jtree.skeleton import SkeletonResult, build_skeleton
from repro.jtree.madry import (
    CoreEdge,
    JTreeStep,
    TreePhase,
    finish_jtree_step,
    madry_jtree_step,
    madry_tree_phase,
    select_load_classes,
)
from repro.jtree.mwu import JTreeDistribution, build_jtree_distribution
from repro.jtree.embedding import EmbeddingReport, embedding_report
from repro.jtree.hierarchy import (
    HierarchyParams,
    VirtualTree,
    sample_virtual_tree,
    sample_virtual_trees,
)

__all__ = [
    "SkeletonResult",
    "build_skeleton",
    "CoreEdge",
    "JTreeStep",
    "TreePhase",
    "finish_jtree_step",
    "madry_jtree_step",
    "madry_tree_phase",
    "select_load_classes",
    "JTreeDistribution",
    "build_jtree_distribution",
    "HierarchyParams",
    "VirtualTree",
    "sample_virtual_tree",
    "sample_virtual_trees",
    "EmbeddingReport",
    "embedding_report",
]
