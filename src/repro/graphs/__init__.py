"""Graph substrate: array-native multigraphs (growable edge buffers +
cached CSR adjacency), vectorized kernels, generators, cuts, and rooted
trees with cached Euler-tour indices."""

from repro.graphs.csr import CSRAdjacency, build_csr
from repro.graphs.graph import Edge, Graph
from repro.graphs.trees import (
    RootedTree,
    bfs_tree,
    induced_cut_capacities,
    spanning_tree_from_edges,
    tree_route_demand,
)
from repro.graphs.io import read_dimacs, read_json, write_dimacs, write_json
from repro.graphs.cuts import (
    cut_capacity,
    cut_congestion_lower_bound,
    cut_demand,
    cut_edges,
    enumerate_cut_capacities,
    sparsest_cut_brute_force,
)

__all__ = [
    "CSRAdjacency",
    "build_csr",
    "Edge",
    "Graph",
    "RootedTree",
    "bfs_tree",
    "induced_cut_capacities",
    "spanning_tree_from_edges",
    "tree_route_demand",
    "cut_capacity",
    "cut_congestion_lower_bound",
    "cut_demand",
    "cut_edges",
    "enumerate_cut_capacities",
    "sparsest_cut_brute_force",
    "read_dimacs",
    "read_json",
    "write_dimacs",
    "write_json",
]
