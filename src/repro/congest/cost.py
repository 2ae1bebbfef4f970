"""Round-cost accounting for the composed pipeline (Theorem 1.1 shape).

Simulating the full Sherman pipeline message-by-message costs
Θ(rounds · m) work — infeasible beyond toy sizes. The paper itself
composes round costs analytically from a small set of lemmas; this
module encodes those lemmas as a :class:`CostModel` and lets the actual
implementations report *measured* operation counts (gradient steps, MWU
iterations, SplitGraph phases, trees sampled, recursion levels), which
the model converts into round estimates.

The simulator in :mod:`repro.congest` validates the primitive costs
(BFS ≤ D + 1, pipelined k-aggregation ≤ height + k + O(1)) so the
composition rests on measured constants, not hand-waving.

Charged costs (all from the paper):

=====================  ===========================================
operation              rounds charged                     source
=====================  ===========================================
BFS tree               D + 1                              folklore
broadcast/convergecast height + 1                         folklore
pipelined k-aggregate  D + k + O(1)                       Lemma 5.1
cluster-graph step     O(D + √n) per simulated round      Lemma 5.1
tree flow aggregation  Õ(√n + D)                          Lemma 8.3
tree decomposition     Õ(√n)                              Lemma 8.2
skeleton/portals       Õ(√n)                              Lemma 8.8
R·b / Rᵀ·y product     Õ(√n + D) per sampled tree         Cor. 9.3
gradient step          O(D) + products                    §9.1
MST, residual routes   Õ(D + √n) each                     Lemma 9.1
=====================  ===========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import GraphError
from repro.graphs.graph import Graph

__all__ = ["CostModel", "RoundLedger"]


@dataclass
class RoundLedger:
    """An itemized record of charged rounds."""

    items: list[tuple[str, float]] = field(default_factory=list)

    def charge(self, label: str, rounds: float) -> float:
        self.items.append((label, float(rounds)))
        return float(rounds)

    @property
    def total(self) -> float:
        return sum(rounds for _, rounds in self.items)

    def by_label(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for label, rounds in self.items:
            out[label] = out.get(label, 0.0) + rounds
        return out


class CostModel:
    """Round costs for a given topology.

    Args:
        num_nodes: n.
        diameter: Hop diameter D.
        log_base: Base for the Õ log factors (natural log of n used as
            the generic "log n" factor).
    """

    def __init__(self, num_nodes: int, diameter: int) -> None:
        if num_nodes < 2:
            raise GraphError("cost model needs at least 2 nodes")
        self.n = int(num_nodes)
        self.diameter = int(diameter)
        self.sqrt_n = math.sqrt(self.n)
        self.log_n = max(1.0, math.log2(self.n))
        self.ledger = RoundLedger()

    @classmethod
    def for_graph(cls, graph: Graph) -> "CostModel":
        """Build a model with the exact diameter of ``graph``."""
        return cls(graph.num_nodes, graph.diameter())

    # -- primitive costs ------------------------------------------------
    @property
    def base(self) -> float:
        """The additive `D + √n` term every global operation pays."""
        return self.diameter + self.sqrt_n

    def bfs_tree(self) -> float:
        """BFS-tree construction: D + 1 rounds."""
        return self.ledger.charge("bfs_tree", self.diameter + 1)

    def broadcast(self, items: int = 1) -> float:
        """Pipelined broadcast of ``items`` words over the BFS tree:
        D + items rounds (Lemma 5.1's pipelining argument)."""
        return self.ledger.charge("broadcast", self.diameter + items)

    def convergecast(self, items: int = 1) -> float:
        """Pipelined convergecast, same bound as broadcast."""
        return self.ledger.charge("convergecast", self.diameter + items)

    def cluster_graph_round(self, simulated_rounds: int = 1) -> float:
        """Lemma 5.1: each round of a cluster-graph algorithm costs
        O(D + √n) network rounds."""
        return self.ledger.charge(
            "cluster_graph_simulation", simulated_rounds * self.base
        )

    def tree_flow_aggregation(self) -> float:
        """Lemma 8.3: computing |f'| for all tree edges, Õ(√n + D)."""
        return self.ledger.charge(
            "tree_flow_aggregation", self.base * self.log_n
        )

    def tree_decomposition(self) -> float:
        """Lemma 8.2: random decomposition into O(√n) low-depth parts."""
        return self.ledger.charge("tree_decomposition", self.sqrt_n * self.log_n)

    def skeleton_construction(self) -> float:
        """Lemma 8.8: portals, skeleton, and minimum-capacity path edges
        in Õ(√n) rounds."""
        return self.ledger.charge("skeleton", self.sqrt_n * self.log_n)

    def sparsifier(self) -> float:
        """Lemma 6.1: cut sparsifier in (D + √n) · polylog rounds."""
        return self.ledger.charge("sparsifier", self.base * self.log_n**2)

    def lsst(self, split_graph_phases: int) -> float:
        """Theorem 3.1 via the Section 7 accounting: each SplitGraph /
        Partition phase is a cluster-graph computation of O(ρ log N)
        simulated rounds; the caller reports the *measured* number of
        elementary phases (BFS steps across all Partition calls)."""
        return self.ledger.charge(
            "low_stretch_spanning_tree", split_graph_phases * self.base
        )

    def approximator_product(self, num_trees: int) -> float:
        """Corollary 9.3: one R·b or Rᵀ·y product = one convergecast +
        one downcast per sampled virtual tree, Õ(√n + D) each. The trees
        are processed sequentially (same physical edges)."""
        return self.ledger.charge(
            "approximator_product", num_trees * self.base * self.log_n
        )

    def gradient_step(
        self, num_trees: int, products: int, iterations: int = 1
    ) -> float:
        """``iterations`` AlmostRoute iterations (Section 9.1), each
        ``products`` products with R or Rᵀ (the plain loop does two,
        for y and for π; the accelerated loop three, with y also at the
        look-ahead point), plus O(D) scalar aggregations for φ and δ."""
        per_step = products * num_trees * self.base * self.log_n
        scalars = 4 * self.diameter
        return self.ledger.charge(
            "gradient_step", iterations * (per_step + scalars)
        )

    def mst_and_residual_routing(self, routings: int) -> float:
        """Lemma 9.1: one max-weight spanning tree, then ``routings``
        tree routings of a residual demand, Õ(D + √n) each."""
        return self.ledger.charge(
            "mst_residual_routing", (1 + routings) * self.base * self.log_n
        )

    # -- headline bounds --------------------------------------------------
    def theorem_1_1_bound(self, epsilon: float) -> float:
        """The paper's headline round bound with the n^o(1) factor
        instantiated as 2^O(√(log n log log n)) (the stretch of the AKPW
        trees, which dominates the subpolynomial factor)."""
        subpoly = self.subpolynomial_factor()
        return (self.diameter + self.sqrt_n) * subpoly / epsilon**3

    def subpolynomial_factor(self) -> float:
        """2^√(log₂ n · log₂ log₂ n) — the concrete n^o(1) factor."""
        log_n = max(2.0, math.log2(self.n))
        return 2.0 ** math.sqrt(log_n * max(1.0, math.log2(log_n)))

    def trivial_upper_bound(self, num_edges: int) -> float:
        """The O(m) collect-everything-at-one-node baseline the paper's
        introduction cites: m words pipelined over a BFS tree."""
        return num_edges + 2 * self.diameter
