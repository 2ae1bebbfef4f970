"""Worker-sharded execution backend for the array-native substrate.

The paper's algorithm is distributed by construction: the BFS,
contraction and MWU primitives of approximator construction decompose
into independent per-node-range (or per-sample) work. This package is
the centralized mirror of that decomposition — it partitions the
*data* of the already-whole-array construction kernels across workers:

* :class:`ShardPlan` — balanced contiguous partitions of CSR ``indptr``
  node ranges, BFS frontiers, and MWU sample rows;
* :class:`ParallelConfig` — shard count / pool backend / adaptive
  threshold, defaulting process-wide from ``REPRO_WORKERS`` (and
  ``REPRO_BACKEND``); ``REPRO_WORKERS=2 pytest`` runs the entire suite
  sharded;
* pools (:mod:`repro.parallel.pool`) — serial, thread, and fork+
  shared-memory process execution behind one ordered-``map`` contract.

The sharded kernels themselves live next to their serial twins
(:mod:`repro.graphs.kernels`, :mod:`repro.graphs.csr`,
:mod:`repro.jtree.mwu`) and are **bit-identical** to them by
construction: shards are contiguous index ranges whose outputs
concatenate back into the exact serial element order, so every
downstream fold (tie-breaking, ``bincount`` accumulation, floating-
point summation) is unchanged. ``tests/parallel_harness.py`` sweeps a
seed × generator × shard-count matrix asserting exact equality.

Routing never shards: the approximator's R·b / Rᵀ·g products run on
the calling thread (splitting them into tree blocks measured slower
than one pass on a 2-vCPU host), so the pools serve construction only.
"""

from repro.parallel.arena import (
    ARENA_BYTE_BUDGET,
    SharedArena,
    array_version,
    tag_array_version,
)
from repro.parallel.config import (
    ParallelConfig,
    default_config,
    resolve_config,
    set_default_config,
    use_config,
)
from repro.parallel.plan import BfsShardState, ShardPlan
from repro.parallel.pool import (
    PoolStats,
    ProcessPool,
    RecoveryPolicy,
    SerialPool,
    ThreadPool,
    WorkerPool,
    get_pool,
    recovery_policy,
    reset_fork_warning,
    set_recovery_policy,
    shutdown_pools,
    use_recovery,
)

__all__ = [
    "ARENA_BYTE_BUDGET",
    "BfsShardState",
    "ParallelConfig",
    "PoolStats",
    "RecoveryPolicy",
    "SharedArena",
    "ShardPlan",
    "WorkerPool",
    "SerialPool",
    "ThreadPool",
    "ProcessPool",
    "array_version",
    "default_config",
    "recovery_policy",
    "reset_fork_warning",
    "resolve_config",
    "set_default_config",
    "set_recovery_policy",
    "tag_array_version",
    "use_config",
    "use_recovery",
    "get_pool",
    "shutdown_pools",
]
