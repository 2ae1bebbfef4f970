"""Exception hierarchy for the repro package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for structurally invalid graphs or invalid graph queries."""


class DisconnectedGraphError(GraphError):
    """Raised when an operation requires a connected graph but the input
    graph is disconnected."""


class InvalidDemandError(ReproError):
    """Raised when a demand vector is malformed (wrong length, does not
    sum to zero, or has demands on missing nodes)."""


class InvalidFlowError(ReproError):
    """Raised when a flow vector violates capacity or conservation
    constraints beyond the permitted tolerance."""


class CongestModelError(ReproError):
    """Raised for violations of the CONGEST model's rules, e.g. a node
    attempting to send a message exceeding the per-edge bit budget."""


class MessageTooLargeError(CongestModelError):
    """Raised when a single message exceeds the per-round per-edge
    bandwidth budget of the CONGEST model."""


class RoundLimitExceededError(CongestModelError):
    """Raised when a distributed algorithm fails to terminate within the
    round budget given to the simulator."""


class ConvergenceError(ReproError):
    """Raised when an iterative method (gradient descent, multiplicative
    weights) fails to reach its termination criterion within its
    iteration budget."""


class TreeError(ReproError):
    """Raised for malformed rooted trees (cycles, orphan nodes, invalid
    parent pointers)."""


class ArenaError(ReproError):
    """Raised when the shared-memory arena cannot honour an export even
    after draining every evictable segment (e.g. ENOSPC on /dev/shm).

    The message names the requested size, the configured byte budget,
    and the live (non-evictable) working set so the failure is
    actionable without a debugger; the original ``OSError`` rides along
    as ``__cause__``."""


class PoolFailureError(ReproError):
    """Raised when a sharded map cannot be completed despite supervised
    recovery: the retry budget is exhausted, or the failure mode is not
    safely retryable (a timed-out thread shard may still be running and
    would race a re-execution on shared scratch).

    The underlying worker exception — or the timeout — is chained as
    ``__cause__``."""


class ServingError(ReproError):
    """Raised by :class:`repro.serve.FlowServer` when a request cannot
    be served: a poisoned demand column or a solve failure that
    survives its retry.

    Error isolation contract: in batched routing a ``ServingError``
    scopes to the one demand column that failed (its cause chained as
    ``__cause__``), never to the whole batch."""


class DeadlineExceededError(ServingError):
    """Raised when a :class:`repro.serve.FlowServer` request exceeds its
    configured per-request deadline.  Checked cooperatively before
    every solve attempt, so an in-flight solve completes before the
    deadline is observed."""


class FaultSpecError(ReproError):
    """Raised for a malformed ``REPRO_FAULTS`` spec or an unknown fault
    site/kind handed to :class:`repro.faults.FaultSpec`."""


class ScenarioError(ReproError):
    """Raised for a malformed scenario specification handed to
    :mod:`repro.scenarios` — an unknown topology/demand/failure/backend
    name, an incompatible axis combination requested explicitly (e.g.
    an adversarial-cut demand on a topology with no planted cut), or a
    scenario whose parameters cannot produce a runnable instance."""


class InvariantViolation(ScenarioError):
    """Raised when a scenario run violates one of its correctness
    invariants: routed flow value outside the solver's certified bound
    versus exact Dinic, congestion outside the approximator guarantee,
    demand conservation failure, a planted bottleneck the approximator
    failed to detect, or cross-backend results that are not
    bit-identical.

    The message names the scenario, the invariant, and the measured
    versus permitted quantities — a violation is a *library bug* (or a
    deliberately broken component under mutation testing), never an
    expected data condition."""
