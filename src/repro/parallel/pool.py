"""Worker pools executing shard tasks: serial, thread, process.

The pool contract is deliberately minimal — :meth:`WorkerPool.map`
takes a **top-level function** and a list of argument tuples and
returns the results *in task order*. Task order is the whole story:
sharded kernels concatenate shard outputs positionally to reproduce
the serial element order, so a pool may schedule tasks however it
likes but must never reorder results.

Backends:

* :class:`SerialPool` — runs shards in-process, one after the other.
  Zero scheduling overhead and deterministic interleaving; used for
  tests and as the cache-blocked fallback on single-core hosts.
* :class:`ThreadPool` — a persistent ``ThreadPoolExecutor``. The hot
  kernels are NumPy whole-array calls that release the GIL, so shards
  genuinely overlap on multi-core hosts, and arrays are shared by
  reference (no copies).
* :class:`ProcessPool` — a persistent fork-context
  ``multiprocessing.Pool``. NumPy array arguments are exported into
  POSIX shared memory (:class:`multiprocessing.shared_memory.
  SharedMemory`) and workers receive zero-copy **read-only views**;
  only scalar arguments and the (typically small) result arrays cross
  the pickle boundary. Export granularity is two-tier: **read-only**
  arrays go through the pool's persistent
  :class:`~repro.parallel.arena.SharedArena` — exported once per array
  lifetime and reused across ``map`` calls (level-synchronous BFS pays
  one CSR export per *run*, not per level) — while writeable arrays
  (``dist`` state, frontier slices, demand vectors) are re-exported
  per call because the caller may mutate them in between. Requires the
  ``fork`` start method; platforms without it degrade to the thread
  pool with a one-time warning (see :func:`get_pool`).

Supervised recovery
-------------------

``map`` is supervised by a :class:`RecoveryPolicy` (per-map timeout,
bounded retry-with-backoff): failed shards are re-executed in waves,
and because the ordered-fold contract makes every shard a pure
function of its arguments, a retried shard is **bit-identical** — the
caller cannot tell a recovered map from a clean one.  Backend
asymmetry, deliberately:

* **Process pool** — the full recovery story.  A worker that raises
  retries its shard; a worker that dies or hangs is detected by the
  per-map timeout, the pool is respawned, and only the missing shards
  re-execute.  Shared-segment attach failures (``FileNotFoundError``
  after an external unlink) retry with the stale arena entry discarded
  and the array re-exported per-call (a counted degradation, see
  :class:`PoolStats`); arena exports that fail even after draining
  (:class:`~repro.errors.ArenaError`) degrade to per-call transient
  segments instead of failing the map.
* **Thread pool** — raised shards retry, but a *timeout* surfaces as
  :class:`~repro.errors.PoolFailureError` without retry: a timed-out
  thread cannot be preempted and may still be writing to caller-owned
  output views, so re-executing its shard would race it.  Callers that
  hand threads shared output buffers must treat them as poisoned after
  a failure.
* **Serial pool** — unsupervised by construction; it is the reference
  path the other backends are pinned against, so it must not itself
  have failure modes.

Shard exceptions that are :class:`~repro.errors.ReproError` subclasses
propagate immediately without retry — they are deterministic library
errors (invalid input, model violations), not faults, and retrying
them would only delay the same answer.  Exhausting the retry budget
raises :class:`~repro.errors.PoolFailureError` with the last shard
failure as ``__cause__``.  Fault-injection sites (``pool.dispatch``
parent-side per wave; ``pool.worker`` / ``arena.attach`` decided
parent-side and shipped to workers as picklable directives — fork
inherits plan state, so consulting the plan in-worker would
double-count visits) let ``tests/test_faults.py`` pin all of the
above deterministically.

Pools are cached per ``(backend, workers)`` by :func:`get_pool` and
shut down at interpreter exit (or explicitly via
:func:`shutdown_pools`, which the test-suite does between backends).
Shutdown robustness: every shared-memory segment's unlink is owned by
a ``weakref.finalize`` handler (at-most-once across manual release,
array GC, and interpreter exit), so abnormal teardown orders can
neither leak segments nor trip ``resource_tracker`` KeyError warnings.
"""

from __future__ import annotations

import atexit
import os
import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from multiprocessing import TimeoutError as WorkerTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ArenaError, GraphError, PoolFailureError, ReproError
from repro.faults import (
    fault_point,
    faults_active,
    maybe_fire,
    register_fault_site,
)
from repro.parallel.arena import (
    SharedArena,
    SharedArrayRef,
    export_segment,
    release_segment,
)
from repro.parallel.config import ParallelConfig

__all__ = [
    "PoolStats",
    "ProcessPool",
    "RecoveryPolicy",
    "SerialPool",
    "ThreadPool",
    "WorkerPool",
    "get_pool",
    "recovery_policy",
    "reset_fork_warning",
    "set_recovery_policy",
    "shutdown_pools",
    "use_recovery",
]

#: Applied whenever a fault plan is armed and the policy sets no
#: timeout: injected hangs and worker deaths must never turn a chaos
#: sweep into a wall-clock hang, so supervision gets a generous bound.
_FAULT_FALLBACK_TIMEOUT = 30.0


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a supervised ``map`` responds to shard failure.

    Attributes:
        timeout: Per-map wall-clock bound in seconds (shared deadline
            across the wave's shards). ``None`` — the default — means
            unbounded, except that an armed fault plan substitutes
            :data:`_FAULT_FALLBACK_TIMEOUT` so injected hangs cannot
            hang the suite.
        retries: How many retry waves a map may use after the first
            attempt before raising
            :class:`~repro.errors.PoolFailureError`.
        backoff: Base sleep (seconds) before retry wave *k*, scaled
            linearly (``backoff * k``) — enough to let a respawned
            pool settle without turning recovery into a stall.
    """

    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.01

    def __post_init__(self) -> None:
        if self.timeout is not None and not self.timeout > 0:
            raise GraphError(
                f"recovery timeout must be > 0 seconds, got {self.timeout}"
            )
        if self.retries < 0:
            raise GraphError(
                f"recovery retries must be >= 0, got {self.retries}"
            )
        if self.backoff < 0:
            raise GraphError(
                f"recovery backoff must be >= 0, got {self.backoff}"
            )

    @classmethod
    def from_env(
        cls, environ: Mapping[str, str] | None = None
    ) -> "RecoveryPolicy":
        """Build the policy named by ``REPRO_MAP_TIMEOUT`` /
        ``REPRO_MAP_RETRIES``.

        Same strict-validation contract as ``REPRO_WORKERS``: garbage
        raises :class:`~repro.errors.GraphError` naming the offending
        variable instead of silently running unsupervised."""
        env = os.environ if environ is None else environ
        raw_timeout = (env.get("REPRO_MAP_TIMEOUT") or "").strip()
        timeout: float | None = None
        if raw_timeout:
            try:
                timeout = float(raw_timeout)
            except ValueError as exc:
                raise GraphError(
                    "REPRO_MAP_TIMEOUT must be a positive number of "
                    f"seconds, got {raw_timeout!r}"
                ) from exc
            if not timeout > 0:
                raise GraphError(
                    "REPRO_MAP_TIMEOUT must be > 0 seconds, got "
                    f"{raw_timeout!r} (unset it for unbounded maps)"
                )
        raw_retries = (env.get("REPRO_MAP_RETRIES") or "").strip()
        retries = 2
        if raw_retries:
            try:
                retries = int(raw_retries)
            except ValueError as exc:
                raise GraphError(
                    "REPRO_MAP_RETRIES must be a non-negative integer, "
                    f"got {raw_retries!r}"
                ) from exc
            if retries < 0:
                raise GraphError(
                    "REPRO_MAP_RETRIES must be >= 0, got "
                    f"{raw_retries!r}"
                )
        return cls(timeout=timeout, retries=retries)


_policy: RecoveryPolicy | None = None


def recovery_policy() -> RecoveryPolicy:
    """The process-wide policy (environment-derived, read lazily once)."""
    global _policy
    if _policy is None:
        _policy = RecoveryPolicy.from_env()
    return _policy


def set_recovery_policy(
    policy: RecoveryPolicy | None,
) -> RecoveryPolicy | None:
    """Replace the process-wide policy; returns the previous value.

    ``None`` resets to "re-read the environment on next use"."""
    global _policy
    previous = _policy
    _policy = policy
    return previous


@contextmanager
def use_recovery(policy: RecoveryPolicy) -> Iterator[RecoveryPolicy]:
    """Temporarily install ``policy`` as the process-wide policy."""
    previous = set_recovery_policy(policy)
    try:
        yield policy
    finally:
        set_recovery_policy(previous)


def _effective_timeout(policy: RecoveryPolicy) -> float | None:
    """The wave deadline: the policy's, or the fault-mode fallback."""
    if policy.timeout is not None:
        return policy.timeout
    return _FAULT_FALLBACK_TIMEOUT if faults_active() else None


@dataclass
class PoolStats:
    """Counted degradations and recoveries for one pool.

    Recovery is invisible in results by design, so these counters are
    the observable: tests assert a fault both fired *and* was absorbed
    here.

    Attributes:
        retries: Retry waves executed across all maps.
        timeouts: Shards whose result did not arrive by the wave
            deadline (hung or dead worker).
        respawns: Times the process pool was torn down and rebuilt
            after suspected worker loss.
        worker_faults: Shards that raised a non-``ReproError``
            exception (injected or real) and were retried.
        dispatch_faults: Parent-side dispatch failures absorbed before
            shard submission.
        attach_failures: Shared-segment attaches that failed
            (``FileNotFoundError``) and were recovered by re-export.
        degraded_exports: Read-only arrays that fell back to per-call
            transient segments because the persistent arena could not
            host them (budget exhaustion or a prior attach failure).
        failures: Maps that exhausted supervision and raised
            :class:`~repro.errors.PoolFailureError`.
    """

    retries: int = 0
    timeouts: int = 0
    respawns: int = 0
    worker_faults: int = 0
    dispatch_faults: int = 0
    attach_failures: int = 0
    degraded_exports: int = 0
    failures: int = 0

    def snapshot(self) -> "PoolStats":
        """An immutable-in-practice copy (callers must not mutate)."""
        return replace(self)


class WorkerPool:
    """Interface: ordered shard execution."""

    def __init__(self) -> None:
        self.stats = PoolStats()

    def map(
        self, fn: Callable[..., Any], tasks: Sequence[tuple]
    ) -> list[Any]:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - interface default
        pass


class SerialPool(WorkerPool):
    """Run every shard in the calling thread, in task order.

    Deliberately unsupervised: this is the reference path the other
    backends are golden-tested against — it must not have failure
    modes of its own, so no fault site fires here and exceptions
    propagate raw.
    """

    def map(self, fn: Callable[..., Any], tasks: Sequence[tuple]) -> list[Any]:
        return [fn(*args) for args in tasks]


@fault_point("pool.dispatch", kinds=("raise", "hang"))
def _dispatch_point() -> None:
    """Injection site: consulted once per map wave, parent-side,
    before any shard is submitted."""
    return None


def _worker_directive(
    *, allow_exit: bool, attach: bool = False
) -> tuple[str, float] | None:
    """Decide a worker-side fault for one shard, parent-side.

    Returns a picklable ``(kind, seconds)`` directive or ``None``.
    The decision is made here — in the coordinator — because fork
    inherits the plan's counters, so consulting it in-worker would
    double-count visits. ``attach`` additionally consults the
    ``arena.attach`` site (process backend only: thread workers never
    attach segments); thread workers share the interpreter, so for
    them ``exit`` degrades to ``raise`` (``allow_exit=False``)."""
    action = maybe_fire("pool.worker")
    if action is None and attach:
        action = maybe_fire("arena.attach")
    if action is None:
        return None
    kind = action.kind
    if kind == "exit" and not allow_exit:
        kind = "raise"
    return (kind, action.seconds)


def _thread_invoke(
    fn: Callable[..., Any],
    args: tuple[Any, ...],
    directive: tuple[str, float] | None,
) -> Any:
    """Thread-worker entry point: execute any fault directive, run."""
    if directive is not None:
        from repro.faults import execute_directive

        execute_directive(directive, allow_exit=False)
    return fn(*args)


class ThreadPool(WorkerPool):
    """Persistent thread pool; arrays are shared by reference."""

    def __init__(self, workers: int) -> None:
        super().__init__()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-shard"
        )

    def map(self, fn: Callable[..., Any], tasks: Sequence[tuple]) -> list[Any]:
        policy = recovery_policy()
        timeout = _effective_timeout(policy)
        results: list[Any] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        wave = 0
        last_exc: BaseException | None = None
        while pending:
            if wave > policy.retries:
                self.stats.failures += 1
                raise PoolFailureError(
                    f"thread map failed: {len(pending)} of {len(tasks)} "
                    f"shards still failing after {policy.retries} "
                    "retry waves"
                ) from last_exc
            if wave:
                self.stats.retries += 1
                time.sleep(policy.backoff * wave)
            try:
                _dispatch_point()
            except Exception as exc:
                self.stats.dispatch_faults += 1
                last_exc = exc
                wave += 1
                continue
            futures: dict[int, Future[Any]] = {
                i: self._executor.submit(
                    _thread_invoke,
                    fn,
                    tuple(tasks[i]),
                    _worker_directive(allow_exit=False),
                )
                for i in pending
            }
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            failed: list[int] = []
            for i, future in futures.items():
                remaining = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                try:
                    results[i] = future.result(remaining)
                except FuturesTimeout as exc:
                    # A timed-out thread cannot be preempted: it may
                    # still be writing to caller-owned output views,
                    # so re-executing its shard would race it. Surface
                    # a typed failure instead of retrying; the caller
                    # must treat shared buffers as poisoned.
                    self.stats.timeouts += 1
                    self.stats.failures += 1
                    for pending_future in futures.values():
                        pending_future.cancel()
                    raise PoolFailureError(
                        f"thread map exceeded its {timeout}s deadline; "
                        "thread shards cannot be safely re-executed "
                        "(the timed-out worker may still hold shared "
                        "buffers), failing the map"
                    ) from exc
                except ReproError:
                    # Deterministic library error, not a fault — the
                    # retry would produce the same answer.
                    raise
                except Exception as exc:
                    self.stats.worker_faults += 1
                    last_exc = exc
                    failed.append(i)
            pending = failed
            wave += 1
        return results

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# Process pool with shared-memory NumPy views
# ----------------------------------------------------------------------
def _attach_shared(ref: SharedArrayRef) -> tuple[Any, np.ndarray]:
    """Attach a read-only view to a shared-memory array (worker side).

    The parent owns the segment lifecycle (create → map → unlink), and
    fork-context workers share the parent's resource-tracker process —
    so the attach must NOT register with the tracker: its register
    message races the parent's unlink-time unregister on the shared
    pipe and leaves phantom names the tracker warns about at exit.
    Python 3.13 has ``track=False`` for exactly this; on 3.11 the
    standard workaround is masking the register call for the attach
    (process-local to the worker, one attach at a time).
    """
    from multiprocessing import resource_tracker, shared_memory

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = shared_memory.SharedMemory(name=ref.name)
    finally:
        resource_tracker.register = original_register
    view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf)
    view.setflags(write=False)
    return shm, view


def _materialize(result: Any) -> Any:
    """Deep-copy array results so nothing returned views shared memory
    (the segment is closed immediately after the task body runs)."""
    if isinstance(result, np.ndarray):
        return np.array(result, copy=True)
    if isinstance(result, tuple):
        return tuple(_materialize(item) for item in result)
    if isinstance(result, list):
        return [_materialize(item) for item in result]
    return result


def _process_invoke(payload: tuple) -> Any:
    """Worker entry point: execute any fault directive shipped from
    the coordinator, resolve shared refs, run, materialize."""
    fn, args, directive = payload
    if directive is not None:
        from repro.faults import execute_directive

        execute_directive(directive, allow_exit=True)
    segments = []
    resolved = []
    try:
        for arg in args:
            if isinstance(arg, SharedArrayRef):
                shm, view = _attach_shared(arg)
                segments.append(shm)
                resolved.append(view)
            else:
                resolved.append(arg)
        return _materialize(fn(*resolved))
    finally:
        for shm in segments:
            shm.close()


class ProcessPool(WorkerPool):
    """Persistent fork-context process pool with shared-memory inputs."""

    def __init__(self, workers: int) -> None:
        import multiprocessing
        import threading

        super().__init__()
        self._workers = workers
        self._context = multiprocessing.get_context("fork")
        self._pool = self._context.Pool(processes=workers)
        self._arena = SharedArena()
        # Whole map calls are serialized per pool: an arena eviction
        # (version bump, budget) happens only inside an export, i.e.
        # inside this lock, so it can never unlink a segment that a
        # concurrent in-flight map of this pool is still about to
        # attach. Shard parallelism is unaffected — the lock gates
        # callers, not workers.
        self._map_lock = threading.Lock()

    def _respawn(self) -> None:
        """Tear down and rebuild the worker pool after suspected
        worker loss (a timed-out shard means a worker hung or died;
        ``terminate`` clears both)."""
        self.stats.respawns += 1
        self._pool.terminate()
        self._pool.join()
        self._pool = self._context.Pool(processes=self._workers)

    def _prepare_args(
        self,
        args: tuple[Any, ...],
        transient: dict[int, tuple[SharedArrayRef, Any]],
        keepalive: list[np.ndarray],
        force_transient: bool,
    ) -> list[Any]:
        """Swap ndarray arguments for shared-memory refs.

        Read-only arrays go through the persistent arena unless
        ``force_transient`` (a prior attach of this task's segments
        failed — a fresh per-call segment sidesteps whatever went
        stale) or the arena itself cannot host them
        (:class:`~repro.errors.ArenaError` after drain exhaustion);
        both fallbacks are counted as ``degraded_exports``."""
        prepared: list[Any] = []
        for arg in args:
            if isinstance(arg, np.ndarray) and arg.nbytes > 0:
                keepalive.append(arg)
                if not arg.flags.writeable and not force_transient:
                    # Invariant input: the persistent arena exports it
                    # at most once per lifetime (or per version tag)
                    # and reuses the segment across map calls.
                    try:
                        prepared.append(self._arena.export(arg))
                        continue
                    except ArenaError:
                        self.stats.degraded_exports += 1
                elif not arg.flags.writeable:
                    self.stats.degraded_exports += 1
                key = id(arg)
                if key not in transient:
                    try:
                        transient[key] = export_segment(arg)
                    except OSError:
                        # Transient exports can hit the same /dev/shm
                        # exhaustion the arena recovers from: drain the
                        # arena's evictable segments and retry once
                        # before surfacing a typed failure.
                        self._arena.drain_evictable()
                        try:
                            transient[key] = export_segment(arg)
                        except OSError as exc:
                            raise ArenaError(
                                "transient shared-memory export failed "
                                "even after draining the arena's "
                                f"evictable segments: requested "
                                f"{int(arg.nbytes)} bytes"
                            ) from exc
                prepared.append(transient[key][0])
            else:
                prepared.append(arg)
        return prepared

    def _discard_cached_exports(self, args: tuple[Any, ...]) -> None:
        """Drop arena entries for a task's read-only arrays after an
        attach failure — the cached segment name may point at an
        externally unlinked segment, and re-export creates a fresh one."""
        for arg in args:
            if (
                isinstance(arg, np.ndarray)
                and arg.nbytes > 0
                and not arg.flags.writeable
            ):
                self._arena.discard(arg)

    def map(self, fn: Callable[..., Any], tasks: Sequence[tuple]) -> list[Any]:
        policy = recovery_policy()
        timeout = _effective_timeout(policy)
        results: list[Any] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        force_transient: set[int] = set()
        wave = 0
        last_exc: BaseException | None = None
        with self._map_lock:
            while pending:
                if wave > policy.retries:
                    self.stats.failures += 1
                    raise PoolFailureError(
                        f"process map failed: {len(pending)} of "
                        f"{len(tasks)} shards still failing after "
                        f"{policy.retries} retry waves"
                    ) from last_exc
                if wave:
                    self.stats.retries += 1
                    time.sleep(policy.backoff * wave)
                try:
                    _dispatch_point()
                except Exception as exc:
                    self.stats.dispatch_faults += 1
                    last_exc = exc
                    wave += 1
                    continue
                transient: dict[int, tuple[SharedArrayRef, Any]] = {}
                keepalive: list[np.ndarray] = []  # pin ids for dedup dicts
                self._arena.begin_map()
                failed: list[int] = []
                lost_worker = False
                try:
                    handles = []
                    for i in pending:
                        prepared = self._prepare_args(
                            tuple(tasks[i]),
                            transient,
                            keepalive,
                            i in force_transient,
                        )
                        payload = (
                            fn,
                            prepared,
                            _worker_directive(allow_exit=True, attach=True),
                        )
                        handles.append(
                            (i, self._pool.apply_async(_process_invoke, (payload,)))
                        )
                    deadline = (
                        None
                        if timeout is None
                        else time.monotonic() + timeout
                    )
                    for i, handle in handles:
                        remaining = (
                            None
                            if deadline is None
                            else max(0.0, deadline - time.monotonic())
                        )
                        try:
                            results[i] = handle.get(remaining)
                        except WorkerTimeoutError as exc:
                            # The shard's result never arrived — the
                            # worker hung or died. Unlike threads, a
                            # respawn preempts it, so the shard is
                            # safely re-executable.
                            self.stats.timeouts += 1
                            lost_worker = True
                            last_exc = exc
                            failed.append(i)
                        except FileNotFoundError as exc:
                            # Segment attach failed (externally
                            # unlinked): discard the stale arena entry
                            # and retry this shard on fresh per-call
                            # segments.
                            self.stats.attach_failures += 1
                            self._discard_cached_exports(tuple(tasks[i]))
                            force_transient.add(i)
                            last_exc = exc
                            failed.append(i)
                        except ReproError:
                            # Deterministic library error, not a fault.
                            raise
                        except Exception as exc:
                            self.stats.worker_faults += 1
                            last_exc = exc
                            failed.append(i)
                finally:
                    for _, shm in transient.values():
                        release_segment(shm)
                    del keepalive
                if lost_worker:
                    self._respawn()
                pending = failed
                wave += 1
        return results

    def close(self) -> None:
        with self._map_lock:
            self._arena.release()
            self._pool.terminate()
            self._pool.join()


register_fault_site("pool.worker", f"{__name__}._worker_directive")
register_fault_site("arena.attach", f"{__name__}._worker_directive")


# ----------------------------------------------------------------------
# Pool selection
# ----------------------------------------------------------------------
_POOLS: dict[tuple[str, int], WorkerPool] = {}
_SERIAL = SerialPool()
_FORK_WARNING = [False]


def _fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method (tests
    monkeypatch this probe to simulate fork-less platforms)."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def reset_fork_warning() -> None:
    """Re-arm the one-time fork-degradation warning.

    The warn-once latch is a module global, so without this hook the
    warning is observable at most once per interpreter — repeated test
    runs in one process could never assert it fired."""
    _FORK_WARNING[0] = False


def _effective_backend(backend: str) -> str:
    """Degrade ``process`` to ``thread`` where ``fork`` is unavailable,
    warning once per session (never crash — the determinism contract
    makes the backends interchangeable for results)."""
    if backend == "process" and not _fork_available():
        if not _FORK_WARNING[0]:
            _FORK_WARNING[0] = True
            warnings.warn(
                "the 'process' parallel backend requires the fork start "
                "method, which this platform does not provide; degrading "
                "to the 'thread' backend (results are identical by the "
                "determinism contract)",
                RuntimeWarning,
                stacklevel=3,
            )
        return "thread"
    return backend


def get_pool(config: ParallelConfig) -> WorkerPool:
    """The cached pool for a config (created lazily, reused forever)."""
    if config.backend == "serial" or config.workers <= 1:
        return _SERIAL
    backend = _effective_backend(config.backend)
    key = (backend, config.workers)
    pool = _POOLS.get(key)
    if pool is None:
        if backend == "thread":
            pool = ThreadPool(config.workers)
        elif backend == "process":
            pool = ProcessPool(config.workers)
        else:  # pragma: no cover - config validates backends
            raise GraphError(f"unknown parallel backend {config.backend!r}")
        _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Close and drop every cached pool (tests call this between
    backends; also registered at interpreter exit)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.close()


atexit.register(shutdown_pools)
