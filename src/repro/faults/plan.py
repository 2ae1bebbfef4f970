"""Deterministic fault injection for the serving layer.

:class:`~repro.serve.FlowServer` recovers from a failed workspace
checkout and retries an unexpected solve failure once.  This module
makes those layers fail on demand, deterministically, so the recovery
paths in :mod:`repro.serve.pool` and :mod:`repro.serve.server` are
pinned by tests instead of waiting for production to exercise them.

Design
------

* **Sites, not hooks.**  Each place a fault can be injected is a named
  *site* from the closed catalogue :data:`SITES` (``serve.checkout``,
  ``serve.miss``).  A site carries a :func:`fault_point`-decorated
  function: the decorator registers the owner in :data:`FAULT_POINTS`
  and wraps it with a one-global-read guard.

* **Deterministic schedules.**  A :class:`FaultPlan` is built from
  explicit :class:`FaultSpec` entries (``site[:kind][@at][*count]`` —
  fire ``count`` times starting at the ``at``-th visit).  Visit
  counters are lock-guarded and per-site, so a given plan fires at
  exactly the same visits on every run.

* **Zero overhead when disarmed.**  With no plan installed and
  ``REPRO_FAULTS`` unset, the guard added by :func:`fault_point` is a
  single module-global read; nothing else in the hot path changes.

The process-wide plan is read lazily from ``REPRO_FAULTS`` (strictly
validated — garbage raises :class:`~repro.errors.FaultSpecError`
naming the valid sites and kinds, never a silent no-op), and tests
install plans explicitly via :func:`set_fault_plan` /
:func:`use_faults`.

Injected failures raise :class:`InjectedFault`, which is deliberately
**not** a :class:`~repro.errors.ReproError`: it models an *unexpected*
crash, and the recovery layers must either absorb it or translate it
into a typed ``ReproError`` — the chaos suite pins that no
``InjectedFault`` ever escapes raw from a public entry point.
"""

from __future__ import annotations

import functools
import os
import re
import threading  # repolint: disable=pool-bypass -- Lock for visit counters only, no pool primitives
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, ParamSpec, TypeVar

from repro.errors import FaultSpecError

__all__ = [
    "FAULT_POINTS",
    "SITES",
    "FaultAction",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "execute_action",
    "fault_point",
    "maybe_fire",
    "parse_fault_specs",
    "plan_from_env",
    "set_fault_plan",
    "use_faults",
]

P = ParamSpec("P")
R = TypeVar("R")

#: The closed catalogue of injection sites and the failure kinds each
#: supports.  ``REPRO_FAULTS`` validation reads this, so the grammar is
#: checkable without importing the owning modules.
SITES: dict[str, tuple[str, ...]] = {
    # FlowServer workspace checkout from the warm pool (a failure
    # falls back to a per-call workspace).
    "serve.checkout": ("raise",),
    # FlowServer miss solve: one demand, from route or a route_batch
    # column (an unexpected failure is retried once; a hang stalls the
    # solve and then lets it run).
    "serve.miss": ("raise", "hang"),
}

#: Site name -> qualified name of the decorated function that owns it.
#: Introspection/diagnostic hook, mirroring ``hotpath.HOT_KERNELS``.
FAULT_POINTS: dict[str, str] = {}

#: How long an injected ``hang`` stalls.  Nothing times the stall out,
#: so it is kept short: an env-driven ``serve.miss:hang`` sweep slows
#: the run rather than stopping it.
DEFAULT_HANG_SECONDS = 0.05


class InjectedFault(RuntimeError):
    """An artificially injected failure.

    Deliberately *not* a :class:`~repro.errors.ReproError`: it stands
    in for the unexpected crashes the recovery layers exist to absorb.
    Seeing one escape a public entry point raw is itself a bug (the
    chaos suite asserts it never happens)."""


@dataclass(frozen=True)
class FaultAction:
    """What a site should do *right now*, as decided by the plan.

    Attributes:
        site: The site that fired.
        kind: One of the site's kinds from :data:`SITES`.
    """

    site: str
    kind: str


_SPEC_RE = re.compile(
    r"^(?P<site>[a-z_][a-z_.]*[a-z_])"
    r"(?::(?P<kind>[a-z_]+))?"
    r"(?:@(?P<at>\d+))?"
    r"(?:\*(?P<count>\d+|inf))?$"
)

#: Sentinel ``count`` meaning "every visit from ``at`` onward".
UNLIMITED = -1


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic injection: fire ``count`` times at a site,
    starting at its ``at``-th visit (1-based).

    The string grammar (``REPRO_FAULTS`` and the :class:`FaultPlan`
    constructor both accept it) is ``site[:kind][@at][*count]``:

    * ``serve.miss`` — raise on the first visit, once;
    * ``serve.miss:hang@3`` — stall the third miss solve;
    * ``serve.checkout@1*2`` — fail the first two workspace checkouts;
    * ``serve.miss:raise@2*inf`` — fail every miss solve from the
      second onward (``count=-1``, :data:`UNLIMITED`).

    Attributes:
        site: A key of :data:`SITES`.
        kind: One of that site's kinds (default: the site's first).
        at: 1-based visit index of the first firing.
        count: Number of consecutive visits that fire
            (:data:`UNLIMITED` for all visits from ``at`` onward).
    """

    site: str
    kind: str = ""
    at: int = 1
    count: int = 1

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{sorted(SITES)}"
            )
        kinds = SITES[self.site]
        if not self.kind:
            object.__setattr__(self, "kind", kinds[0])
        elif self.kind not in kinds:
            raise FaultSpecError(
                f"fault site {self.site!r} does not support kind "
                f"{self.kind!r}; expected one of {kinds}"
            )
        if self.at < 1:
            raise FaultSpecError(
                f"fault spec 'at' must be >= 1 (visits are 1-based), "
                f"got {self.at}"
            )
        if self.count < 1 and self.count != UNLIMITED:
            raise FaultSpecError(
                f"fault spec 'count' must be >= 1 or UNLIMITED (-1), "
                f"got {self.count}"
            )

    def covers(self, visit: int) -> bool:
        """Whether this spec fires on the given 1-based visit."""
        if visit < self.at:
            return False
        return self.count == UNLIMITED or visit < self.at + self.count

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``site[:kind][@at][*count]`` clause."""
        match = _SPEC_RE.match(text.strip())
        if match is None:
            raise FaultSpecError(
                f"malformed fault spec {text!r}; expected "
                "'site[:kind][@at][*count]' with site in "
                f"{sorted(SITES)} (e.g. 'serve.miss:hang@2' or "
                "'serve.checkout*inf')"
            )
        raw_count = match.group("count")
        count = (
            UNLIMITED
            if raw_count == "inf"
            else int(raw_count)
            if raw_count
            else 1
        )
        return cls(
            site=match.group("site"),
            kind=match.group("kind") or "",
            at=int(match.group("at") or 1),
            count=count,
        )


def parse_fault_specs(text: str) -> tuple[FaultSpec, ...]:
    """Parse a comma-separated ``REPRO_FAULTS`` value.

    Empty/whitespace-only input yields no specs; anything else must be
    a comma-separated list of valid clauses — garbage raises
    :class:`~repro.errors.FaultSpecError` naming the bad clause."""
    clauses = [clause.strip() for clause in text.split(",")]
    return tuple(
        FaultSpec.parse(clause) for clause in clauses if clause
    )


class FaultPlan:
    """A deterministic schedule of injected failures.

    Built from explicit :class:`FaultSpec` entries (or their string
    forms); the first spec covering a site's current visit decides
    what that visit does.

    Visit counters are per-site and lock-guarded; :meth:`visits` and
    :meth:`fired` expose snapshots so tests can assert a fault
    actually fired (recovery is supposed to make firing invisible in
    results, so the counters are the only observable).
    """

    def __init__(self, specs: Iterable[FaultSpec | str] = ()) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(
            FaultSpec.parse(spec) if isinstance(spec, str) else spec
            for spec in specs
        )
        self._lock = threading.Lock()
        self._visits: dict[str, int] = {site: 0 for site in SITES}
        self._fired: dict[str, int] = {site: 0 for site in SITES}

    def maybe_fire(self, site: str) -> FaultAction | None:
        """Record a visit to ``site``; return the action to take, if any.

        The first spec covering this visit wins.  Thread-safe; each
        call advances the site's visit counter exactly once."""
        if site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {site!r}; expected one of "
                f"{sorted(SITES)}"
            )
        with self._lock:
            self._visits[site] += 1
            visit = self._visits[site]
            kind: str | None = None
            for spec in self.specs:
                if spec.site == site and spec.covers(visit):
                    kind = spec.kind
                    break
            if kind is None:
                return None
            self._fired[site] += 1
        return FaultAction(site=site, kind=kind)

    def visits(self) -> dict[str, int]:
        """Snapshot of per-site visit counts."""
        with self._lock:
            return dict(self._visits)

    def fired(self) -> dict[str, int]:
        """Snapshot of per-site fired counts."""
        with self._lock:
            return dict(self._fired)


def execute_action(action: FaultAction) -> None:
    """Carry out a fault action: ``hang`` stalls for
    :data:`DEFAULT_HANG_SECONDS` and returns, and every other kind
    raises :class:`InjectedFault`."""
    if action.kind == "hang":
        time.sleep(DEFAULT_HANG_SECONDS)
        return
    raise InjectedFault(
        f"injected {action.kind!r} fault at site {action.site!r}"
    )


# ---------------------------------------------------------------------------
# Process-wide activation: resolved lazily, once, from REPRO_FAULTS, and
# overridable by tests.

_active: FaultPlan | None = None
_resolved: bool = False


def plan_from_env(
    environ: Mapping[str, str] | None = None,
) -> FaultPlan | None:
    """Build the plan named by ``REPRO_FAULTS`` (``None`` when unset).

    The value is a comma-separated list of ``site[:kind][@at][*count]``
    clauses, validated strictly against :data:`SITES` — a typo raises
    :class:`~repro.errors.FaultSpecError` instead of silently running
    fault-free."""
    env = os.environ if environ is None else environ
    raw = (env.get("REPRO_FAULTS") or "").strip()
    if not raw:
        return None
    specs = parse_fault_specs(raw)
    if not specs:
        return None
    return FaultPlan(specs)


def active_plan() -> FaultPlan | None:
    """The process-wide plan (environment-derived, read lazily once)."""
    global _active, _resolved
    if not _resolved:
        _active = plan_from_env()
        _resolved = True
    return _active


def set_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` as the process-wide plan; returns the previous.

    ``None`` means *disarmed* (not "re-read the environment"): tests
    use it to guarantee a fault-free region regardless of
    ``REPRO_FAULTS``."""
    global _active, _resolved
    previous = _active if _resolved else plan_from_env()
    _active = plan
    _resolved = True
    return previous


@contextmanager
def use_faults(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Temporarily install ``plan`` as the process-wide fault plan."""
    previous = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)


def maybe_fire(site: str) -> FaultAction | None:
    """Consult the active plan for ``site`` (``None`` when disarmed)."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.maybe_fire(site)


def fault_point(
    name: str, *, kinds: tuple[str, ...] | None = None
) -> Callable[[Callable[P, R]], Callable[P, R]]:
    """Mark a function as fault-injection site ``name``.

    Registers the function's qualified name in :data:`FAULT_POINTS`
    and wraps it with a guard that consults the active plan before
    each call.  When no plan is armed the guard is one module-global
    read; the wrapped function is exposed as ``__wrapped__`` for
    callers needing the raw object.  ``kinds``, when given, must match
    the site's catalogue entry — a drifting declaration fails at
    import time rather than silently injecting the wrong failure."""
    if name not in SITES:
        raise FaultSpecError(
            f"unknown fault site {name!r}; expected one of "
            f"{sorted(SITES)}"
        )
    if kinds is not None and tuple(kinds) != SITES[name]:
        raise FaultSpecError(
            f"fault site {name!r} supports kinds {SITES[name]}, the "
            f"decorator declared {tuple(kinds)}"
        )

    def decorate(func: Callable[P, R]) -> Callable[P, R]:
        FAULT_POINTS[name] = f"{func.__module__}.{func.__qualname__}"

        @functools.wraps(func)
        def guard(*args: P.args, **kwargs: P.kwargs) -> R:
            if _resolved and _active is None:
                return func(*args, **kwargs)
            action = maybe_fire(name)
            if action is not None:
                execute_action(action)
            return func(*args, **kwargs)

        guard.__fault_point__ = name  # type: ignore[attr-defined]
        return guard

    return decorate
