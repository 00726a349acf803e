"""Pluggable deadlock / starvation policing for the admission layer.

Section VII of the paper leaves deadlock handling open: "classical
approaches as timeout or wait for graphs techniques can be used to
detect the deadlock presence".  The seed implemented exactly one choice
(a wait-for graph with a victim heuristic) inline in the GTM; this
module turns the choice into a policy object consulted by the
:class:`~repro.core.admission.AdmissionController` whenever an
invocation must wait:

- :class:`WaitForGraphPolicy` — detection: maintain waiter→holder edges
  and break cycles with a :class:`~repro.ldbs.deadlock.VictimPolicy`
  (the seed behaviour, still the default);
- :class:`WoundWaitPolicy` — prevention: an *older* waiter wounds
  (aborts) a younger blocker instead of queueing behind it;
- :class:`WaitDiePolicy` — prevention: a *younger* waiter dies instead
  of waiting behind an older holder;
- :class:`NoDeadlockPolicy` — trust the workload (the paper's
  single-object experiments cannot deadlock).

Starvation control is the other half of Section VII's policing; those
policies (θ reordering and lock-deny) live in
:mod:`repro.core.starvation` and are re-exported here so both policy
families share one import surface.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from repro.ldbs.deadlock import (
    DeadlockDetector,
    DeadlockResolution,
    VictimPolicy,
)
from repro.core.starvation import (  # noqa: F401 - policy family re-export
    FifoGrantPolicy,
    GrantPolicy,
    LockDenyPolicy,
    PriorityAgingPolicy,
)

StartTimeOf = Callable[[str], float]


class DeadlockPolicy(Protocol):
    """Consulted by the admission controller on every blocked wait."""

    #: How many victims this policy has chosen so far.
    detections: int

    def bind(self, start_time_of: StartTimeOf) -> None:
        """Wire the transaction begin-time lookup (done by the GTM)."""
        ...

    def on_wait(self, waiter: str,
                blockers: Sequence[str]) -> DeadlockResolution | None:
        """``waiter`` queued behind ``blockers``; return a victim or None."""
        ...

    def refresh_wait(self, waiter: str,
                     blockers: Sequence[str]) -> DeadlockResolution | None:
        """Replace ``waiter``'s recorded blockers and re-check (the
        re-police path); equivalent to ``on_stop_waiting`` followed by
        ``on_wait``, but a detection policy keeps the wait-for graph's
        proven-clean nodes when the blocker set is unchanged."""
        ...

    def on_stop_waiting(self, waiter: str) -> None:
        ...

    def on_finished(self, txn_id: str) -> None:
        ...


class _TimestampedPolicy:
    """Shared begin-time plumbing for the concrete policies."""

    def __init__(self) -> None:
        self.detections = 0
        self._start_time_of: StartTimeOf = lambda txn_id: 0.0

    def bind(self, start_time_of: StartTimeOf) -> None:
        self._start_time_of = start_time_of

    def _age_key(self, txn_id: str) -> tuple[float, str]:
        """Sort key: smaller is older (ties broken by id for determinism)."""
        return (self._start_time_of(txn_id), txn_id)

    def refresh_wait(self, waiter: str,
                     blockers: Sequence[str]) -> DeadlockResolution | None:
        self.on_stop_waiting(waiter)
        return self.on_wait(waiter, blockers)

    def on_stop_waiting(self, waiter: str) -> None:
        pass

    def on_finished(self, txn_id: str) -> None:
        pass


class NoDeadlockPolicy(_TimestampedPolicy):
    """Never intervenes: waits are allowed to stand (or time out)."""

    def on_wait(self, waiter: str,
                blockers: Sequence[str]) -> DeadlockResolution | None:
        return None


class WaitForGraphPolicy(_TimestampedPolicy):
    """Detection via the :class:`~repro.ldbs.deadlock.WaitForGraph`.

    The seed's inline behaviour: record the wait edges, search for a
    cycle through the waiter, and pick the victim with ``victim_policy``
    (youngest by default).
    """

    def __init__(self,
                 victim_policy: VictimPolicy = VictimPolicy.YOUNGEST) -> None:
        super().__init__()
        self.detector = DeadlockDetector(
            policy=victim_policy,
            start_time_of=lambda txn_id: self._start_time_of(txn_id))

    def on_wait(self, waiter: str,
                blockers: Sequence[str]) -> DeadlockResolution | None:
        resolution = self.detector.on_wait(waiter, blockers)
        if resolution is not None:
            self.detections += 1
        return resolution

    def refresh_wait(self, waiter: str,
                     blockers: Sequence[str]) -> DeadlockResolution | None:
        resolution = self.detector.refresh_wait(waiter, blockers)
        if resolution is not None:
            self.detections += 1
        return resolution

    def on_stop_waiting(self, waiter: str) -> None:
        self.detector.on_stop_waiting(waiter)

    def on_finished(self, txn_id: str) -> None:
        self.detector.on_finished(txn_id)


class WoundWaitPolicy(_TimestampedPolicy):
    """Prevention: an older waiter *wounds* the youngest younger blocker.

    The admission controller consults the policy in a loop, so every
    younger blocker is wounded in turn until the waiter is either
    granted or only older blockers remain (behind which it may safely
    wait — no cycle can form when waits only ever point at older
    transactions).
    """

    def on_wait(self, waiter: str,
                blockers: Sequence[str]) -> DeadlockResolution | None:
        younger = [txn_id for txn_id in blockers
                   if self._age_key(txn_id) > self._age_key(waiter)]
        if not younger:
            return None
        victim = max(younger, key=self._age_key)
        self.detections += 1
        return DeadlockResolution(victim=victim, cycle=(waiter, victim))


class WaitDiePolicy(_TimestampedPolicy):
    """Prevention: a younger waiter *dies* rather than wait on its elders."""

    def on_wait(self, waiter: str,
                blockers: Sequence[str]) -> DeadlockResolution | None:
        older = [txn_id for txn_id in blockers
                 if self._age_key(txn_id) < self._age_key(waiter)]
        if not older:
            return None
        self.detections += 1
        return DeadlockResolution(victim=waiter,
                                  cycle=(waiter, min(older,
                                                     key=self._age_key)))
