"""The traced run: spans around the public entry points of each layer.

:func:`installed` patches each layer's public entry points with
wrappers that record a span — name, start, end, parent, transaction —
and restores the originals on exit.  Nothing inside the program
changes; the spans are taken at the layer boundaries, from here.

A layer's *self time* is its span's duration minus the time its child
spans cover.  Spans stay in memory (compact arrays) and are written out
once, when the run ends.

Coroutines cannot be spanned call-to-return — the interval would
include every other task the loop ran meanwhile — so the load
generator's coroutines are spanned *per resumption*: each step from
resume to the next suspension is one span (:class:`StepTimed`).
"""

from __future__ import annotations

import gzip
import os
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable

from hostspeed import clock as _clock


class Tracer:
    """In-memory span store plus per-layer self-time and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.txns: list[str] = [""]
        self._txn_ix: dict[str, int] = {"": 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_txn = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: open spans: [span id, start, child time, txn index]
        self._stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        #: wall seconds from a client send to the service's handle entry.
        self.loop_waits: list[float] = []

    def enter(self, name: str, txn: str | None) -> list:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        parent = stack[-1] if stack else None
        if txn is None:
            txn_ix = parent[3] if parent is not None else 0
        else:
            txn_ix = self._txn_ix.get(txn)
            if txn_ix is None:
                txn_ix = self._txn_ix[txn] = len(self.txns)
                self.txns.append(txn)
        span_id = len(self.span_name)
        self.span_name.append(ix)
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_txn.append(txn_ix)
        start = _clock()
        self.span_start.append(start)
        self.span_end.append(start)
        frame = [span_id, start, 0.0, txn_ix]
        stack.append(frame)
        return frame

    def exit(self, frame: list, name: str) -> None:
        end = _clock()
        duration = end - frame[1]
        self.span_end[frame[0]] = end
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += duration
        self.self_s[name] += duration - frame[2]
        self.calls[name] += 1

    def write(self, path: str) -> int:
        """Write every span as gzip'd TSV; returns the span count."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\ttxn\tstart_us\tend_us\n")
            names, txns = self.names, self.txns
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.span_parent[i]}\t"
                    f"{names[self.span_name[i]]}\t"
                    f"{txns[self.span_txn[i]]}\t"
                    f"{(self.span_start[i] - origin) * 1e6:.1f}\t"
                    f"{(self.span_end[i] - origin) * 1e6:.1f}\n")
        return len(self.span_name)


class StepTimed:
    """Awaitable running ``coro`` with one span per resumption."""

    __slots__ = ("_tracer", "_name", "_coro")

    def __init__(self, tracer: Tracer, name: str, coro) -> None:
        self._tracer = tracer
        self._name = name
        self._coro = coro

    def __await__(self):
        tracer, name, coro = self._tracer, self._name, self._coro
        value: Any = None
        error: BaseException | None = None
        while True:
            frame = tracer.enter(name, None)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.exit(frame, name)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # handed on to the coroutine
                value, error = None, exc


def _txn_from_arg(position: int) -> Callable[[tuple], str | None]:
    """Transaction id of a call: a str id or an object's ``txn_id``."""
    def txn_of(args: tuple) -> str | None:
        if len(args) <= position:
            return None
        arg = args[position]
        if isinstance(arg, str):
            return arg
        return getattr(arg, "txn_id", None)
    return txn_of


def _no_txn(args: tuple) -> None:
    return None


def _frame_txn(position: int) -> Callable[[tuple], str | None]:
    def txn_of(args: tuple) -> str | None:
        if len(args) <= position or not isinstance(args[position], dict):
            return None
        txn = args[position].get("txn")
        return txn if isinstance(txn, str) else None
    return txn_of


class _Patcher:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def span(self, owner: Any, attr: str, name: str,
             txn_of: Callable[[tuple], str | None],
             after: Callable[[tuple, Any], None] | None = None) -> None:
        """Wrap a synchronous callable in a span named ``name``."""
        original = owner.__dict__[attr]
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, txn_of(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame, name)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        self.replace(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


GTM_VERBS = ("begin", "invoke", "apply", "request_commit",
             "try_finish_commit", "abort", "sleep", "awake")


@contextmanager
def installed(tracer: Tracer):
    """Patch every layer's entry points for the duration of the block.

    Install before the service or scheduler is built: some layers hand
    each other bound methods at construction time.
    """
    from repro.core.admission import AdmissionController, GrantOutcome
    from repro.core.commit_pipeline import CommitPipeline
    from repro.core.gtm import GlobalTransactionManager
    from repro.core.sleep_manager import SleepManager
    from repro.core.sst import SSTExecutor
    from repro.core.states import TransactionState
    from repro.ldbs.deadlock import WaitForGraph
    from repro.ldbs.locks import LockManager
    from repro.service import client as client_mod
    from repro.service import protocol as protocol_mod
    from repro.service import server as server_mod
    from repro.service.core import GTMService
    from repro.service.session import SessionStore

    patch = _Patcher(tracer)
    counts = tracer.counts
    first = _txn_from_arg(1)
    try:
        # ldbs.deadlock — the cycle search behind core.policies.
        patch.span(WaitForGraph, "find_cycle", "deadlock.search", first,
                   after=lambda args, cycle: counts.update(
                       ["deadlock.cycles"] if cycle else ()))
        # core.admission
        for attr in ("request", "pump_unlock"):
            patch.span(AdmissionController, attr, "admission", first)
        patch.span(AdmissionController, "flush_repolice",
                   "admission.repolice", _no_txn)
        # core.gtm facade
        for verb in GTM_VERBS:
            after = None
            if verb == "invoke":
                def after(args, outcome):
                    if outcome == GrantOutcome.QUEUED:
                        counts["gtm.invoke.queued"] += 1
            patch.span(GlobalTransactionManager, verb, f"gtm.{verb}",
                       first, after=after)
        # core.commit_pipeline.  try_finish_commit re-enters
        # request_commit on every retry, so a transaction is counted
        # on its first deferral only.
        deferred_txns: set[str] = set()

        def deferred(args, report):
            txn = args[1]
            if (txn.is_in(TransactionState.COMMITTING)
                    and txn.txn_id not in deferred_txns):
                deferred_txns.add(txn.txn_id)
                counts["commit.deferred"] += 1
        patch.span(CommitPipeline, "request_commit", "commit", first,
                   after=deferred)
        patch.span(CommitPipeline, "try_finish_commit", "commit", first)
        patch.span(CommitPipeline, "reconcile", "commit", first,
                   after=lambda args, result: counts.update(
                       ["commit.reconcile"]))
        # core.sleep_manager
        patch.span(SleepManager, "sleep", "sleep", first,
                   after=lambda args, result: counts.update(
                       ["sleep.sleeps"]))
        patch.span(SleepManager, "revalidate", "sleep", first,
                   after=lambda args, conflicted: counts.update(
                       ["sleep.revalidations"]
                       + (["sleep.awake_conflicts"] if conflicted
                          else [])))
        # core.sst
        patch.span(SSTExecutor, "execute", "sst", first,
                   after=lambda args, report: counts.update(
                       {"sst.retries": report.attempts - 1}))
        # ldbs.locks: the 2PL baseline, and the memory LDBS row locks
        patch.span(LockManager, "acquire", "locks.acquire", first)
        # service.session
        for attr in ("create", "resume", "detach"):
            patch.span(SessionStore, attr, "session", _no_txn)
        patch.span(SessionStore, "purge_finished", "session.purge",
                   _no_txn)
        # service.protocol: the codec, wherever it was imported by name.
        def count_bytes(args, data):
            counts["protocol.bytes"] += len(data)
        for module in (protocol_mod, client_mod, server_mod):
            patch.span(module, "encode_frame", "protocol",
                       _frame_txn(0), after=count_bytes)
            patch.span(module, "decode_frame", "protocol", _no_txn)
        # service.core — and the loop wait in front of it: a request's
        # send time is filed under (stream, frame id) and claimed when
        # the service handles that frame.
        sent: dict[tuple[Any, Any], float] = {}
        original_send = client_mod.ServiceClient.__dict__["_send"]

        async def timed_send(self, frame):
            sent[(self.writer._reader, frame.get("id"))] = _clock()
            return await original_send(self, frame)

        patch.replace(client_mod.ServiceClient, "_send", timed_send)

        def claim(stream, frame) -> None:
            counts["service.frames"] += 1
            start = sent.pop((stream, frame.get("id")), None)
            if start is not None:
                tracer.loop_waits.append(_clock() - start)

        patch.span(GTMService, "connect", "service", _frame_txn(1))
        patch.span(GTMService, "handle", "service", _frame_txn(2))
        patch.span(GTMService, "disconnect", "service", _no_txn)
        spanned_connect = GTMService.__dict__["connect"]
        spanned_handle = GTMService.__dict__["handle"]

        def connect(self, frame, sink):
            claim(sink.__self__.reader, frame)
            return spanned_connect(self, frame, sink)

        def handle(self, session, frame):
            claim(session.sink.__self__.reader, frame)
            return spanned_handle(self, session, frame)

        patch.replace(GTMService, "connect", connect)
        patch.replace(GTMService, "handle", handle)
        # service.client: the reader task, per resumption.
        original_read_loop = client_mod.ServiceClient.__dict__["_read_loop"]
        patch.replace(client_mod.ServiceClient, "_read_loop",
                      lambda self: StepTimed(tracer, "client",
                                             original_read_loop(self)))
        yield tracer
    finally:
        patch.restore()
