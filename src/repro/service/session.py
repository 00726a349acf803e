"""Session tokens and the connection lifecycle state machine.

A *session* is the server-side identity of one mobile client.  It
outlives any single connection — that is the whole point: the paper's
⟨sleep⟩/⟨awake⟩ pair models a client that keeps its transactional
state while unreachable.  The mapping is:

==========================  =======================================
Connection event            Protocol meaning
==========================  =======================================
``hello`` (no token)        new session, fresh token issued
connection drops            ⟨sleep, A⟩ for every live transaction
``hello`` (with token)      reconnect: ⟨awake, A⟩ revalidation
BTO timeout elapses         ⟨abort, A⟩ — the sleeper overstayed
``bye``                     graceful end (aborts unfinished work)
==========================  =======================================

States: ``CONNECTED`` (live transport attached), ``DETACHED``
(dropped, transactions sleeping, BTO timer armed), ``EXPIRED`` (BTO
fired; reconnects get the abort error frame), ``CLOSED`` (said
``bye``; the token is dead).  Double-connects with a token whose
session is still ``CONNECTED`` are rejected — the first transport
keeps the session.

The store is transport-agnostic: timers go through the driver seam,
so the same state machine runs under the simulator in tests and under
asyncio in production.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable

from repro.errors import SessionExpired, TokenInUse, UnknownToken

#: A frame sink: where the transport wants this session's output.
FrameSink = Callable[[dict[str, Any]], None]


class SessionState(enum.Enum):
    """Connection-lifecycle states of one session."""

    CONNECTED = "connected"
    DETACHED = "detached"
    EXPIRED = "expired"
    CLOSED = "closed"


class Session:
    """One mobile client's server-side identity."""

    __slots__ = ("token", "state", "txns", "finished", "held", "sink",
                 "bto_timer", "aborted_by_bto", "txn_sequence",
                 "connects", "disconnects")

    def __init__(self, token: str) -> None:
        self.token = token
        self.state = SessionState.CONNECTED
        #: live (not yet committed/aborted) transaction ids.
        self.txns: set[str] = set()
        #: outcomes not yet delivered (they landed while detached):
        #: txn id -> "committed" | "aborted".  Drained into the
        #: ``welcome`` frame on reconnect.
        self.finished: dict[str, str] = {}
        #: request-correlated pushes (late grants, apply errors) that
        #: landed while detached; replayed right after the reconnect
        #: welcome so no request id is left dangling by an outage.
        self.held: list[dict[str, Any]] = []
        #: where pushes for this session go; None while detached.
        self.sink: FrameSink | None = None
        #: pending BTO timer handle (armed while DETACHED).
        self.bto_timer: Any = None
        #: transactions the BTO timeout aborted (for the reconnect frame).
        self.aborted_by_bto: tuple[str, ...] = ()
        #: per-session transaction counter (server-assigned txn ids).
        self.txn_sequence = itertools.count(1)
        self.connects = 1
        self.disconnects = 0

    @property
    def connected(self) -> bool:
        return self.state is SessionState.CONNECTED

    def send(self, frame: dict[str, Any]) -> None:
        """Push one frame to the attached transport (drop if detached:
        the client is unreachable, which is exactly what ⟨sleep⟩ means —
        state, not messages, carries across the outage)."""
        if self.sink is not None:
            self.sink(frame)

    def next_txn_id(self) -> str:
        return f"{self.token}.t{next(self.txn_sequence)}"

    def __repr__(self) -> str:
        return (f"<Session {self.token} {self.state.value} "
                f"live={len(self.txns)}>")


class SessionStore:
    """Token directory: issue, resume, expire.

    Token issuance is sequential (``s000001`` ...) — tokens are an
    addressing mechanism, not an authentication one; a deployment
    would swap :meth:`_mint` for a random-token mint without touching
    the state machine.
    """

    def __init__(self) -> None:
        self._sessions: dict[str, Session] = {}
        self._sequence = itertools.count(1)
        #: tokens that turned EXPIRED or CLOSED since the last purge.
        self._dead: list[str] = []

    def __len__(self) -> int:
        return len(self._sessions)

    def values(self):
        return self._sessions.values()

    def get(self, token: str) -> Session | None:
        return self._sessions.get(token)

    def _mint(self) -> str:
        return f"s{next(self._sequence):06d}"

    def create(self) -> Session:
        """Issue a fresh session (a ``hello`` without a token)."""
        session = Session(self._mint())
        self._sessions[session.token] = session
        return session

    def resume(self, token: str) -> Session:
        """Re-attach a detached session (a ``hello`` with a token).

        Raises the taxonomy error the wire layer turns into the
        reject frame: :class:`UnknownToken` for a token never issued,
        :class:`TokenInUse` while another transport holds the session,
        :class:`SessionExpired` (carrying the aborted transaction ids)
        after the BTO timeout, and again for a closed session.
        """
        session = self._sessions.get(token)
        if session is None:
            raise UnknownToken(token)
        if session.state is SessionState.CONNECTED:
            raise TokenInUse(token)
        if session.state is SessionState.EXPIRED:
            raise SessionExpired(token, session.aborted_by_bto)
        if session.state is SessionState.CLOSED:
            raise SessionExpired(token, ())
        session.state = SessionState.CONNECTED
        session.connects += 1
        return session

    def detach(self, session: Session) -> None:
        """The transport dropped: the session survives, unreachable."""
        session.state = SessionState.DETACHED
        session.sink = None
        session.disconnects += 1

    def expire(self, session: Session,
               aborted: tuple[str, ...]) -> None:
        """The BTO timeout fired while detached."""
        self._bury(session)
        session.state = SessionState.EXPIRED
        session.aborted_by_bto = aborted
        session.bto_timer = None
        session.held.clear()  # nothing will ever replay these

    def close(self, session: Session) -> None:
        """Graceful ``bye``: the token will never resume."""
        self._bury(session)
        session.state = SessionState.CLOSED
        session.sink = None
        session.held.clear()

    def _bury(self, session: Session) -> None:
        """Queue ``session`` for the next purge on its way to a dead
        state (EXPIRED and CLOSED are the only ones, and final)."""
        if session.state not in (SessionState.EXPIRED,
                                 SessionState.CLOSED):
            self._dead.append(session.token)

    def purge_finished(self) -> int:
        """Evict every EXPIRED / CLOSED session; returns the count.

        The session-side mirror of the GTM's ``retire_finished``: a
        long-lived daemon must not grow its token directory without
        bound.  :meth:`expire` and :meth:`close` queue each token as it
        dies, so a purge costs the sessions that died since the last
        one, not the size of the directory.  The trade is visible on
        the wire — a purged token resumes as :class:`UnknownToken`
        rather than :class:`SessionExpired` — so eviction is opt-in,
        driven by ``ServiceConfig.retire_finished``.
        """
        dead = self._dead
        for token in dead:
            del self._sessions[token]
        count = len(dead)
        dead.clear()
        return count
