"""ROMP — the Reliable Ordered Multicast Protocol layer (paper §6).

ROMP receives source-ordered reliable messages from RMP and delivers
Regular / Connect / AddProcessor / RemoveProcessor messages in causal and
total order (Figure 3).  The ordering construction is the classical
Lamport total order the paper cites:

* every message carries a timestamp from the sender's ordering clock,
  strictly increasing per source;
* a receiver may deliver the buffered message with the smallest
  ``(timestamp, source)`` key once it has heard, from *every* member of the
  group, some message (heartbeats included) with timestamp >= that key's
  timestamp — nothing earlier can still arrive, because RMP guarantees
  per-source contiguity and clocks are per-source monotonic.

Suspect and Membership messages are reliable but *not* totally ordered
(Figure 3): they bypass the ordering queue and go straight to PGMP — they
must keep flowing precisely when ordering is stalled by a faulty member.

ROMP also owns the positive-acknowledgement machinery: the ack timestamp
stamped on every outgoing message is the timestamp of this processor's
latest totally-ordered delivery (by the delivery rule, everything at or
below it has been received from all members), and the minimum ack heard
across members drives retransmission-buffer garbage collection (§6).

The delivery rule itself is an :class:`OrderingDiscipline` chosen by
``FTMPConfig.ordering`` (:class:`LamportOrdering`, the paper's rule, by
default).  ROMP keeps what every discipline shares — clock, cover and
ack tracking, stability, buffer GC, the §7 send barrier — and delegates
ordered messages, evaluation, the §7.2 drain and purges to it.

Hot-path engineering: the delivery gate and the stability rule are both
"min over the membership of a per-member monotonic counter".  Instead of
rescanning the membership on every received message, ROMP keeps two lazy
min-heaps (:attr:`_cover_heap` over ``_order_ts``, :attr:`_ack_heap` over
the advertised acks).  Because the tracked values only ever increase, an
update pushes the new value and the query pops entries that no longer
match the live dict — amortized O(log n) per message instead of O(n)
scans at the queue head.  The heaps are rebuilt wholesale whenever the
membership tuple changes (views are rare; the rebuild is one O(n) pass),
which the query detects by tuple identity.  The Lamport ordering queue
keeps a per-source index (``_by_src``) so per-source queries and purges
no longer scan the whole queue.

Heartbeats keep the order moving, so the fixed cost of one datagram
dominates; two rules keep it down.  *Observe once*: the receive path
folds each datagram's header in before RMP sees it and marks it
:attr:`ROMP.observed`, so a message RMP hands up within that same call
is not observed again — one released later from RMP's pending map, or a
deferred heartbeat, is (its liveness refresh belongs to the release
time).  *Stability dirty mark*: an evaluation that delivers nothing
reports stability only after one of its inputs moved since the last
report — our ack, the membership (every min-tracker rebuild, which a
purge forces), or a dissemination floor that is not static (the tree's
moves, so it recomputes every time); a peer ack advance reports at once
through :meth:`ROMP.stability_pulse`.  Only the reporting paths clear
the mark: safe delivery's own recomputation does not report, so it
leaves the mark set.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, FrozenSet, List, Optional, Tuple

from .constants import TOTALLY_ORDERED_TYPES, MessageType
from .messages import FTMPHeader, FTMPMessage, HeartbeatMessage

if TYPE_CHECKING:  # pragma: no cover
    from .datapath import GroupContext

__all__ = ["ROMP", "ROMPStats", "OrderingDiscipline", "LamportOrdering"]


@dataclass
class ROMPStats:
    """Ordering-layer counters (read by E1/E2/E4)."""

    ordered_deliveries: int = 0
    bypass_deliveries: int = 0  #: Suspect/Membership handed straight to PGMP
    max_queue_depth: int = 0
    gc_runs: int = 0
    messages_reclaimed: int = 0


class OrderingDiscipline(ABC):
    """The delivery rule ROMP delegates to; one instance per group.

    :meth:`on_reliable` takes each totally-ordered message RMP hands up
    (False = only staged, nothing to evaluate); :meth:`evaluate` delivers
    what the rule allows now; the §7.2 round drives the transition
    methods; :meth:`drop_after` / :meth:`drop_all` purge a convicted /
    departed source; :meth:`backlog` is the queue depth.  The group calls
    the hooks at its send, stability and view points.
    """

    #: registry name of :attr:`stats` (``group.N.<key>``); None = none
    stats_key: Optional[str] = None
    #: cap on held messages from a source that is not (yet) a member,
    #: so a rogue source cannot grow the backlog unbounded
    _STAGING_CAP = 4096

    def __init__(self, group: "GroupContext", romp: "ROMP"):
        self._g = group
        self._romp = romp
        #: §7.2 drain state while a synced fault view waits to be
        #: installed (set by begin_transition, shaped by the rule)
        self._transition: Optional[tuple] = None

    @abstractmethod
    def on_reliable(self, msg: FTMPMessage) -> bool: ...
    @abstractmethod
    def evaluate(self) -> None: ...
    @abstractmethod
    def begin_transition(self, survivors: FrozenSet[int], cut_ts: int,
                         targets: Optional[Dict[int, int]]) -> None: ...
    @abstractmethod
    def transition_drained(self, cut_ts: int) -> bool: ...
    @abstractmethod
    def drop_after(self, src: int, seq_cutoff: int) -> int: ...
    @abstractmethod
    def drop_all(self, src: int) -> int: ...
    @abstractmethod
    def backlog(self) -> int: ...

    def end_transition(self) -> None:
        """The fault view was installed, or the round was superseded."""
        self._transition = None

    # -- hooks (no-ops unless a rule needs them) -------------------------
    def on_own_send(self, msg: FTMPMessage) -> None: ...
    def release_stable(self, stable: int) -> None: ...
    def begin_install(self) -> None: ...
    def on_view_installed(self, prev_membership: Tuple[int, ...], reason: str) -> None: ...
    def on_join_completed(self) -> None: ...
    def on_fault_view(self, removed: Tuple[int, ...]) -> None: ...
    def flush_staging(self, src: int) -> None: ...

    def unsafe_held(self) -> int:
        """Messages ordered but held for stability (safe delivery)."""
        return 0

    def leader(self) -> Optional[int]:
        """The pid whose stream defines the order; None if symmetric."""
        return None

    def head(self) -> Optional[Tuple[int, int]]:
        """``(timestamp, source)`` of the next message the rule would
        deliver; None when nothing is queued or the rule has no head."""
        return None


class LamportOrdering(OrderingDiscipline):
    """The paper's rule (§6): deliver the smallest ``(timestamp, source)``
    key once ROMP's cover shows every member heard past its timestamp."""

    def __init__(self, group: "GroupContext", romp: "ROMP"):
        super().__init__(group, romp)
        #: ordering queue: (timestamp, source, insertion seq, message)
        self._queue: List[Tuple[int, int, int, FTMPMessage]] = []
        self._queue_keys: set = set()  #: (ts, src) pairs currently queued
        #: per-source queue index: src -> {timestamp: sequence number}
        self._by_src: Dict[int, Dict[int, int]] = {}
        self._insertion = 0
        #: ordered messages from sources not (yet) in the membership,
        #: flushed into the queue when an AddProcessor admits the source
        self._staging: Dict[int, List[FTMPMessage]] = {}
        #: safe-delivery hold queue: ordered Regulars awaiting stability
        self._unsafe: Deque[FTMPMessage] = deque()
        #: keys of queued messages from members removed by a fault view —
        #: still deliverable (virtual synchrony grandfathering)
        self._legacy: set = set()

    def on_reliable(self, msg: FTMPMessage) -> bool:
        h = msg.header
        if h.source not in self._romp._gate_set:
            # A source that is not (yet) a member: stage its ordered
            # messages until an AddProcessor admits it — never let a
            # non-member block the head of the ordering queue.
            stage = self._staging.setdefault(h.source, [])
            if len(stage) < self._STAGING_CAP:
                stage.append(msg)
            return False
        self._enqueue(msg)
        return True

    def _enqueue(self, msg: FTMPMessage) -> None:
        h = msg.header
        key = (h.timestamp, h.source)
        if key in self._queue_keys:
            return
        self._queue_keys.add(key)
        self._by_src.setdefault(h.source, {})[h.timestamp] = h.sequence_number
        heapq.heappush(self._queue, (h.timestamp, h.source, self._insertion, msg))
        self._insertion += 1
        stats = self._romp.stats
        if len(self._queue) > stats.max_queue_depth:
            stats.max_queue_depth = len(self._queue)

    def evaluate(self) -> None:
        """Deliver every queue message whose timestamp is covered by all members."""
        romp = self._romp
        self.release_stable()  # membership/ack changes may unblock safe holds
        delivered_any = False
        while self._queue:
            ts, src, _ins, msg = self._queue[0]
            romp._sync_gate()
            if self._transition is not None:
                # Fault-view drain (§7.2): the old view's messages are
                # delivered gated only on the survivors — the convicted
                # member's stream is synced and can no longer grow — and
                # nothing of the *new* view is delivered until the view
                # is installed, so every survivor cuts its delivery
                # history at exactly the same timestamp.
                survivors, cut = self._transition
                if ts > cut:
                    break
                if src not in romp._gate_set and (ts, src) not in self._legacy:
                    break
                order = romp._order_ts
                if not all(order.get(p, 0) >= ts for p in survivors):
                    break
            else:
                if src not in romp._gate_set and (ts, src) not in self._legacy:
                    # A not-yet-added member's message: it always follows the
                    # AddProcessor (smaller timestamp) in the queue; if the
                    # source will never join, the view change purges it.
                    # (Messages grandfathered by a fault view are delivered.)
                    break
                cover = romp._cover_ts()
                if cover is not None and cover < ts:
                    break
            heapq.heappop(self._queue)
            self._queue_keys.discard((ts, src))
            self._legacy.discard((ts, src))
            index = self._by_src.get(src)
            if index is not None:
                index.pop(ts, None)
                if not index:
                    del self._by_src[src]
            romp.advance_ack(ts)
            romp.stats.ordered_deliveries += 1
            delivered_any = True
            self._dispatch(msg)
        if delivered_any:
            romp.stability_pulse()
        else:
            romp._notify_stability()

    def _dispatch(self, msg: FTMPMessage) -> None:
        t = msg.header.message_type
        if t == MessageType.REGULAR:
            if self._g.config.delivery_mode == "safe":
                # hold until the ack timestamps prove every member has it
                self._unsafe.append(msg)
                self.release_stable()
                return
            self._g.deliver_regular(msg)  # type: ignore[arg-type]
        else:
            # Connect / AddProcessor / RemoveProcessor reach PGMP at their
            # position in the total order, so every member applies the
            # membership change at the same point in the message stream.
            self._g.pgmp_receive_ordered(msg)

    def release_stable(self, stable: Optional[int] = None) -> None:
        if not self._unsafe:
            return
        if stable is None:
            stable = self._romp.stability_timestamp()
        while self._unsafe and self._unsafe[0].header.timestamp <= stable:
            msg = self._unsafe.popleft()
            self._g.deliver_regular(msg)  # type: ignore[arg-type]

    def unsafe_held(self) -> int:
        return len(self._unsafe)

    # -- §7.2 drain ---------------------------------------------------------
    def begin_transition(self, survivors: FrozenSet[int], cut_ts: int,
                         targets: Optional[Dict[int, int]]) -> None:
        self._transition = (survivors, cut_ts)  # (survivor set, cut timestamp)

    def transition_drained(self, cut_ts: int) -> bool:
        """The head of the queue (if any) already belongs to the new view."""
        return not self._queue or self._queue[0][0] > cut_ts

    # -- membership -----------------------------------------------------------
    def flush_staging(self, src: int) -> None:
        """Deliberately does NOT evaluate: the caller (view installation)
        evaluates after the view-change listener has fired, so state
        captured "at the view change" really precedes the first delivery
        of the new view."""
        for msg in self._staging.pop(src, ()):  # preserves arrival (seq) order
            self._enqueue(msg)

    def _drop_keys(self, src: int, timestamps) -> int:
        """Remove the given (timestamp, ``src``) keys from the queue."""
        doomed = set(timestamps)
        if not doomed:
            return 0
        self._queue = [
            e for e in self._queue if not (e[1] == src and e[0] in doomed)
        ]
        heapq.heapify(self._queue)
        for ts in doomed:
            self._queue_keys.discard((ts, src))
        index = self._by_src.get(src)
        if index is not None:
            for ts in doomed:
                index.pop(ts, None)
            if not index:
                del self._by_src[src]
        return len(doomed)

    def drop_after(self, src: int, seq_cutoff: int) -> int:
        """The rest of ``src``'s queued messages stays deliverable after
        its removal (grandfathered past the membership gate); its staged
        ones never will be."""
        self._staging.pop(src, None)
        index = self._by_src.get(src, {})
        dropped = self._drop_keys(
            src, [ts for ts, seq in index.items() if seq > seq_cutoff]
        )
        self._legacy.update((ts, src) for ts in self._by_src.get(src, ()))
        return dropped

    def drop_all(self, src: int) -> int:
        self._staging.pop(src, None)
        index = self._by_src.get(src)
        if not index:
            return 0
        return self._drop_keys(src, list(index))

    def backlog(self) -> int:
        return len(self._queue)

    def head(self) -> Optional[Tuple[int, int]]:
        if not self._queue:
            return None
        ts, src, _ins, _msg = self._queue[0]
        return (ts, src)


class ROMP:
    """One ROMP instance per (processor, group) pair."""

    def __init__(self, group: "GroupContext",
                 discipline: type[OrderingDiscipline] = LamportOrdering):
        self._g = group
        #: max timestamp of the contiguous message stream per source
        self._order_ts: Dict[int, int] = {}
        #: latest ack timestamp advertised by each source
        self._peer_ack: Dict[int, int] = {}
        #: my positive acknowledgment: ts of the latest ordered delivery
        self._ack = 0
        #: quiescence barrier after a Connect (§7): no ordered sends until
        #: every member has been heard past this timestamp
        self._send_barrier: Optional[int] = None
        #: highest stability timestamp already reported upward (the
        #: flow-control credit window recycles on this signal)
        self._stable_notified = 0
        #: membership tuple the incremental min trackers were built for;
        #: compared by identity (membership tuples are replaced, never
        #: mutated), so the steady-state staleness check is one ``is``
        self._gate_members: Optional[Tuple[int, ...]] = None
        self._gate_set: FrozenSet[int] = frozenset()
        #: lazy min-heap of (order_ts, pid) entries over the membership
        self._cover_heap: List[Tuple[int, int]] = []
        #: lazy min-heap of (ack, pid) entries over the membership
        self._ack_heap: List[Tuple[int, int]] = []
        #: the dissemination's aggregated stability floor (0 = none)
        self._floor = group.dissemination.stability_floor
        #: value of the stability mark once a report cleared it: False
        #: when the floor is static, True when it can move on its own
        self._floor_moves = not group.dissemination.static_floor
        #: an input of :meth:`stability_timestamp` may have moved since
        #: its value was last reported (see the module docstring)
        self._stability_dirty = True
        #: header of the datagram the receive path is feeding through RMP,
        #: already folded in by :meth:`observe_header`; None between
        #: datagrams
        self.observed: Optional[FTMPHeader] = None
        self.stats = ROMPStats()
        #: the delivery rule (paper §6 by default)
        self.ordering: OrderingDiscipline = discipline(group, self)

    # ------------------------------------------------------------------
    # incremental gate/stability min tracking
    # ------------------------------------------------------------------
    def _sync_gate(self) -> None:
        """Rebuild the min trackers if the membership tuple was replaced."""
        m = self._g.membership
        if m is self._gate_members:
            return
        self._gate_members = m
        self._gate_set = frozenset(m)
        self._stability_dirty = True
        cover = [(self._order_ts.get(p, 0), p) for p in m]
        heapq.heapify(cover)
        self._cover_heap = cover
        pid = self._g.pid
        acks = [
            (self._ack if p == pid else self._peer_ack.get(p, 0), p) for p in m
        ]
        heapq.heapify(acks)
        self._ack_heap = acks

    def _cover_ts(self) -> Optional[int]:
        """Min of ``_order_ts`` over the membership; None when it is empty.

        Amortized O(1): stale heap entries (superseded by a later advance)
        are popped on sight; every member always has its current value on
        the heap, so the first live entry is the true minimum.
        """
        self._sync_gate()
        if not self._gate_set:
            return None
        heap = self._cover_heap
        order = self._order_ts
        while heap:
            ts, p = heap[0]
            if order.get(p, 0) == ts:
                return ts
            heapq.heappop(heap)
        return 0  # unreachable in practice: every member keeps a live entry

    # ------------------------------------------------------------------
    # observation of every datagram (clock, acks, liveness)
    # ------------------------------------------------------------------
    def observe_header(self, h: FTMPHeader) -> None:
        """Fold in clock/ack/liveness information from any received header."""
        self._g.clock.observe(h.timestamp)
        src = h.source
        ack = h.ack_timestamp
        if ack > self._peer_ack.get(src, 0):
            self._peer_ack[src] = ack
            if src in self._gate_set:
                heapq.heappush(self._ack_heap, (ack, src))
            self.stability_pulse()
        self._g.note_alive(src)

    # ------------------------------------------------------------------
    # inputs from RMP
    # ------------------------------------------------------------------
    def receive(self, msg: FTMPMessage) -> None:
        """A reliable message, delivered by RMP in source order."""
        h = msg.header
        if h is not self.observed:
            self.observe_header(h)
        self.advance_order_ts(h.source, h.timestamp)
        self._sync_gate()
        if h.message_type in TOTALLY_ORDERED_TYPES:
            if not self.ordering.on_reliable(msg):
                return
        else:
            # Suspect / Membership: reliable, source-ordered, NOT total order
            if h.source not in self._gate_set:
                return  # stale control traffic from an evicted processor
            self.stats.bypass_deliveries += 1
            self._g.pgmp_receive_source_ordered(msg)
        self.evaluate()

    def receive_heartbeat(self, msg: HeartbeatMessage) -> None:
        """A heartbeat whose seq is contiguous with its source's stream."""
        h = msg.header
        if h is not self.observed:
            self.observe_header(h)
        self.advance_order_ts(h.source, h.timestamp)
        self.evaluate()

    def advance_order_ts(self, src: int, ts: int) -> None:
        """Advance ``src``'s contiguous-stream timestamp to ``ts``.

        The overlay's §6 aggregation calls this from a progress entry,
        which is sound only after it verified local contiguity through
        the entry's sequence number: the entry claims every message from
        ``src`` with timestamp <= ``ts`` has seq <= that number, so
        nothing below ``ts`` can still arrive from ``src``.
        """
        if ts > self._order_ts.get(src, 0):
            self._order_ts[src] = ts
            if src in self._gate_set:
                heapq.heappush(self._cover_heap, (ts, src))

    def evaluate(self) -> None:
        """Run the discipline's delivery rule, then re-check the §7 barrier."""
        self.ordering.evaluate()
        self._check_send_barrier()

    # ------------------------------------------------------------------
    # acknowledgements & buffer management
    # ------------------------------------------------------------------
    @property
    def ack_timestamp(self) -> int:
        """Value stamped into the ack field of every outgoing message."""
        return self._ack

    def advance_ack(self, ts: int) -> None:
        """Raise our positive acknowledgement to ``ts`` (never lowers it)."""
        if ts > self._ack:
            self._ack = ts
            self._stability_dirty = True
            if self._g.pid in self._gate_set:
                heapq.heappush(self._ack_heap, (ts, self._g.pid))

    def stability_timestamp(self) -> int:
        """Everything at/below this timestamp is stable (§6).

        The legacy signal is the min over members of their directly heard
        acks; the dissemination's aggregated floor (the overlay tree's —
        a sound lower bound over the same membership; 0 when flat) is
        folded in, so stability keeps advancing even though most members
        never hear each other's acks directly.
        """
        legacy = self._legacy_stability()
        floor = self._floor()
        return floor if floor > legacy else legacy

    def _legacy_stability(self) -> int:
        """min over members of their acks, amortized O(1) via the lazy
        ack min-heap (acks only increase)."""
        self._sync_gate()
        if not self._gate_set:
            return 0
        heap = self._ack_heap
        pid = self._g.pid
        peer = self._peer_ack
        while heap:
            ack, p = heap[0]
            if (self._ack if p == pid else peer.get(p, 0)) == ack:
                return ack
            heapq.heappop(heap)
        return 0  # unreachable in practice: every member keeps a live entry

    def gating(self) -> Optional[Dict[str, object]]:
        """What the delivery gate waits on, for diagnostics (on demand).

        ``member`` is the member at the top of the lazy cover heap — the
        one whose stream was heard least far — ``cover_ts`` its order
        timestamp, and ``head`` the ``(timestamp, source)`` key at the
        head of the discipline's queue (None when empty).  None when the
        membership is empty.
        """
        cover = self._cover_ts()
        if cover is None:
            return None
        heap = self._cover_heap
        return {"member": heap[0][1] if heap else None, "cover_ts": cover,
                "head": self.ordering.head()}

    def cover_timestamp(self) -> int:
        """Public cover accessor: the stream heard contiguously from every
        member (the overlay aggregation's per-member input)."""
        cover = self._cover_ts()
        return 0 if cover is None else cover

    def stability_pulse(self) -> None:
        """Stability may have advanced: release safe holds, report the
        advance upward and collect the retransmission buffer."""
        # stability_timestamp() walks the lazy ack heap (and the overlay
        # floor); compute it once and thread the value through the three
        # consumers — this runs on every ack advance under load
        stable = self.stability_timestamp()
        self._stability_dirty = self._floor_moves
        self.ordering.release_stable(stable)
        self._notify_stability(stable)
        if not self._g.config.buffer_gc_enabled:
            return
        if stable > 0:
            reclaimed = self._g.buffer.collect(stable)
            if reclaimed:
                self.stats.gc_runs += 1
                self.stats.messages_reclaimed += reclaimed

    def _notify_stability(self, stable: Optional[int] = None) -> None:
        """Report stability advances upward (flow-control credit releases).

        Stability can also jump without new traffic — e.g. a fault view
        removing the slowest member — so :meth:`evaluate` calls this too,
        not just the ack-advance path; without ``stable`` it recomputes
        only when the dirty mark says an input moved.
        """
        if stable is None:
            self._sync_gate()  # a replaced membership sets the mark
            if not self._stability_dirty:
                return
            stable = self.stability_timestamp()
            self._stability_dirty = self._floor_moves
        if stable > self._stable_notified:
            self._stable_notified = stable
            self._g.on_stability_advance(stable)

    def unsafe_held(self) -> int:
        """Messages totally ordered but awaiting stability (safe mode)."""
        return self.ordering.unsafe_held()

    # ------------------------------------------------------------------
    # quiescence barrier after Connect (§7)
    # ------------------------------------------------------------------
    def set_send_barrier(self, timestamp: int) -> None:
        """Block ordered sends until all members are heard past ``timestamp``."""
        if self._send_barrier is None or timestamp > self._send_barrier:
            self._send_barrier = timestamp
        self._check_send_barrier()

    def can_send_ordered(self) -> bool:
        """True when no Connect barrier is pending (§7 quiescence rule)."""
        return self._send_barrier is None

    def _check_send_barrier(self) -> None:
        if self._send_barrier is None:
            return
        barrier = self._send_barrier
        cover = self._cover_ts()
        if cover is None:
            # an empty membership (e.g. a still-joining group) must NOT
            # clear the §7 quiescence barrier — it holds until real
            # members have actually been heard past it
            return
        if cover > barrier:
            self._send_barrier = None
            self._g.on_send_barrier_cleared()

    # ------------------------------------------------------------------
    # fault-view transition drain (§7.2)
    # ------------------------------------------------------------------
    def begin_transition(
        self,
        survivors: FrozenSet[int],
        cut_ts: int,
        targets: Optional[Dict[int, int]] = None,
    ) -> None:
        """Start draining the old view's messages before a fault view.

        Until :meth:`end_transition`, queued messages with timestamp <=
        ``cut_ts`` are delivered gated only on ``survivors`` (the convicted
        member's synced stream cannot grow, so waiting on it would stall
        forever), and messages of the new view (timestamp > ``cut_ts``)
        are held back.  All survivors agree on ``cut_ts``, so their
        delivery histories cut at exactly the same point — the virtual
        synchrony guarantee the oracles check.

        ``targets`` is the synchronized per-source sequence vector of the
        round; the LLFT discipline needs it (the leader's stream cut is a
        sequence number, not a timestamp) and the Lamport rule ignores it.
        """
        self.ordering.begin_transition(frozenset(survivors), cut_ts, targets)
        self.evaluate()

    def end_transition(self) -> None:
        self.ordering.end_transition()

    def transition_drained(self, cut_ts: int) -> bool:
        """True when every old-view message has been delivered."""
        return self.ordering.transition_drained(cut_ts)

    # ------------------------------------------------------------------
    # membership-change support
    # ------------------------------------------------------------------
    def purge_source(self, src: int, clean: bool = False) -> None:
        """Forget a departed member's clock and ack (its undelivered
        messages are the discipline's: the caller drops them first with
        ``ordering.drop_all`` or, after a §7.2 sync, ``drop_after``).

        ``clean`` marks a graceful (§7.1 ordered) departure.  Only then is
        the member's final clock handed to the dissemination for
        re-emission: a laggard that has not ordered the RemoveProcessor
        yet still gates its cover on that clock, and delivering the
        removal here required our cover — hence this order timestamp — to
        reach the removal's timestamp, so the snapshot is exactly the
        evidence the laggard is missing.  A *convicted* (crashed) member's
        clock must NOT be re-emitted: the entries would keep refreshing
        the dead member's liveness at laggards, suppressing the very
        suspicion that lets them join the §7.2 fault round — their only
        path to the new view.
        """
        if clean:
            self._g.dissemination.note_departure(src, self._order_ts.get(src, 0))
        self._order_ts.pop(src, None)
        self._peer_ack.pop(src, None)
        # the min trackers may hold entries for the purged source whose
        # live value just vanished; force a rebuild at the next query
        # (which also marks stability dirty)
        self._gate_members = None

    def order_ts(self, src: int) -> int:
        """Timestamp up to which ``src``'s stream has been heard contiguously."""
        return self._order_ts.get(src, 0)

    def queued(self) -> int:
        """Current ordering backlog (the discipline's queue depth)."""
        return self.ordering.backlog()
