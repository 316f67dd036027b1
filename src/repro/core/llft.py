"""LLFT — the leader-follower fast-path ordering engine (extension).

The legacy ROMP total order (paper §6) is symmetric: a message is
delivered once *every* member's stream has been heard past its timestamp,
which puts an all-member wait — heartbeat-bound at low load — on the
delivery critical path.  The Low Latency Fault Tolerance line of work
(arXiv 1004.1864) removes that wait with an asymmetric discipline, which
``FTMPConfig.ordering = "llft"`` selects:

* **the total order is the leader's reliable FIFO stream.**  The leader's
  own ordered messages deliver at their position in its stream, carrying
  their original timestamps;
* every other member's ordered message is *announced*: the leader, on
  receiving it, assigns it a fresh timestamp from its clock and multicasts
  a small :data:`ORDER_INFO_CID` Regular inside its own stream naming
  ``(source, sequence number, assigned timestamp)``.  The message delivers
  everywhere at the announcement's stream position, restamped with the
  assigned timestamp — so delivered ``(timestamp, source)`` keys are
  identical at every member and strictly increasing (they all come from
  the leader's single monotonic clock);
* the **leader delivers immediately**: its own sends at send time, other
  members' messages at receipt — no ack-stability wait on the critical
  path.  Followers deliver one leader hop later;
* **stability (§6) advances asynchronously** off the piggybacked acks.
  In LLFT mode a processor's advertised ack is its *cover* timestamp (the
  stream heard contiguously from every member), so the group-wide
  stability minimum still soundly drives retransmission-buffer GC and the
  flow-control credit window — it just left the delivery path;
* at a **view change** the §7.2 drain machinery reconciles the leader's
  stream suffix: every survivor processes the old leader's stream through
  the synchronized cut, the new leader announces the surviving backlog in
  one takeover batch, and followers adopt the new leader's order from its
  takeover announcement onward — so virtual synchrony holds and the
  oracle battery runs unchanged.

:class:`LeaderOrdering` is the group's :class:`~.romp.OrderingDiscipline`
when ``ordering`` is ``"llft"``; no other discipline touches this module.

Wire format: an announcement is an ordinary Regular message (it rides
RMP's reliability, retention and batching unchanged) whose connection id
is the reserved :data:`ORDER_INFO_CID` sentinel and whose payload is a
count-prefixed list of ``(source u32, seq u32, assigned_ts u64)`` entries,
little-endian.  Announcements never consume flow-control credits: like
heartbeats and NACKs they are exactly the traffic that keeps the group
advancing.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, FrozenSet, List, Optional, Tuple

from .constants import MessageType
from .messages import ConnectionId, FTMPMessage, RegularMessage
from .romp import OrderingDiscipline

if TYPE_CHECKING:  # pragma: no cover
    from .datapath import ProcessorGroup
    from .romp import ROMP

__all__ = ["ORDER_INFO_CID", "LLFTStats", "LeaderOrdering",
           "encode_order_info", "decode_order_info"]

#: Reserved connection id marking a Regular message as an LLFT ordering
#: announcement rather than application traffic.
ORDER_INFO_CID = ConnectionId(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)

_ENTRY = struct.Struct("<IIQ")
_COUNT = struct.Struct("<I")


def encode_order_info(entries: List[Tuple[int, int, int]]) -> bytes:
    """Pack ``(source, seq, assigned_ts)`` entries into an OrderInfo payload."""
    return _COUNT.pack(len(entries)) + b"".join(
        _ENTRY.pack(src, seq, ts) for src, seq, ts in entries
    )


def decode_order_info(payload: bytes) -> List[Tuple[int, int, int]]:
    """Unpack an OrderInfo payload (inverse of :func:`encode_order_info`)."""
    (n,) = _COUNT.unpack_from(payload, 0)
    return [_ENTRY.unpack_from(payload, _COUNT.size + i * _ENTRY.size)
            for i in range(n)]


@dataclass
class LLFTStats:
    """Leader-follower fast-path counters (read by E20 and the oracles)."""

    fast_path_deliveries: int = 0  #: leader's own sends delivered at send
    announced: int = 0  #: messages assigned a position by this leader
    orderinfos_sent: int = 0  #: announcement messages multicast
    takeover_batches: int = 0  #: view-install backlog announcements
    adopted_deliveries: int = 0  #: follower deliveries via announcements
    stream_deliveries: int = 0  #: follower deliveries of leader-stream items
    parked: int = 0  #: messages held while quiescent / not leader
    entries_skipped: int = 0  #: §7.2 beyond-the-cut entries dropped
    entries_skipped_prebaseline: int = 0  #: entries below our join baseline
    stale_discards: int = 0  #: duplicate arrivals below the consumed top


class LeaderOrdering(OrderingDiscipline):
    """Per-group LLFT ordering discipline (one instance, leader or follower).

    Every processor runs the same engine; the asymmetry is the ``leader()``
    computation.  All ordered traffic flows through ``_pending`` — one
    arrival-order deque per source — and is consumed strictly head-first
    per source (RMP delivers each source exactly once, gap-free, in
    sequence order), so announcement resolution is always a head pop.
    """

    #: entries per coalesced backlog OrderInfo (keeps one announcement
    #: datagram comfortably under the batcher's size limits)
    _ANNOUNCE_CAP = 64

    stats_key = "llft"

    def __init__(self, group: "ProcessorGroup", romp: "ROMP"):
        super().__init__(group, romp)
        #: per-source backlog in arrival (= sequence) order; includes our
        #: own parked sends and non-member staging
        self._pending: Dict[int, Deque[FTMPMessage]] = {}
        #: highest sequence number consumed (delivered or skipped) per
        #: source; arrivals at or below it are stale duplicates
        self._announced_top: Dict[int, int] = {}
        #: True between a leader change and the new leader's takeover
        #: announcement: the old pending prefix of the new leader's stream
        #: is only deliverable through the takeover entries
        self._adopting = False
        #: True from the start of install_view until on_view_installed has
        #: flushed the backlog: a send from the view-change listener must
        #: park rather than fast-path ahead of the takeover batch
        self._installing = False
        self._processing = False
        self.stats = LLFTStats()

    # ------------------------------------------------------------------
    # leadership
    # ------------------------------------------------------------------
    def leader(self) -> int:
        """The current leader: the configured pid while it is a member,
        else the smallest member pid (deterministic at every processor)."""
        return self._leader_of(self._g.membership)

    def _leader_of(self, membership: Tuple[int, ...]) -> int:
        preferred = self._g.config.llft_leader_pid
        if preferred and preferred in membership:
            return preferred
        return min(membership) if membership else self._g.pid

    def _quiescent(self) -> bool:
        """True while ordering decisions must be parked: an unresolved
        fault round, or the §7.2 drain before a fault view installs."""
        return self._transition is not None or self._g.pgmp.in_fault_round

    def _live_leader(self) -> bool:
        return (
            not self._g.joining
            and not self._installing
            and not self._quiescent()
            and self.leader() == self._g.pid
        )

    def _congested(self) -> bool:
        """True while our §6 credit window is exhausted.

        An uncongested leader announces each arrival on the spot (the
        low-latency path).  Once the stability feedback says the group
        cannot absorb more of our stream, per-arrival announcements would
        pour unthrottled control traffic into the very backlog the
        credits exist to bound — so arrivals park instead, and the next
        :meth:`_leader_drain` after credits recycle announces the whole
        backlog as one coalesced OrderInfo.  Announcement *latency*
        degrades to the stability period exactly when everything else is
        equally backlogged; announcement *throughput* stays bounded.
        """
        flow = self._g.flow
        return flow.enabled and (flow.blocked or flow.credits <= 0)

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------
    def on_own_send(self, msg: FTMPMessage) -> None:
        """Hook after one of our ordered messages went to the wire.

        The live leader delivers immediately — this *is* the fast path:
        local delivery at the message's position in our own stream, no
        all-member wait.  Everyone else (and a quiescent leader) parks;
        our loopback copy is discarded on arrival, so the parked object
        is the single local representative of the send.
        """
        pid = self._g.pid
        if self._live_leader() and not self._pending.get(pid):
            self.stats.fast_path_deliveries += 1
            self._deliver(msg)
            return
        self.stats.parked += 1
        self._pending.setdefault(pid, deque()).append(msg)

    def on_reliable(self, msg: FTMPMessage) -> bool:
        """Hook for every totally-ordered message RMP hands up.

        Called by ROMP after the clock/cover bookkeeping.  Our own
        loopbacks were already consumed at send time; everything else is
        either announced on the spot (live leader) or parked until the
        leader's stream orders it.  ROMP evaluates after every arrival.
        """
        h = msg.header
        src = h.source
        if src == self._g.pid:
            return True  # own loopback: consumed by on_own_send
        if h.sequence_number <= self._announced_top.get(src, 0):
            self.stats.stale_discards += 1
            return True
        if (
            self._live_leader()
            and src in self._g.membership
            and not self._pending.get(src)
            and not self._congested()
        ):
            self._announce_batch([msg])
            return True
        q = self._pending.setdefault(src, deque())
        if src not in self._g.membership and len(q) >= self._STAGING_CAP:
            return True
        self.stats.parked += 1
        q.append(msg)
        return True

    # ------------------------------------------------------------------
    # the leader side: assigning positions
    # ------------------------------------------------------------------
    def _announce_batch(self, msgs: List[FTMPMessage]) -> None:
        """Assign each message a fresh timestamp, multicast one OrderInfo
        naming them all, then deliver them locally in that order.

        The announcement is sent *before* the local deliveries so its wire
        position in our stream matches our local delivery order (followers
        replay our stream; any send a delivery triggers lands after it).
        """
        entries: List[Tuple[int, int, int]] = []
        for m in msgs:
            h = m.header
            ts = self._g.clock.tick()
            entries.append((h.source, h.sequence_number, ts))
            self._announced_top[h.source] = max(
                self._announced_top.get(h.source, 0), h.sequence_number
            )
            h.timestamp = ts  # the message's position in the total order
        self._send_order_info(entries)
        self.stats.announced += len(entries)
        for m in msgs:
            self._deliver(m)

    def _send_order_info(self, entries: List[Tuple[int, int, int]]) -> None:
        """Multicast an announcement inside our own reliable stream.

        Goes straight to the send path: announcements are control traffic
        — exempt from flow-control credits and the §7 barrier, like the
        heartbeats and NACKs that keep stability advancing.  The header is
        stamped *after* the entry timestamps, so its own timestamp (and
        every later stream position) exceeds them.
        """
        g = self._g
        msg = RegularMessage(
            header=g._header(MessageType.REGULAR, reliable=True),
            connection_id=ORDER_INFO_CID,
            request_num=0,
            payload=encode_order_info(entries),
        )
        self.stats.orderinfos_sent += 1
        g.send_path.send(msg)

    # ------------------------------------------------------------------
    # the follower side: replaying the leader's stream
    # ------------------------------------------------------------------
    @staticmethod
    def _is_order_info(msg: FTMPMessage) -> bool:
        return (
            isinstance(msg, RegularMessage)
            and msg.connection_id == ORDER_INFO_CID
        )

    def evaluate(self) -> None:
        """Replay the leader's stream, then advance the acknowledgement:
        the *cover* timestamp — the Lamport ack's meaning ("everything at
        or below was received from all members") without coupling it to
        deliveries, so stability/GC/flow-credits advance in the background
        while this discipline delivers ahead of them."""
        self.process()
        romp = self._romp
        romp.advance_ack(romp.cover_timestamp())
        romp.stability_pulse()

    def process(self) -> None:
        """Consume everything currently deliverable (idempotent).

        Drives the follower replay of the leader's stream, the leader's
        leftover-backlog announcements, and the §7.2 transition drain.
        Re-entrant calls (a delivery installs a view, which evaluates)
        return immediately; the outer loop re-reads all state per step.
        """
        if self._processing:
            return
        self._processing = True
        try:
            while self._step():
                pass
        finally:
            self._processing = False

    def _step(self) -> bool:
        g = self._g
        if self._transition is not None:
            return self._transition_step()
        if g.pgmp.in_fault_round:
            return False  # park everything until the round resolves
        me = g.pid
        if g.joining:
            # replay the sponsor-side leader's stream; we cannot lead (or
            # deliver our own sends) before our join completes, even if
            # our pid would win the leadership rule
            lead = self._leader_of(tuple(p for p in g.membership if p != me))
            if lead == me:
                return False  # no usable membership snapshot yet
        else:
            lead = self.leader()
        if lead == me:
            return self._leader_drain()
        q = self._pending.get(lead)
        if self._adopting:
            return self._adopt_step(lead, q)
        if not q:
            return False
        head = q[0]
        if self._is_order_info(head):
            if not self._resolve_order_info(head):
                return False  # blocked on a missing target (NACK pending)
            q.popleft()
            self._consumed(lead, head.header.sequence_number)
        else:
            q.popleft()
            self._consumed(lead, head.header.sequence_number)
            self.stats.stream_deliveries += 1
            self._deliver(head)  # the leader's own message, original ts
        return True

    def _leader_drain(self) -> bool:
        """A live leader with parked backlog (just installed a view, a
        guard parked something, or congestion coalesced arrivals): own
        stream items first — their wire positions are the earliest — then
        announce the rest as one batched OrderInfo."""
        if self._g.joining:
            return False
        me = self._g.pid
        own = self._pending.get(me)
        if own:
            self.stats.fast_path_deliveries += 1
            self._deliver(own.popleft())
            return True
        backlog = sum(
            len(q) for src, q in self._pending.items()
            if src != me and src in self._g.membership
        )
        if self._congested() and backlog < self._ANNOUNCE_CAP:
            # hold a sub-capacity backlog while our credit window is
            # exhausted; it flushes as one batch later.  A *full* batch
            # goes out regardless: one coalesced datagram per
            # _ANNOUNCE_CAP messages is bounded overhead, and without it
            # a leader blocked on its own sends would stall every
            # follower's pipeline under sustained overload.
            return False
        batch: List[FTMPMessage] = []
        for src in sorted(self._pending):
            if src == me or src not in self._g.membership:
                continue
            q = self._pending[src]
            while q and len(batch) < self._ANNOUNCE_CAP:
                batch.append(q.popleft())
        if not batch:
            return False
        # original per-source timestamps are monotonic in sequence order,
        # so this cross-source merge preserves each source's FIFO
        batch.sort(key=lambda m: (m.header.timestamp, m.header.source))
        self._announce_batch(batch)
        return True

    def _adopt_step(self, lead: int, q: Optional[Deque[FTMPMessage]]) -> bool:
        """Waiting for a new leader's takeover announcement.

        The takeover OrderInfo sits *behind* the new leader's pre-takeover
        stream items in its deque (they were sent first) and its entries
        name exactly those items, so resolving it consumes everything
        ahead of it; afterwards normal stream replay resumes.
        """
        if not q:
            return False
        info = next((m for m in q if self._is_order_info(m)), None)
        if info is None:
            return False
        if not self._resolve_order_info(info):
            return False
        q.remove(info)
        self._consumed(lead, info.header.sequence_number)
        self._adopting = False
        return True

    def _resolve_order_info(
        self,
        info: RegularMessage,
        survivors: Optional[FrozenSet[int]] = None,
        targets: Optional[Dict[int, int]] = None,
    ) -> bool:
        """Deliver an announcement's entries in order; False if blocked.

        Already-consumed entries are skipped (a retried partial
        resolution), so blocking midway and retrying later is safe.
        ``survivors``/``targets`` carry the §7.2 skip rule during a
        transition drain: entries naming a removed member's message
        beyond its synchronized prefix are dropped by every survivor.
        """
        for src, seq, ts in decode_order_info(info.payload):
            if seq <= self._announced_top.get(src, 0):
                continue  # consumed on an earlier (partial) pass
            if (
                survivors is not None
                and src not in survivors
                and seq > (targets or {}).get(src, 0)
            ):
                self._consumed(src, seq)
                self.stats.entries_skipped += 1
                continue
            q = self._pending.get(src)
            if q and q[0].header.sequence_number == seq:
                m = q.popleft()
                self._consumed(src, seq)
                m.header.timestamp = ts  # adopt the leader's position
                self.stats.adopted_deliveries += 1
                self._deliver(m)
                continue
            if self._g.rmp.contiguous_top(src) >= seq:
                # RMP is contiguous past this seq yet we never held the
                # message: it predates our join baseline (the snapshot
                # skipped it for us) — skip it here too.
                self._consumed(src, seq)
                self.stats.entries_skipped_prebaseline += 1
                continue
            return False  # not yet received; RMP's NACKs will fetch it
        return True

    def _consumed(self, src: int, seq: int) -> None:
        top = self._announced_top.get(src, 0)
        if seq > top:
            self._announced_top[src] = seq

    def _deliver(self, msg: FTMPMessage) -> None:
        """Hand one ordered message upward at its decided position."""
        self._romp.stats.ordered_deliveries += 1
        if msg.header.message_type == MessageType.REGULAR:
            self._g.deliver_regular(msg)  # type: ignore[arg-type]
        else:
            self._g.pgmp_receive_ordered(msg)

    # ------------------------------------------------------------------
    # §7.2 fault-view transition drain
    # ------------------------------------------------------------------
    def begin_transition(
        self,
        survivors: FrozenSet[int],
        cut_ts: int,
        targets: Optional[Dict[int, int]] = None,
    ) -> None:
        """Start reconciling the (old) leader's stream suffix.

        ``targets`` is the §7.2 synchronized per-source sequence vector;
        the old leader's entry is the *cut*: every survivor — the old
        leader included, from its own parked sends — processes the old
        leader's stream through it before the fault view installs, and
        nothing beyond it, so all delivery histories cut identically.
        """
        # (survivors, cut_ts, sync targets, old leader)
        self._transition = (
            frozenset(survivors),
            cut_ts,
            dict(targets or {}),
            self.leader(),
        )

    def _transition_step(self) -> bool:
        assert self._transition is not None
        survivors, _cut_ts, targets, old = self._transition
        cut_seq = targets.get(old, 0)
        q = self._pending.get(old)
        if not q:
            return False
        if self._adopting:
            # Mid-handoff when the fault hit: only the takeover entries
            # can deliver the old pending prefix.  No in-cut takeover
            # announcement means nothing of this stream is deliverable —
            # the next leader re-announces the backlog after the install.
            info = next(
                (m for m in q
                 if self._is_order_info(m)
                 and m.header.sequence_number <= cut_seq),
                None,
            )
            if info is None:
                return False
            if not self._resolve_order_info(info, survivors, targets):
                return False
            q.remove(info)
            self._consumed(old, info.header.sequence_number)
            self._adopting = False
            return True
        head = q[0]
        if head.header.sequence_number > cut_seq:
            return False
        if self._is_order_info(head):
            if not self._resolve_order_info(head, survivors, targets):
                return False
            q.popleft()
            self._consumed(old, head.header.sequence_number)
        else:
            q.popleft()
            self._consumed(old, head.header.sequence_number)
            self.stats.stream_deliveries += 1
            self._deliver(head)
        return True

    def transition_drained(self, cut_ts: int = 0) -> bool:
        """True when the old leader's in-cut stream suffix (cut by
        sequence number, not ``cut_ts``) is consumed."""
        if self._transition is None:
            return True
        _survivors, _cut_ts, targets, old = self._transition
        cut_seq = targets.get(old, 0)
        q = self._pending.get(old)
        if not q:
            return True
        if self._adopting:
            return not any(
                self._is_order_info(m)
                and m.header.sequence_number <= cut_seq
                for m in q
            )
        return q[0].header.sequence_number > cut_seq

    # ------------------------------------------------------------------
    # view installation
    # ------------------------------------------------------------------
    def begin_install(self) -> None:
        """A view installation started: park sends until the backlog flush.

        Cleared by :meth:`on_view_installed` once the takeover batch is
        out — anything the view-change listener sent meanwhile sits in
        our pending and is flushed right after, behind the batch.
        """
        self._installing = True

    def on_view_installed(
        self, prev_membership: Tuple[int, ...], reason: str
    ) -> None:
        """React to a freshly installed view (any reason).

        The new leader flushes the surviving backlog: its *own* parked
        sends first (they are already stream items at every follower —
        delivered at their original positions), then one takeover batch
        announcing everything else, ordered by original timestamp.  After
        a leader change the new leader's parked sends go *into* the batch
        instead (followers mid-adoption only deliver its pre-takeover
        prefix through the takeover entries), and an announcement is sent
        even when empty so followers can leave the adopting state.
        Followers flip to adopting on any leader change; everyone drops
        the remaining backlog of removed members (the in-cut announced
        part was delivered during the drain — the rest was announced
        nowhere, so dropping it is the same decision at every survivor).
        """
        g = self._g
        members = set(g.membership)
        for src in set(prev_membership) - members:
            self._pending.pop(src, None)
            self._announced_top.pop(src, None)
        new_leader = self.leader()
        changed = new_leader != self._leader_of(prev_membership)
        if new_leader != g.pid:
            self._installing = False
            if changed:
                self._adopting = True
            self.process()
            return
        self._adopting = False
        if not changed:
            # our parked sends are already stream items at every follower,
            # positioned before anything we announce next: deliver them at
            # their original timestamps, ahead of the batch
            own = self._pending.get(g.pid)
            while own:
                self.stats.fast_path_deliveries += 1
                self._deliver(own.popleft())
        self._flush_backlog(
            include_own=changed, force=changed or reason == "fault"
        )
        self._installing = False
        self.process()

    def _flush_backlog(self, include_own: bool, force: bool) -> None:
        """Announce every member's parked backlog in one takeover batch.

        ``include_own``: after a leadership change our own parked sends
        must be *announced* (restamped) too — mid-adoption followers only
        deliver our pre-takeover stream through the takeover entries.
        ``force`` sends the announcement even when empty: it is the marker
        adopting followers wait for.
        """
        g = self._g
        members = set(g.membership)
        batch: List[FTMPMessage] = []
        for src in sorted(self._pending):
            if src not in members or (src == g.pid and not include_own):
                continue
            q = self._pending[src]
            while q:
                batch.append(q.popleft())
        batch.sort(key=lambda m: (m.header.timestamp, m.header.source))
        if batch or force:
            self.stats.takeover_batches += 1
            self._announce_batch(batch)

    def on_join_completed(self) -> None:
        """Our own join just completed (we were not in the prior view).

        If we come in as the leader (a configured leader pid rejoining, or
        a pid below every current member), announce a takeover batch at
        once so the members — who flipped to adopting when our
        AddProcessor was ordered — can resume delivery.
        """
        if self.leader() == self._g.pid:
            self._adopting = False
            self._flush_backlog(include_own=True, force=True)
        self.process()

    # ------------------------------------------------------------------
    # purges & bookkeeping
    # ------------------------------------------------------------------
    def drop_after(self, src: int, seq_cutoff: int) -> int:
        """Drop ``src``'s parked messages with seq > ``seq_cutoff`` (§7.2:
        beyond the synchronized prefix, received by no quorum)."""
        q = self._pending.get(src)
        if not q:
            return 0
        kept = deque(m for m in q if m.header.sequence_number <= seq_cutoff)
        dropped = len(q) - len(kept)
        if dropped:
            self._pending[src] = kept
        return dropped

    def drop_all(self, src: int) -> int:
        """Drop every parked message from a departed source."""
        q = self._pending.pop(src, None)
        return len(q) if q else 0

    def backlog(self) -> int:
        """Parked messages from current members (the ordering queue depth
        analogue; non-member staging excluded, as in legacy ROMP)."""
        return sum(
            len(q) for src, q in self._pending.items()
            if src in self._g.membership
        )

