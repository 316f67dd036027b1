"""The layered FTMP datapath (paper Figure 1, made explicit).

This module is the seam between the protocol machines and the wire:

* :class:`GroupContext` — the narrow protocol the RMP / ROMP / PGMP /
  fault-detector machines are written against.  The machines never import
  a concrete group class; they receive "some GroupContext" and use only
  this surface (timers, tracing, retention, upward delivery, the send
  services and clock access).
* :class:`SendPath` — the downward pipeline: header stamping (sequence
  number, clock tick, piggybacked ack timestamp), retransmission
  retention, the heartbeat generator, and the optional coalescing window
  that packs small Regular messages into one Batch datagram.
* :class:`ReceivePath` — the upward pipeline: Batch unpacking, new-member
  join gating, raw-byte retention bookkeeping, then RMP.  Everything
  above the receive path is batch-oblivious.
* :class:`ProcessorGroup` — the composition root wiring one group's
  machines through the two pipelines; it implements ``GroupContext`` and
  keeps the membership/view state that *is* the group.

Batching (``FTMPConfig.batch_window``) is off by default, in which case
the send path is bit-identical to the historical unbatched stack: every
message goes out the moment it is stamped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from ..transport import NamedTimerSet
from .buffers import RetransmissionBuffer
from .config import FTMPConfig
from .constants import RELIABLE_TYPES, MessageType
from .events import Delivery, FaultReport, ViewChange
from .fault_detector import FaultDetector
from .llft import LeaderOrdering
from .messages import (
    AddProcessorMessage,
    BatchMessage,
    ConnectionId,
    ConnectMessage,
    ConnectRequestMessage,
    FTMPHeader,
    FTMPMessage,
    HeartbeatMessage,
    MembershipMessage,
    RegularMessage,
    RemoveProcessorMessage,
    RetransmitRequestMessage,
    SuspectMessage,
)
from .multigroup import MultiGroupOrdering
from .overlay import FlatDissemination, OverlayDissemination
from .pgmp import PGMP
from .rmp import RMP
from .romp import ROMP, LamportOrdering
from .stats import GroupStats
from .wire import CodecError, decode, encode, mark_retransmission

if TYPE_CHECKING:  # pragma: no cover
    from random import Random

    from .lamport import OrderingClock
    from .stack import FTMPStack

__all__ = [
    "GroupContext",
    "SendPath",
    "ReceivePath",
    "BatchStats",
    "FlowControlStats",
    "FlowController",
    "FlowControlSaturated",
    "ProcessorGroup",
]


#: ``FTMPConfig.ordering`` value -> the group's ordering discipline
_ORDERINGS = {"lamport": LamportOrdering, "llft": LeaderOrdering,
              "multigroup": MultiGroupOrdering}


class FlowControlSaturated(RuntimeError):
    """A multicast exceeded ``flow_queue_limit`` backpressured sends.

    Raised instead of queueing so the application gets a synchronous
    load-shedding signal; the send was *not* accepted and will not be
    transmitted later.
    """


class GroupContext(Protocol):
    """The group surface the protocol machines need — and nothing more.

    RMP / ROMP / PGMP / :class:`~repro.core.fault_detector.FaultDetector`
    are typed against this protocol instead of any concrete group class,
    so they can be driven by the real :class:`ProcessorGroup` or by a test
    double without touching the stack.
    """

    group_id: int
    membership: Tuple[int, ...]
    view_timestamp: int
    joining: bool
    #: (timestamp, source) of the AddProcessor admitting this processor
    join_barrier: Optional[Tuple[int, int]]
    buffer: RetransmissionBuffer
    rmp: RMP
    romp: ROMP
    dissemination: FlatDissemination

    # -- identity / environment ----------------------------------------
    pid: int
    config: FTMPConfig

    @property
    def rng(self) -> "Random": ...

    @property
    def clock(self) -> "OrderingClock": ...

    @property
    def last_sent_seq(self) -> int: ...

    def now(self) -> float: ...

    def schedule(self, delay: float, fn: Callable, *args): ...

    def trace(self, kind: str, **detail) -> None: ...

    # -- liveness bookkeeping ------------------------------------------
    def note_alive(self, src: int) -> None: ...

    def has_heard_from(self, src: int) -> bool: ...

    def watch_member(self, pid: int, grace: float = 0.0) -> None: ...

    def forget_member(self, pid: int) -> None: ...

    def suspected_members(self) -> Set[int]: ...

    # -- retention & upward delivery -----------------------------------
    def retain(self, msg: FTMPMessage) -> None: ...

    def romp_receive(self, msg: FTMPMessage) -> None: ...

    def romp_heartbeat(self, msg: HeartbeatMessage) -> None: ...

    def pgmp_raise_suspicion(self, pid: int) -> None: ...

    def pgmp_withdraw_suspicion(self, pid: int) -> None: ...

    def pgmp_receive_unreliable(self, msg: FTMPMessage) -> None: ...

    def pgmp_receive_source_ordered(self, msg: FTMPMessage) -> None: ...

    def pgmp_receive_ordered(self, msg: FTMPMessage) -> None: ...

    def deliver_regular(self, msg: RegularMessage) -> None: ...

    # -- send services --------------------------------------------------
    def send_retransmit_request(self, source: int, start: int, stop: int) -> None: ...

    def retransmit_raw(self, raw: bytes, address: Optional[int] = None) -> None: ...

    def send_add_processor(self, membership_timestamp: int,
                           membership: Tuple[int, ...],
                           sequence_numbers: Dict[int, int],
                           new_member: int) -> bytes: ...

    def send_remove_processor(self, member: int) -> None: ...

    def send_suspect(self, membership_timestamp: int,
                     suspects: Tuple[int, ...]) -> None: ...

    def send_membership(self, membership_timestamp: int,
                        current_membership: Tuple[int, ...],
                        sequence_numbers: Dict[int, int],
                        new_membership: Tuple[int, ...]) -> None: ...

    # -- membership transitions -----------------------------------------
    def install_view(self, membership: Tuple[int, ...], view_timestamp: int,
                     added: Tuple[int, ...], removed: Tuple[int, ...],
                     reason: str) -> None: ...

    def install_fault_view(self, membership: Tuple[int, ...], view_timestamp: int,
                           removed: Tuple[int, ...],
                           sync_targets: Optional[Dict[int, int]] = None) -> None: ...

    def evict_self(self, reason: str, view_timestamp: int) -> None: ...

    def seed_provisional_join(self, membership: Tuple[int, ...], view_timestamp: int,
                              join_barrier: Tuple[int, int]) -> None: ...

    def complete_join(self, membership: Tuple[int, ...], view_timestamp: int,
                      join_barrier: Tuple[int, int]) -> None: ...

    def apply_connect_migration(self, msg: ConnectMessage) -> None: ...

    def on_send_barrier_cleared(self) -> None: ...

    # -- flow control (stability-driven credit window) -------------------
    def on_stability_advance(self, stable: int) -> None: ...

    def credit_blocked(self) -> bool: ...


@dataclass
class BatchStats:
    """Batching-efficiency counters of one group's send/receive paths."""

    batches_sent: int = 0
    messages_batched: int = 0
    batches_received: int = 0
    messages_unbatched: int = 0
    flushes_on_timer: int = 0
    flushes_on_size: int = 0
    flushes_on_order: int = 0  #: a non-batchable send forced the flush
    heartbeats_suppressed: int = 0
    batch_decode_errors: int = 0
    #: adaptive window: sends that skipped the window because the recent
    #: rate would not fill it (low-load latency restored to unbatched)
    adaptive_bypasses: int = 0


@dataclass
class FlowControlStats:
    """Credit-window counters of one group's sender (flow control)."""

    sends_admitted: int = 0  #: Regulars that consumed a credit and went out
    sends_queued: int = 0  #: application sends held back (no credits)
    sends_released: int = 0  #: queued sends later admitted by stability
    sends_rejected: int = 0  #: multicasts refused at ``flow_queue_limit``
    credit_stalls: int = 0  #: transitions into the fully blocked state
    max_queue_depth: int = 0


class FlowController:
    """Per-sender credit window driven by the §6 stability signal.

    The ROMP layer already computes, from the piggybacked positive
    acknowledgement timestamps, the *stability timestamp* — the highest
    ordering timestamp every member has acknowledged (the same signal
    that bounds the retransmission buffers, §5/§6).  The flow controller
    feeds it back to the sender: at most ``flow_control_window`` of this
    processor's own Regular messages may be in flight (sent but not yet
    stable) at once.  Application sends beyond the window queue here —
    backpressure — and drain as stability advances, so a sender can never
    run further ahead of the group than the window, no matter the offered
    load.  Control traffic (membership, NACKs, heartbeats) is never
    subject to credits: it is exactly what makes stability advance.
    """

    def __init__(self, group: "ProcessorGroup", stats: FlowControlStats):
        self._g = group
        self.stats = stats
        #: ordering timestamps of our own in-flight (unstable) Regulars;
        #: timestamps are per-source monotonic, so this deque is sorted
        self._inflight: Deque[int] = deque()
        self._queue: Deque[Tuple[bytes, ConnectionId, int]] = deque()

    @property
    def enabled(self) -> bool:
        return self._g.config.flow_control_window > 0

    @property
    def inflight(self) -> int:
        """Own Regulars sent but not yet covered by the stability timestamp."""
        return len(self._inflight)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def credits(self) -> int:
        """Sends the window still allows before backpressure engages."""
        if not self.enabled:
            return 0
        return max(0, self._g.config.flow_control_window - len(self._inflight))

    @property
    def blocked(self) -> bool:
        """True while application sends are queued on exhausted credits."""
        return bool(self._queue)

    def submit(self, payload: bytes, cid: ConnectionId, request_num: int,
               enforce_limit: bool = True) -> bool:
        """Admit a send now (True) or queue it on backpressure (False).

        With ``flow_queue_limit`` set, a send beyond the cap raises
        :class:`FlowControlSaturated` instead of queueing.  Internal
        re-submissions of already-accepted sends (the §7 barrier drain)
        pass ``enforce_limit=False`` — they must never be dropped.
        """
        if not self.enabled:
            return True
        if not self._queue and len(self._inflight) < self._g.config.flow_control_window:
            return True
        limit = self._g.config.flow_queue_limit
        if enforce_limit and limit > 0 and len(self._queue) >= limit:
            self.stats.sends_rejected += 1
            raise FlowControlSaturated(
                f"flow-control queue full ({limit} sends already backpressured)"
            )
        if not self._queue:
            self.stats.credit_stalls += 1
        self._queue.append((payload, cid, request_num))
        self.stats.sends_queued += 1
        if len(self._queue) > self.stats.max_queue_depth:
            self.stats.max_queue_depth = len(self._queue)
        return False

    def note_sent(self, timestamp: int) -> None:
        """Record an admitted Regular's ordering timestamp (one credit)."""
        if self.enabled:
            self._inflight.append(timestamp)
            self.stats.sends_admitted += 1

    def on_stability(self, stable: int) -> None:
        """Stability advanced: recycle credits, drain queued sends."""
        inflight = self._inflight
        while inflight and inflight[0] <= stable:
            inflight.popleft()
        self.drain()

    def drain(self) -> None:
        """Release queued sends while credits last — never past a barrier.

        A stability advance can arrive while a §7 Connect quiescence
        barrier is pending (heartbeats keep flowing precisely so a
        blocked sender's credits refill); releasing ordered Regulars
        then would violate the join-quiescence invariant, so the queue
        holds until :meth:`ProcessorGroup.on_send_barrier_cleared` kicks
        this drain again.
        """
        if not self._queue or not self._g.romp.can_send_ordered():
            return
        window = self._g.config.flow_control_window
        while self._queue and len(self._inflight) < window:
            payload, cid, request_num = self._queue.popleft()
            self.stats.sends_released += 1
            # _send_regular calls note_sent, growing _inflight again
            self._g._send_regular(payload, cid, request_num)


class SendPath:
    """Downward pipeline of one processor group.

    Owns the reliable sequence counter, header stamping (clock tick plus
    the piggybacked ack timestamp), retention of reliable messages for
    NACK answering, the §5 heartbeat generator, and the batching window.
    Protocol machines never build headers or touch the wire; the group
    stamps and transmits everything here.
    """

    def __init__(
        self,
        ctx: "ProcessorGroup",
        transmit: Callable[[int, bytes], None],
        ack_supplier: Callable[[], int],
        address_supplier: Callable[[], int],
        stats: GroupStats,
        batch_stats: BatchStats,
    ):
        self._ctx = ctx
        self._transmit = transmit
        self._ack = ack_supplier
        self._address = address_supplier
        self._stats = stats
        self._batch = batch_stats
        self._timers = NamedTimerSet(ctx.schedule)
        self._seq = 0
        self._last_send_time = -1e9
        self._pending: List[bytes] = []
        self._pending_bytes = 0
        self._stopped = False
        # adaptive batching: EWMA of the gap between batchable sends —
        # the load signal deciding window vs. immediate transmission
        self._gap_ewma = float("inf")
        self._last_batchable = -1e9

    # ------------------------------------------------------------------
    # header stamping
    # ------------------------------------------------------------------
    @property
    def last_sent_seq(self) -> int:
        return self._seq

    def next_header(self, mtype: MessageType, reliable: bool) -> FTMPHeader:
        if reliable:
            self._seq += 1
        return FTMPHeader(
            message_type=mtype,
            source=self._ctx.pid,
            group=self._ctx.group_id,
            sequence_number=self._seq,
            timestamp=self._ctx.clock.tick(),
            ack_timestamp=self._ack(),
            little_endian=self._ctx.config.little_endian,
        )

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def send(self, msg: FTMPMessage, address: Optional[int] = None) -> bytes:
        """Stamp-independent egress: retain, trace, then wire (or window)."""
        raw = encode(msg)
        h = msg.header
        mtype = h.message_type
        if mtype in RELIABLE_TYPES:
            self._ctx.buffer.add(h.source, h.sequence_number, h.timestamp, raw)
        if mtype in RELIABLE_TYPES or mtype == MessageType.HEARTBEAT:
            # §5: a Heartbeat is due when no *Regular* (ordered-stream)
            # message went out recently; control traffic such as
            # RetransmitRequests must not starve the heartbeat, because
            # receivers need the stream's timestamps to keep ordering.
            self._last_send_time = self._ctx.now()
        if self._ctx.traced:
            self._ctx.trace("send", type=mtype.name, seq=h.sequence_number,
                            ts=h.timestamp)
        if address is None and self._batchable(mtype, raw):
            if self._adaptive_bypass():
                self._batch.adaptive_bypasses += 1
                self._transmit(self._address(), raw)
            else:
                self._append(raw)
        else:
            self._flush_pending_first()
            self._transmit(self._address() if address is None else address, raw)
        return raw

    def send_raw(self, raw: bytes, address: Optional[int] = None) -> None:
        """Re-send retained wire bytes with the retransmission flag (§3.2).

        Deliberately does not touch ``last_send_time``: retransmissions
        are not new ordered-stream traffic and must not defer heartbeats.
        """
        self._flush_pending_first()
        self._transmit(self._address() if address is None else address,
                       mark_retransmission(raw))

    def _flush_pending_first(self) -> None:
        """Keep per-source FIFO: drain the window before unbatched sends."""
        if self._pending:
            self._batch.flushes_on_order += 1
            self.flush()

    # ------------------------------------------------------------------
    # batching window
    # ------------------------------------------------------------------
    def _batchable(self, mtype: MessageType, raw: bytes) -> bool:
        cfg = self._ctx.config
        return (
            cfg.batch_window > 0.0
            and mtype == MessageType.REGULAR
            and len(raw) <= cfg.batch_max_bytes
        )

    def _adaptive_bypass(self) -> bool:
        """Decide window vs. immediate send for an eligible Regular.

        The fixed window taxes every low-load send ~``batch_window`` of
        latency for nothing: the window closes with one message in it.
        With ``batch_adaptive`` on, an EWMA of the gap between eligible
        sends estimates how many messages the *next* window would
        coalesce; below ``batch_min_fill`` the send bypasses the window
        (latency returns to unbatched), above it the window engages and
        saturation goodput keeps the full coalescing win.  A send never
        bypasses a non-empty window — that would reorder the sender's
        reliable stream on the wire.
        """
        cfg = self._ctx.config
        if not cfg.batch_adaptive:
            return False
        now = self._ctx.now()
        gap = now - self._last_batchable
        self._last_batchable = now
        if gap >= cfg.batch_window * cfg.batch_min_fill:
            # idle long enough that no plausible rate fills a window:
            # hard-reset the estimate so one stale burst cannot tax the
            # first messages of a quiet period.  Clamped at the engage
            # threshold — an unbounded idle gap would otherwise take ~100
            # EWMA steps to decay, taxing the front of the next burst.
            self._gap_ewma = cfg.batch_window * cfg.batch_min_fill
        else:
            ewma = self._gap_ewma
            self._gap_ewma = gap if ewma == float("inf") else 0.75 * ewma + 0.25 * gap
        if self._pending:
            return False
        return self._gap_ewma * cfg.batch_min_fill > cfg.batch_window

    def _append(self, raw: bytes) -> None:
        self._pending.append(raw)
        self._pending_bytes += len(raw)
        if self._pending_bytes >= self._ctx.config.batch_max_bytes:
            self._batch.flushes_on_size += 1
            self.flush()
        elif not self._timers.is_armed("batch-flush"):
            self._timers.arm("batch-flush", self._ctx.config.batch_window,
                             self._timer_flush)

    def _timer_flush(self) -> None:
        self._batch.flushes_on_timer += 1
        self.flush()

    @property
    def pending_batch(self) -> int:
        """Messages currently held in the coalescing window."""
        return len(self._pending)

    def flush(self) -> None:
        """Transmit the coalesced window now (no-op when empty)."""
        self._timers.cancel("batch-flush")
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._pending_bytes = 0
        if len(pending) == 1:
            self._transmit(self._address(), pending[0])
            return
        envelope = BatchMessage(
            header=FTMPHeader(
                message_type=MessageType.BATCH,
                source=self._ctx.pid,
                group=self._ctx.group_id,
                sequence_number=0,
                timestamp=0,
                ack_timestamp=0,
                little_endian=self._ctx.config.little_endian,
            ),
            parts=tuple(pending),
        )
        self._batch.batches_sent += 1
        self._batch.messages_batched += len(pending)
        self._transmit(self._address(), encode(envelope))

    # ------------------------------------------------------------------
    # heartbeats (paper §5)
    # ------------------------------------------------------------------
    def start_heartbeats(self) -> None:
        self._arm_heartbeat()

    def _arm_heartbeat(self) -> None:
        if self._stopped:
            return
        self._timers.arm("heartbeat", self._ctx.config.heartbeat_interval,
                         self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        if self._stopped:
            return
        if not self._ctx.dissemination.sends_heartbeats():
            return  # deliberately without re-arming: the loop ends here
        if self._pending and not self._ctx.credit_blocked():
            # Piggyback suppression: the window flushes within
            # batch_window anyway, carrying fresher timestamps and a
            # fresher ack than a Heartbeat would.  Never while the sender
            # is blocked on credits: a fully backpressured sender cannot
            # produce the Regular traffic this suppression counts on, yet
            # its heartbeats are exactly what advances the peers' view of
            # its clock/ack — and with it the stability timestamp that
            # will refill its credits (liveness).
            self._batch.heartbeats_suppressed += 1
        else:
            idle = self._ctx.now() - self._last_send_time
            if idle >= self._ctx.config.heartbeat_interval * 0.999:
                msg = HeartbeatMessage(
                    header=self.next_header(MessageType.HEARTBEAT, reliable=False)
                )
                self._stats.heartbeats_sent += 1
                self.send(msg)
        self._arm_heartbeat()

    # ------------------------------------------------------------------
    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.flush()
        self._timers.cancel_all()


class ReceivePath:
    """Upward pipeline of one processor group.

    Unpacks Batch envelopes, gates the new-member joining state, keeps
    the raw wire bytes of the in-flight message for retention, and feeds
    RMP.  The protocol machines above never see a Batch.
    """

    def __init__(self, group: "ProcessorGroup", batch_stats: BatchStats):
        self._g = group
        self._batch = batch_stats
        self._current_raw: Optional[bytes] = None

    @property
    def current_raw(self) -> Optional[bytes]:
        """Wire bytes of the message currently being processed, if any."""
        return self._current_raw

    def on_datagram(self, msg: FTMPMessage, raw: bytes) -> None:
        g = self._g
        if g.stopped:
            return
        if isinstance(msg, BatchMessage):
            self._batch.batches_received += 1
            for part in msg.parts:
                try:
                    inner = decode(part)
                except CodecError:
                    self._batch.batch_decode_errors += 1
                    continue
                self._batch.messages_unbatched += 1
                self.on_datagram(inner, part)
            return
        if g.joining:
            # A new member seeds provisional state from the AddProcessor
            # that names it; the message then flows through RMP/ROMP like
            # any other, and the join completes only when it reaches its
            # position in the total order (§7.1).  Before that seed there
            # is nothing to anchor recovery on, so everything else waits
            # for the initiator's periodic retransmission.
            if isinstance(msg, AddProcessorMessage) and msg.new_member == g.pid:
                g.pgmp.prepare_join(msg)
            if g.join_barrier is None:
                return
        elif g.traced:
            g.trace("recv", type=msg.header.message_type.name,
                    src=msg.header.source, seq=msg.header.sequence_number)
        # every datagram carries usable clock / ack / liveness information
        # (RetransmitRequests included); ordering advancement stays gated
        # on contiguity inside ROMP, which skips re-observing this header
        # if RMP hands the message straight up
        romp = g.romp
        h = msg.header
        romp.observe_header(h)
        romp.observed = h
        self._current_raw = raw
        try:
            g.rmp.on_message(msg)
        finally:
            self._current_raw = None
            romp.observed = None


class ProcessorGroup:
    """One processor's protocol state for one processor group.

    A thin composition root: wires the RMP / ROMP / PGMP machines and the
    fault detector through :class:`SendPath` / :class:`ReceivePath`, and
    implements the :class:`GroupContext` surface they are typed against.
    The membership/view bookkeeping lives here because it *is* the group.
    """

    def __init__(
        self,
        stack: "FTMPStack",
        group_id: int,
        address: int,
        membership: Tuple[int, ...],
        joining: bool = False,
    ):
        self._stack = stack
        #: the stack's pid and config, bound once: read on every datagram
        self.pid: int = stack.pid
        self.config: FTMPConfig = stack.config
        self.group_id = group_id
        self.address = address
        self.membership: Tuple[int, ...] = tuple(sorted(membership))
        self.view_timestamp = 0
        self.joining = joining
        #: (timestamp, source) of the AddProcessor that admitted us; ordered
        #: messages strictly before it belong to views we were not part of.
        self.join_barrier: Optional[Tuple[int, int]] = None

        self.buffer = RetransmissionBuffer(gc_enabled=stack.config.buffer_gc_enabled)
        self.stats = GroupStats()
        self.batch_stats = BatchStats()
        self.flow = FlowController(self, FlowControlStats())
        # the one place a group's dissemination and ordering discipline
        # are chosen; everything else calls them through the seam
        cfg = stack.config
        self.dissemination: FlatDissemination = (
            OverlayDissemination if cfg.overlay_mode else FlatDissemination
        )(self, stack)
        self.rmp = RMP(self)
        self.romp = ROMP(self, _ORDERINGS[cfg.ordering])
        self.pgmp = PGMP(self)
        self.fault_detector = FaultDetector(self)
        self.send_path = SendPath(
            self,
            transmit=self.dissemination.egress,
            ack_supplier=lambda: self.romp.ack_timestamp,
            address_supplier=lambda: self.address,
            stats=self.stats,
            batch_stats=self.batch_stats,
        )
        self.receive_path = ReceivePath(self, self.batch_stats)

        self._pending_ordered: List[Tuple[bytes, ConnectionId, int]] = []
        self._heard: Set[int] = set()
        self._stopped = False
        self._register_stats()

        if not joining:
            self._activate()

    def _register_stats(self) -> None:
        reg = self._stack.registry
        prefix = f"group.{self.group_id}"
        reg.register(f"{prefix}.send", self.stats)
        reg.register(f"{prefix}.batch", self.batch_stats)
        reg.register(f"{prefix}.flow", self.flow.stats)
        reg.register(f"{prefix}.rmp", self.rmp.stats)
        reg.register(f"{prefix}.romp", self.romp.stats)
        reg.register(f"{prefix}.pgmp", self.pgmp.stats)
        reg.register(f"{prefix}.fault_detector", self.fault_detector.stats)
        for part in (self.romp.ordering, self.dissemination):
            if part.stats_key:
                reg.register(f"{prefix}.{part.stats_key}", part.stats)
        reg.register(
            f"{prefix}.gauges",
            lambda: {
                "queue_depth": self.romp.queued(),
                "ack_timestamp": self.romp.ack_timestamp,
                "stability_timestamp": self.romp.stability_timestamp(),
                "buffer_messages": len(self.buffer),
                "buffer_bytes": self.buffer.bytes,
                "last_sent_seq": self.last_sent_seq,
                "pending_batch": self.send_path.pending_batch,
                "fc_credits": self.flow.credits,
                "fc_inflight": self.flow.inflight,
                "fc_queue_depth": self.flow.queue_depth,
            },
        )

    # ------------------------------------------------------------------
    # context surface used by the protocol layers (GroupContext)
    # ------------------------------------------------------------------
    @property
    def rng(self):
        return self._stack.endpoint.random()

    @property
    def clock(self):
        return self._stack.clock

    @property
    def last_sent_seq(self) -> int:
        return self.send_path.last_sent_seq

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def traced(self) -> bool:
        return self._stack.tracer is not None

    def now(self) -> float:
        return self._stack.endpoint.now

    def schedule(self, delay: float, fn: Callable, *args):
        return self._stack.endpoint.schedule(delay, fn, *args)

    def trace(self, kind: str, **detail) -> None:
        tracer = self._stack.tracer
        if tracer is not None:
            tracer.emit(self.now(), self.pid, self.group_id, kind, **detail)

    def note_alive(self, src: int) -> None:
        if src not in self._heard:
            self._heard.add(src)
            # a newly heard processor ends any AddProcessor resend loop
            self.pgmp.cancel_add_resend(src)
        self.fault_detector.note_alive(src)

    def has_heard_from(self, src: int) -> bool:
        return src in self._heard

    def watch_member(self, pid: int, grace: float = 0.0) -> None:
        self.fault_detector.watch(pid, grace)

    def forget_member(self, pid: int) -> None:
        # only graceful (ordered) departures route through here — the
        # fault-view path below purges convicted members inline
        self.fault_detector.forget(pid)
        self.rmp.drop_source(pid)
        self.romp.ordering.drop_all(pid)
        self.romp.purge_source(pid, clean=True)
        self._heard.discard(pid)

    def suspected_members(self) -> Set[int]:
        return self.fault_detector.suspected

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _activate(self) -> None:
        """Join the wire address, start heartbeats and the fault detector."""
        self._stack.endpoint.join(self.address)
        self.fault_detector.start()
        for p in self.membership:
            if p != self.pid:
                self.fault_detector.watch(p, grace=self.config.join_grace)
        self.send_path.start_heartbeats()
        self.dissemination.activate()

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.send_path.stop()
        self.dissemination.stop()
        self.fault_detector.stop()
        self.rmp.stop()
        self.pgmp.stop()
        self._stack.registry.unregister_prefix(f"group.{self.group_id}")
        self._stack.endpoint.leave(self.address)

    # ------------------------------------------------------------------
    # datagram input (from the stack router)
    # ------------------------------------------------------------------
    def on_datagram(self, msg: FTMPMessage, raw: bytes) -> None:
        # the relay hook sees the *outer* datagram only (a Batch relays
        # whole; its parts recurse inside ReceivePath untouched)
        self.dissemination.on_datagram(msg, raw)
        self.receive_path.on_datagram(msg, raw)

    def retain(self, msg: FTMPMessage) -> None:
        """Keep a reliable message for answering RetransmitRequests (§5)."""
        h = msg.header
        raw = self.receive_path.current_raw
        if raw is None:
            raw = encode(msg)
        self.buffer.add(h.source, h.sequence_number, h.timestamp, raw)

    # ------------------------------------------------------------------
    # upward delivery plumbing (called by RMP / ROMP)
    # ------------------------------------------------------------------
    def romp_receive(self, msg: FTMPMessage) -> None:
        self.romp.receive(msg)

    def romp_heartbeat(self, msg: HeartbeatMessage) -> None:
        self.romp.receive_heartbeat(msg)

    def pgmp_raise_suspicion(self, pid: int) -> None:
        self.pgmp.raise_suspicion(pid)
        self.dissemination.on_suspicion_changed()

    def pgmp_withdraw_suspicion(self, pid: int) -> None:
        self.pgmp.withdraw_suspicion(pid)
        self.dissemination.on_suspicion_changed()

    def pgmp_receive_unreliable(self, msg: FTMPMessage) -> None:
        if isinstance(msg, ConnectRequestMessage):
            self._stack.connections.on_connect_request(msg)

    def pgmp_receive_source_ordered(self, msg: FTMPMessage) -> None:
        self.pgmp.on_source_ordered(msg)

    def pgmp_receive_ordered(self, msg: FTMPMessage) -> None:
        if self.join_barrier is not None:
            key = (msg.header.timestamp, msg.header.source)
            if key < self.join_barrier:
                return  # predates our admission to the group
        self.pgmp.on_ordered(msg)

    def deliver_regular(self, msg: RegularMessage) -> None:
        h = msg.header
        if self.join_barrier is not None and (h.timestamp, h.source) < self.join_barrier:
            return
        if self.traced:
            self.trace("deliver", src=h.source, seq=h.sequence_number,
                       ts=h.timestamp, bytes=len(msg.payload))
        self._stack.listener.on_deliver(
            Delivery(
                group=self.group_id,
                source=h.source,
                sequence_number=h.sequence_number,
                timestamp=h.timestamp,
                connection_id=msg.connection_id,
                request_num=msg.request_num,
                payload=msg.payload,
                delivered_at=self.now(),
            )
        )

    # ------------------------------------------------------------------
    # send paths (stamping delegated to SendPath)
    # ------------------------------------------------------------------
    def _header(self, mtype: MessageType, reliable: bool) -> FTMPHeader:
        return self.send_path.next_header(mtype, reliable)

    def multicast(self, payload: bytes, connection_id: Optional[ConnectionId] = None,
                  request_num: int = 0) -> bool:
        """Multicast an application (GIOP) payload as a Regular message.

        Returns True when the send went to the wire immediately, False
        when it was accepted but queued (§7 quiescence barrier or
        exhausted flow-control credits) for later release.  With
        ``flow_queue_limit`` set, a send beyond the cap raises
        :class:`FlowControlSaturated` instead of queueing.
        """
        if self.joining:
            raise RuntimeError("cannot multicast before the join completes")
        cid = connection_id if connection_id is not None else ConnectionId.none()
        if not self.romp.can_send_ordered():
            # §7 quiescence after a Connect: hold ordered application
            # traffic until every member is heard past the barrier.
            limit = self.config.flow_queue_limit
            if limit > 0 and len(self._pending_ordered) + self.flow.queue_depth >= limit:
                self.flow.stats.sends_rejected += 1
                raise FlowControlSaturated(
                    f"send queue full ({limit} sends held at the barrier)"
                )
            self.stats.ordered_sends_deferred += 1
            self._pending_ordered.append((payload, cid, request_num))
            return False
        if not self.flow.submit(payload, cid, request_num):
            return False  # backpressured; a stability advance releases it
        self._send_regular(payload, cid, request_num)
        return True

    def _send_regular(self, payload: bytes, cid: ConnectionId, request_num: int) -> None:
        msg = RegularMessage(
            header=self._header(MessageType.REGULAR, reliable=True),
            connection_id=cid,
            request_num=request_num,
            payload=payload,
        )
        self.stats.regulars_sent += 1
        self.flow.note_sent(msg.header.timestamp)
        self.send_path.send(msg)
        # LLFT delivers our own send on the spot (the leader fast path)
        # or parks it until the leader's stream orders it
        self.romp.ordering.on_own_send(msg)

    def on_send_barrier_cleared(self) -> None:
        # Sends credit-queued before the Connect predate anything the
        # barrier deferred (once a barrier is up, multicast queues there,
        # not in the flow controller): drain them first to keep FIFO.
        # This is also what releases a flow queue held by drain() while
        # the barrier was pending — without it the queue would deadlock
        # if stability never advances again.
        self.flow.drain()
        pending, self._pending_ordered = self._pending_ordered, []
        for payload, cid, request_num in pending:
            if self.flow.submit(payload, cid, request_num, enforce_limit=False):
                self._send_regular(payload, cid, request_num)

    def on_stability_advance(self, stable: int) -> None:
        self.flow.on_stability(stable)

    def credit_blocked(self) -> bool:
        return self.flow.blocked

    def send_retransmit_request(self, source: int, start: int, stop: int) -> None:
        if self.traced:
            self.trace("nack", missing_from=source, start=start, stop=stop)
        msg = RetransmitRequestMessage(
            header=self._header(MessageType.RETRANSMIT_REQUEST, reliable=False),
            processor_id=source,
            start_seq=start,
            stop_seq=stop,
        )
        self.send_path.send(msg)

    def retransmit_raw(self, raw: bytes, address: Optional[int] = None) -> None:
        """Re-send a retained message unchanged except the retrans flag (§3.2)."""
        if self.traced:
            self.trace("resend", bytes=len(raw))
        self.send_path.send_raw(raw, address)

    def send_add_processor(self, membership_timestamp: int, membership: Tuple[int, ...],
                           sequence_numbers: Dict[int, int], new_member: int) -> bytes:
        msg = AddProcessorMessage(
            header=self._header(MessageType.ADD_PROCESSOR, reliable=True),
            membership_timestamp=membership_timestamp,
            membership=membership,
            sequence_numbers=sequence_numbers,
            new_member=new_member,
        )
        raw = self.send_path.send(msg)
        self.romp.ordering.on_own_send(msg)
        return raw

    def send_remove_processor(self, member: int) -> None:
        msg = RemoveProcessorMessage(
            header=self._header(MessageType.REMOVE_PROCESSOR, reliable=True),
            member_to_remove=member,
        )
        self.send_path.send(msg)
        self.romp.ordering.on_own_send(msg)

    def send_suspect(self, membership_timestamp: int, suspects: Tuple[int, ...]) -> None:
        msg = SuspectMessage(
            header=self._header(MessageType.SUSPECT, reliable=True),
            membership_timestamp=membership_timestamp,
            suspects=suspects,
        )
        self.send_path.send(msg)

    def send_membership(self, membership_timestamp: int, current_membership: Tuple[int, ...],
                        sequence_numbers: Dict[int, int],
                        new_membership: Tuple[int, ...]) -> None:
        msg = MembershipMessage(
            header=self._header(MessageType.MEMBERSHIP, reliable=True),
            membership_timestamp=membership_timestamp,
            current_membership=current_membership,
            sequence_numbers=sequence_numbers,
            new_membership=new_membership,
        )
        self.send_path.send(msg)

    def send_connect(self, connection_id: ConnectionId, processor_group_id: int,
                     ip_multicast_address: int, membership_timestamp: int,
                     membership: Tuple[int, ...], address: Optional[int] = None) -> bytes:
        msg = ConnectMessage(
            header=self._header(MessageType.CONNECT, reliable=True),
            connection_id=connection_id,
            processor_group_id=processor_group_id,
            ip_multicast_address=ip_multicast_address,
            membership_timestamp=membership_timestamp,
            membership=membership,
        )
        raw = self.send_path.send(msg, address=address)
        self.romp.ordering.on_own_send(msg)
        return raw

    # ------------------------------------------------------------------
    # membership state changes (called by PGMP)
    # ------------------------------------------------------------------
    def install_view(self, membership: Tuple[int, ...], view_timestamp: int,
                     added: Tuple[int, ...], removed: Tuple[int, ...], reason: str) -> None:
        prev_membership = self.membership
        # LLFT holds its fast path until on_view_installed below has
        # flushed the parked backlog — a send from the view-change
        # listener must not overtake the takeover batch in the order
        self.romp.ordering.begin_install()
        self.membership = tuple(sorted(membership))
        self.view_timestamp = view_timestamp
        self.pgmp.reset_after_view()
        self.dissemination.on_view_installed()
        for p in added:
            self.romp.ordering.flush_staging(p)
        if self.traced:
            self.trace("view", reason=reason, membership=self.membership,
                       view_ts=view_timestamp)
        self._stack.listener.on_view_change(
            ViewChange(
                group=self.group_id,
                membership=self.membership,
                view_timestamp=view_timestamp,
                added=tuple(added),
                removed=tuple(removed),
                reason=reason,
                installed_at=self.now(),
            )
        )
        self.romp.ordering.on_view_installed(prev_membership, reason)
        self.romp.evaluate()

    def install_fault_view(self, membership: Tuple[int, ...], view_timestamp: int,
                           removed: Tuple[int, ...],
                           sync_targets: Optional[Dict[int, int]] = None) -> None:
        """Install a view that excludes convicted processors (§7.2)."""
        targets = sync_targets or {}
        for r in removed:
            # Anything from the convicted member beyond the synchronized
            # prefix was not received by every survivor: drop it.  The rest
            # is grandfathered — deliverable after the member's removal
            # (virtual synchrony: identical delivery sets at all survivors).
            self.romp.ordering.drop_after(r, targets.get(r, 0))
            self.fault_detector.forget(r)
            self.rmp.drop_source(r)
            self.romp.purge_source(r)
            self._heard.discard(r)
        self.romp.ordering.on_fault_view(tuple(removed))
        self.install_view(membership, view_timestamp, added=(), removed=removed,
                          reason="fault")
        if self.traced:
            self.trace("fault", convicted=tuple(removed))
        self._stack.listener.on_fault_report(
            FaultReport(group=self.group_id, convicted=tuple(removed),
                        reported_at=self.now())
        )

    def evict_self(self, reason: str, view_timestamp: int) -> None:
        """We were removed (RemoveProcessor or exclusion by survivors)."""
        self._stack.listener.on_view_change(
            ViewChange(
                group=self.group_id,
                membership=(),
                view_timestamp=view_timestamp,
                added=(),
                removed=(self.pid,),
                reason=reason,
                installed_at=self.now(),
            )
        )
        self._stack.remove_group(self.group_id)

    def seed_provisional_join(self, membership: Tuple[int, ...], view_timestamp: int,
                              join_barrier: Tuple[int, int]) -> None:
        """Adopt an AddProcessor's snapshot while still joining.

        Provisional: :meth:`complete_join` installs the definitive view
        when the AddProcessor is *ordered*.  Heartbeats start here — the
        ordering gate covers our own pid, and only our loopbacked sends
        advance it — but the fault detector and the view upcall wait for
        completion.  A re-seed (fresh AddProcessor after the first one's
        snapshot went stale) drops sources the new snapshot no longer
        lists, so their unfillable gaps stop generating NACKs.
        """
        starting = self.join_barrier is None
        dropped = set(self.membership) - set(membership)
        self.membership = tuple(sorted(membership))
        self.view_timestamp = view_timestamp
        self.join_barrier = join_barrier
        for gone in dropped:
            self.forget_member(gone)
        if starting:
            self.send_path.start_heartbeats()
        # an overlay's established members tree-route toward us the
        # moment they install the add view — bind our unicast address
        # *now* or their Regulars (and the AddProcessor's ordering
        # traffic) never reach us and the join deadlocks
        self.dissemination.prepare_join()
        self.romp.evaluate()

    def complete_join(self, membership: Tuple[int, ...], view_timestamp: int,
                      join_barrier: Tuple[int, int]) -> None:
        """Finish the new-member bootstrap once our AddProcessor is ordered."""
        if not self.joining:
            return
        self.joining = False
        self.join_barrier = join_barrier
        self.membership = tuple(sorted(membership))
        self.view_timestamp = view_timestamp
        self._activate()
        # Announce ourselves at once so the initiator stops retransmitting
        # the AddProcessor and the others' ordering includes us promptly.
        msg = HeartbeatMessage(header=self._header(MessageType.HEARTBEAT, reliable=False))
        self.send_path.send(msg)
        self._stack.listener.on_view_change(
            ViewChange(
                group=self.group_id,
                membership=self.membership,
                view_timestamp=view_timestamp,
                added=(self.pid,),
                removed=(),
                reason="add",
                installed_at=self.now(),
            )
        )
        self.romp.ordering.on_join_completed()

    # ------------------------------------------------------------------
    # connection migration (ordered Connect, §7)
    # ------------------------------------------------------------------
    def apply_connect_migration(self, msg: ConnectMessage) -> None:
        # a Connect may bind a *new* logical connection onto this existing
        # group (shared processor group, §7) rather than migrate it
        self._stack.connections.on_ordered_connect(msg)
        new_addr = msg.ip_multicast_address
        migrated = new_addr != self.address
        if migrated:
            # the window is bound to the old address: drain it first
            self.send_path.flush()
            self._stack.endpoint.leave(self.address)
            self.address = new_addr
            self._stack.endpoint.join(new_addr)
            self.dissemination.on_address_changed()
        self.view_timestamp = max(self.view_timestamp, msg.header.timestamp)
        # §7 quiescence: no ordered transmissions until every member is
        # heard past the Connect's timestamp (their heartbeats get us there).
        self.romp.set_send_barrier(msg.header.timestamp)
        self._stack.connections.apply_migration(msg.connection_id, new_addr)
        binding = self._stack.connections.binding(msg.connection_id)
        if binding is not None and migrated:
            self._stack.notify_connection(binding, migrated=True)
