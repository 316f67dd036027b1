"""RMP — the Reliable Multicast Protocol layer (paper §5).

RMP provides reliable *source-ordered* delivery to the ROMP/PGMP layers:

* per-(source, group) sequence numbers detect missing messages;
* a receiver multicasts a ``RetransmitRequest`` (negative ack) for each gap
  and re-sends it periodically until the gap fills;
* *any* processor holding a requested message may retransmit it; we add a
  randomized backoff with suppression so one copy usually answers a NACK
  (the paper says only "may retransmit");
* Heartbeats and ConnectRequests are passed through unreliably as they
  arrive (Figure 3); a heartbeat's sequence number also reveals gaps,
  because it repeats the sender's latest reliable sequence number.

RMP is deliberately membership-agnostic: per-source state is created on
demand for any source heard on the group address, and the group purges it
when a processor leaves the membership.  This closes the race where a
freshly added member's first messages arrive before the ``AddProcessor``
has been ordered locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Set

from .constants import RELIABLE_TYPES, MessageType
from .messages import (
    AckSummaryMessage,
    FTMPMessage,
    HeartbeatMessage,
    RetransmitRequestMessage,
)

if TYPE_CHECKING:  # pragma: no cover
    from .datapath import GroupContext

__all__ = ["RMP", "RMPStats", "SourceState"]


@dataclass
class RMPStats:
    """Counters surfaced to experiments (E3 reads these)."""

    delivered: int = 0
    duplicates: int = 0
    out_of_order: int = 0
    gaps_detected: int = 0
    nacks_sent: int = 0
    retransmissions_sent: int = 0
    retransmissions_suppressed: int = 0
    retransmit_requests_received: int = 0
    retransmissions_paced: int = 0  #: deferred by the pacing token bucket
    duplicate_requests_suppressed: int = 0  #: NACK repeats inside the dedupe window


@dataclass
class SourceState:
    """Receive-side state for one message source within one group."""

    next_seq: int = 1  #: next expected sequence number
    pending: Dict[int, FTMPMessage] = field(default_factory=dict)
    highest_heard: int = 0  #: highest seq advertised (messages or heartbeats)
    nack_timer: Optional[object] = None
    nack_retries: int = 0  #: consecutive NACK retries without progress
    nack_progress: int = 0  #: ``next_seq`` when the last NACK was sent
    #: a Heartbeat (or overlay AckSummary — same seq/timestamp contract)
    #: that arrived ahead of a gap, replayed once the gap fills
    deferred_heartbeat: Optional[FTMPMessage] = None

    @property
    def contiguous_top(self) -> int:
        """Highest seq such that every message 1..top has been received."""
        return self.next_seq - 1


class RMP:
    """One RMP instance per (processor, group) pair."""

    #: bound on the NACK-escalation count map; oldest keys are evicted
    #: individually so in-flight escalations keep their counts
    _NACK_COUNT_CAP = 4096

    #: bound on the duplicate-request answer-time map; purged lazily
    _ANSWERED_CAP = 4096

    def __init__(self, group: "GroupContext"):
        self._g = group
        self._sources: Dict[int, SourceState] = {}
        #: (source, seq) -> timer for our pending answer to someone's NACK
        self._retransmit_jobs: Dict[tuple, object] = {}
        #: (source, seq) -> how many RetransmitRequests we have seen for it
        self._nack_counts: Dict[tuple, int] = {}
        #: (source, seq) -> when we last committed to answering it
        #: (duplicate-request suppression, ``nack_dedupe_window``)
        self._answered: Dict[tuple, float] = {}
        #: pacing token bucket, kept as the earliest next emission time
        self._pace_next = -1e9
        #: keys in ``_retransmit_jobs`` whose pending answer must NOT be
        #: cancelled by an arriving copy (escalated / ablation answers)
        self._unsuppressible: Set[tuple] = set()
        self.stats = RMPStats()

    # ------------------------------------------------------------------
    # datagram entry point (called by the stack after decode + group filter)
    # ------------------------------------------------------------------
    def on_message(self, msg: FTMPMessage) -> None:
        """Route one received FTMP message for this group."""
        mtype = msg.header.message_type
        if mtype == MessageType.HEARTBEAT:
            self._on_heartbeat(msg)  # type: ignore[arg-type]
        elif mtype == MessageType.RETRANSMIT_REQUEST:
            self._on_retransmit_request(msg)  # type: ignore[arg-type]
        elif mtype == MessageType.ACK_SUMMARY:
            self._on_ack_summary(msg)  # type: ignore[arg-type]
        elif mtype == MessageType.CONNECT_REQUEST:
            # unreliable, straight to PGMP (Figure 3)
            self._g.pgmp_receive_unreliable(msg)
        elif mtype in RELIABLE_TYPES:
            self._on_reliable(msg)
        # unknown types were already rejected by the codec

    # ------------------------------------------------------------------
    # reliable source-ordered path
    # ------------------------------------------------------------------
    def _on_reliable(self, msg: FTMPMessage) -> None:
        h = msg.header
        src = h.source
        # A retransmitted copy we were about to send ourselves: suppress.
        if h.retransmission:
            self._suppress_retransmission(src, h.sequence_number)

        st = self._state(src)
        seq = h.sequence_number
        if seq > st.highest_heard:
            st.highest_heard = seq

        if seq < st.next_seq or seq in st.pending:
            self.stats.duplicates += 1
            return

        # Retain for answering future NACKs ("any processor that has
        # received [the] message ... may retransmit", §5).
        self._g.retain(msg)

        if seq == st.next_seq:
            self._advance(src, st, first=msg)
        else:
            st.pending[seq] = msg
            self.stats.out_of_order += 1
            self._note_gap(src, st)

    def _advance(self, src: int, st: SourceState, first: Optional[FTMPMessage]) -> None:
        """Deliver ``first`` plus any now-contiguous pending messages upward."""
        if first is not None:
            st.next_seq += 1
            self.stats.delivered += 1
            self._g.romp_receive(first)
        while st.next_seq in st.pending:
            msg = st.pending.pop(st.next_seq)
            st.next_seq += 1
            self.stats.delivered += 1
            self._g.romp_receive(msg)
        if not self._missing_range(st):
            self._cancel_nack(st)
        # A heartbeat that arrived ahead of a gap becomes usable once the
        # gap fills (its seq now refers to messages we hold contiguously).
        hb = st.deferred_heartbeat
        if hb is not None and hb.header.sequence_number <= st.contiguous_top:
            st.deferred_heartbeat = None
            self._g.romp_heartbeat(hb)

    # ------------------------------------------------------------------
    # heartbeats (unreliable, but they expose gaps)
    # ------------------------------------------------------------------
    def _on_heartbeat(self, msg: HeartbeatMessage) -> None:
        src = msg.header.source
        st = self._state(src)
        seq = msg.header.sequence_number
        if seq > st.highest_heard:
            st.highest_heard = seq
        if seq > st.contiguous_top:
            # The sender has reliable messages we lack: NACK them, and only
            # hand the heartbeat to ROMP once we are contiguous (otherwise
            # its timestamp would let ROMP order past a hole).
            st.deferred_heartbeat = msg
            self._note_gap(src, st)
        else:
            self._g.romp_heartbeat(msg)

    def _on_ack_summary(self, msg: AckSummaryMessage) -> None:
        """An overlay stability summary: heartbeat semantics + aggregation.

        The header carries the sender's live seq/timestamp/ack exactly
        like a Heartbeat, so the same gap-exposure and deferral rules
        apply; the aggregation payload is handed to the dissemination
        unconditionally — its per-source entries are global facts, valid
        whether or not the sender's own stream is currently contiguous
        here.
        """
        src = msg.header.source
        st = self._state(src)
        seq = msg.header.sequence_number
        if seq > st.highest_heard:
            st.highest_heard = seq
        if seq > st.contiguous_top:
            st.deferred_heartbeat = msg
            self._note_gap(src, st)
        else:
            self._g.romp_heartbeat(msg)  # type: ignore[arg-type]
        self._g.dissemination.on_summary(msg)

    def disclose(self, src: int, seq: int) -> None:
        """Expose that reliable messages from ``src`` through ``seq``
        exist (overlay progress entries): raise ``highest_heard`` and arm
        NACK recovery for the gap, exactly as a heartbeat would."""
        st = self._state(src)
        if seq > st.highest_heard:
            st.highest_heard = seq
        if seq > st.contiguous_top:
            self._note_gap(src, st)

    # ------------------------------------------------------------------
    # gap detection -> negative acknowledgements
    # ------------------------------------------------------------------
    def _missing_range(self, st: SourceState) -> Optional[tuple]:
        """The first contiguous block of missing seqs, or None."""
        if st.highest_heard <= st.contiguous_top:
            return None
        start = st.next_seq
        stop = start
        # walk to the end of the first hole
        while stop + 1 <= st.highest_heard and (stop + 1) not in st.pending:
            stop += 1
        # ensure the start itself is actually missing
        if start in st.pending:
            return None
        return (start, min(stop, st.highest_heard))

    def _note_gap(self, src: int, st: SourceState) -> None:
        if st.nack_timer is not None:
            return
        self.stats.gaps_detected += 1
        self._g.trace("gap", missing_from=src, expected=st.next_seq,
                      highest_heard=st.highest_heard)
        st.nack_timer = self._g.schedule(
            self._g.config.nack_delay, self._send_nack, src
        )

    def _send_nack(self, src: int) -> None:
        st = self._sources.get(src)
        if st is None:
            return
        st.nack_timer = None
        rng_missing = self._missing_range(st)
        if rng_missing is None:
            st.nack_retries = 0
            return
        start, stop = rng_missing
        if st.next_seq > st.nack_progress:
            st.nack_retries = 0  # partial repair arrived: back off resets
        st.nack_progress = st.next_seq
        self.stats.nacks_sent += 1
        self._g.send_retransmit_request(src, start, stop)
        cfg = self._g.config
        interval = cfg.nack_retry_interval
        if cfg.nack_backoff_factor > 1.0 and st.nack_retries:
            interval = min(interval * cfg.nack_backoff_factor ** st.nack_retries,
                           cfg.nack_retry_max)
        st.nack_retries += 1
        st.nack_timer = self._g.schedule(interval, self._send_nack, src)

    def _cancel_nack(self, st: SourceState) -> None:
        if st.nack_timer is not None:
            st.nack_timer.cancel()
            st.nack_timer = None
        st.nack_retries = 0

    # ------------------------------------------------------------------
    # answering other processors' NACKs
    # ------------------------------------------------------------------
    def _on_retransmit_request(self, msg: RetransmitRequestMessage) -> None:
        self.stats.retransmit_requests_received += 1
        wanted_src = msg.processor_id
        if not self._g.config.retransmit_any_holder and wanted_src != self._g.pid:
            return  # ablation A2: only the source answers
        for buffered in self._g.buffer.range_for(wanted_src, msg.start_seq, msg.stop_seq):
            key = (buffered.source, buffered.sequence_number)
            if key in self._retransmit_jobs:
                continue
            if self._is_duplicate_request(key):
                continue
            if not self._g.config.retransmit_suppression:
                # ablation A1: no backoff, no suppression (pacing still
                # applies — the bucket is orthogonal to the ablation)
                self._note_answered(key)
                self._emit_unsuppressible(key, buffered.data)
                continue
            # pop + reinsert keeps the dict in recency order; the cap below
            # evicts single keys — stalest first, never the key just
            # touched, and never a key that is already escalating
            # (count >= 2) while a colder victim exists
            count = self._nack_counts[key] = self._nack_counts.pop(key, 0) + 1
            while len(self._nack_counts) > self._NACK_COUNT_CAP:
                victim = next(
                    (k for k, c in self._nack_counts.items()
                     if c < 2 and k != key), None
                )
                if victim is None:
                    victim = next(k for k in self._nack_counts if k != key)
                del self._nack_counts[victim]
            if count >= 3 and wanted_src != self._g.pid:
                # The requester keeps asking: whatever copy it has been
                # offered is not reaching it (e.g. the source's link to it
                # is down).  Answer unsuppressibly so a different network
                # path carries the message.
                self._note_answered(key)
                self._emit_unsuppressible(key, buffered.data)
                continue
            if wanted_src == self._g.pid:
                # The original source answers immediately.
                delay = 0.0
            else:
                # Other holders back off randomly and suppress if a copy
                # shows up first — avoids a retransmission implosion.
                delay = self._g.rng.random() * self._g.config.retransmit_backoff
            self._note_answered(key)
            self._retransmit_jobs[key] = self._g.schedule(
                delay, self._do_retransmit, key, buffered.data
            )

    def _do_retransmit(self, key: tuple, raw: bytes, paced: bool = False) -> None:
        if self._retransmit_jobs.pop(key, None) is None:
            return
        self._unsuppressible.discard(key)
        if not paced:
            delay = self._pace_delay()
            if delay > 0.0:
                # the bucket is dry: keep the answer pending (still
                # suppressible by another holder's copy) until its slot
                self.stats.retransmissions_paced += 1
                self._retransmit_jobs[key] = self._g.schedule(
                    delay, self._do_retransmit, key, raw, True
                )
                return
        self.stats.retransmissions_sent += 1
        self._g.retransmit_raw(raw)

    # ------------------------------------------------------------------
    # retransmission pacing & duplicate-request suppression (extension)
    # ------------------------------------------------------------------
    def _pace_delay(self) -> float:
        """Reserve the next token-bucket slot; 0 when tokens are available.

        Each call reserves exactly one emission: recovery traffic beyond
        ``retransmit_rate_limit`` per second (with ``retransmit_burst``
        of slack) is deferred, never dropped, so a loss burst's repair
        cannot monopolize the sender's egress against fresh sends.
        """
        rate = self._g.config.retransmit_rate_limit
        if rate <= 0.0:
            return 0.0
        now = self._g.now()
        interval = 1.0 / rate
        # a full bucket admits exactly ``retransmit_burst`` back-to-back
        earliest = max(self._pace_next,
                       now - (self._g.config.retransmit_burst - 1) * interval)
        self._pace_next = earliest + interval
        delay = earliest - now
        # float residue from repeated interval sums must not read as a
        # positive delay (it would needlessly defer an in-burst emission)
        return delay if delay > 1e-9 else 0.0

    def _emit_unsuppressible(self, key: tuple, raw: bytes) -> None:
        """Send a retransmission that must not be cancelled by suppression,
        deferring through the pacing bucket when it is dry.

        A deferred answer stays under its real ``(source, seq)`` key so
        a repeated RetransmitRequest for the same message hits the
        pending-job check and cannot enqueue a second paced copy (even
        with ``nack_dedupe_window`` disabled); the key is marked
        unsuppressible so an arriving copy does not cancel it either.
        """
        delay = self._pace_delay()
        if delay <= 0.0:
            self.stats.retransmissions_sent += 1
            self._g.retransmit_raw(raw)
            return
        self.stats.retransmissions_paced += 1
        self._unsuppressible.add(key)
        self._retransmit_jobs[key] = self._g.schedule(
            delay, self._do_retransmit, key, raw, True
        )

    def _is_duplicate_request(self, key: tuple) -> bool:
        """True when we committed to answering ``key`` inside the window."""
        window = self._g.config.nack_dedupe_window
        if window <= 0.0:
            return False
        last = self._answered.get(key)
        if last is not None and self._g.now() - last < window:
            self.stats.duplicate_requests_suppressed += 1
            return True
        return False

    def _note_answered(self, key: tuple) -> None:
        window = self._g.config.nack_dedupe_window
        if window <= 0.0:
            return
        now = self._g.now()
        self._answered[key] = now
        if len(self._answered) > self._ANSWERED_CAP:
            cutoff = now - window
            self._answered = {
                k: t for k, t in self._answered.items() if t >= cutoff
            }

    def _suppress_retransmission(self, src: int, seq: int) -> None:
        key = (src, seq)
        if key in self._unsuppressible:
            return  # an escalated answer: a copy elsewhere must not cancel it
        job = self._retransmit_jobs.pop(key, None)
        if job is not None:
            job.cancel()
            self.stats.retransmissions_suppressed += 1

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def _state(self, src: int) -> SourceState:
        st = self._sources.get(src)
        if st is None:
            st = self._sources[src] = SourceState()
        return st

    def contiguous_top(self, src: int) -> int:
        """Highest seq received gap-free from ``src`` (0 if nothing yet)."""
        st = self._sources.get(src)
        return st.contiguous_top if st is not None else 0

    def set_baseline(self, src: int, seq: int) -> None:
        """Start expecting ``src`` from ``seq + 1`` (new-member join, §7.1)."""
        st = self._state(src)
        if st.next_seq <= seq:
            st.next_seq = seq + 1
            st.pending = {s: m for s, m in st.pending.items() if s > seq}
            if seq > st.highest_heard:
                st.highest_heard = seq
        # the source restarts its numbering at seq: escalation counts keyed
        # to the old incarnation's sequence numbers are meaningless now
        self._purge_nack_counts(src)

    def drop_source(self, src: int) -> None:
        """Forget a source entirely (it left the membership)."""
        st = self._sources.pop(src, None)
        if st is not None:
            self._cancel_nack(st)
        for key in [k for k in self._retransmit_jobs if k[0] == src]:
            self._retransmit_jobs.pop(key).cancel()
            self._unsuppressible.discard(key)
        # Without this, a processor that leaves and rejoins with reset
        # sequence numbers inherits stale >= 3 counts and every first NACK
        # for a reused (src, seq) triggers an unsuppressed retransmit storm.
        self._purge_nack_counts(src)

    def _purge_nack_counts(self, src: int) -> None:
        for key in [k for k in self._nack_counts if k[0] == src]:
            del self._nack_counts[key]
        # the dedupe window must not suppress the first NACK for a reused
        # (src, seq) from the source's next incarnation
        for key in [k for k in self._answered if k[0] == src]:
            del self._answered[key]

    def sources(self) -> Dict[int, SourceState]:
        """Read-only view of per-source state (used by PGMP seq vectors)."""
        return self._sources

    def has_gaps(self) -> bool:
        """True if any source currently has outstanding missing messages."""
        return any(self._missing_range(st) is not None for st in self._sources.values())

    def stop(self) -> None:
        """Cancel all timers (stack shutdown)."""
        for st in self._sources.values():
            self._cancel_nack(st)
        for job in self._retransmit_jobs.values():
            job.cancel()
        self._retransmit_jobs.clear()
        self._unsuppressible.clear()
