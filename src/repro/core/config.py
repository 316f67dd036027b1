"""Tunable parameters of the FTMP stack.

Defaults are chosen for the simulated LAN (link latency ~100 us); the
heartbeat interval and fault timeout are the paper's central tuning knobs
(§5: "The choice of the heartbeat interval is a compromise between message
latency and network traffic").  All times are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["FTMPConfig", "ClockMode", "ORDERINGS"]

#: The ordering disciplines ``FTMPConfig.ordering`` selects from.
ORDERINGS = ("lamport", "llft", "multigroup")


class ClockMode:
    """Timestamp source for ROMP ordering (paper §6)."""

    LAMPORT = "lamport"
    SYNCHRONIZED = "synchronized"


@dataclass(frozen=True)
class FTMPConfig:
    """Immutable configuration shared by all groups of one stack."""

    # --- heartbeats / liveness (paper §5, §7.2) -----------------------
    #: Multicast a Heartbeat if no Regular message was sent for this long.
    heartbeat_interval: float = 0.010
    #: Suspect a member after this much silence (must exceed several
    #: heartbeat intervals to tolerate loss).
    suspect_timeout: float = 0.060
    #: Re-announce an unresolved suspicion at this period.
    suspect_resend_interval: float = 0.020

    # --- negative acknowledgements (paper §5) --------------------------
    #: Delay between detecting a sequence gap and multicasting the
    #: RetransmitRequest (lets reordered packets arrive first).
    nack_delay: float = 0.002
    #: Re-send an unanswered RetransmitRequest at this period.
    nack_retry_interval: float = 0.010
    #: Multiply the retry period by this factor on every consecutive
    #: retry that makes no progress (SRM-style repair-request backoff,
    #: capped at ``nack_retry_max``); progress resets to the base
    #: period.  1.0 keeps the paper's fixed retry period.  Persistent
    #: holes otherwise re-request at the full retry rate forever, and on
    #: a congested network that repair traffic can itself sustain the
    #: congestion that keeps the holes open.
    nack_backoff_factor: float = 1.0
    #: Upper bound of the backed-off NACK retry period.
    nack_retry_max: float = 0.160
    #: Base for the randomized retransmission backoff: a non-source holder
    #: of a requested message waits U(0,1) * base before retransmitting and
    #: suppresses if it sees another copy first (NACK-implosion avoidance).
    retransmit_backoff: float = 0.002
    #: Ablation A1: disable the backoff/suppression scheme (every holder
    #: answers every RetransmitRequest immediately).
    retransmit_suppression: bool = True
    #: Ablation A2: if False, only the original source answers NACKs
    #: (the paper's "any processor ... may retransmit" turned off).
    retransmit_any_holder: bool = True

    # --- retransmission pacing (extension) ------------------------------
    #: Token-bucket rate cap on retransmissions answered by this
    #: processor (retransmissions / second).  Recovery traffic beyond the
    #: rate is deferred, not dropped, so loss bursts cannot starve fresh
    #: sends of the egress.  0 disables pacing (legacy behaviour).
    retransmit_rate_limit: float = 0.0
    #: Bucket depth for the pacing token bucket: a burst of up to this
    #: many retransmissions may go out back-to-back.
    retransmit_burst: int = 8
    #: Suppress duplicate RetransmitRequests: a request for a (source,
    #: seq) this processor answered less than this many seconds ago is
    #: ignored (the answer is still in flight).  0 disables (legacy).
    nack_dedupe_window: float = 0.0

    # --- connections (paper §7) ----------------------------------------
    #: Client retries ConnectRequest at this period until Connect arrives.
    connect_retry_interval: float = 0.020
    #: Server retransmits Connect at this period until it sees traffic
    #: from the client over the new connection.
    connect_resend_interval: float = 0.020
    #: AddProcessor is retransmitted to the (unreliable) new member at
    #: this period until the new member is heard from.
    add_resend_interval: float = 0.020

    # --- ordering clock (paper §6) --------------------------------------
    #: ClockMode.LAMPORT or ClockMode.SYNCHRONIZED.
    clock_mode: str = ClockMode.LAMPORT
    #: Resolution of the synchronized clock in seconds per tick.
    sync_clock_resolution: float = 1e-6
    #: Bounded skew applied to this processor's synchronized clock.
    sync_clock_skew: float = 0.0

    # --- batching / piggybacking (extension) -----------------------------
    #: Coalescing window for small Regular messages (seconds).  Within a
    #: window, Regulars to the group address are packed into one Batch
    #: datagram and pending heartbeats are suppressed (the batch carries
    #: fresher timestamps anyway).  0 disables batching entirely: every
    #: send goes out immediately, bit-identical to the unbatched stack.
    batch_window: float = 0.0
    #: Flush a pending batch as soon as its packed parts reach this many
    #: bytes; also the per-message eligibility cap (bigger messages are
    #: sent unbatched).
    batch_max_bytes: int = 1200
    #: Adapt the coalescing window to the offered load: when the recent
    #: send rate would not fill a window with at least ``batch_min_fill``
    #: messages, eligible sends bypass the window entirely (near-unbatched
    #: low-load latency); under load the window grows back toward
    #: ``batch_window`` / ``batch_max_bytes`` coalescing.  Only meaningful
    #: with ``batch_window > 0``.
    batch_adaptive: bool = False
    #: Minimum expected messages per window for the adaptive window to
    #: engage coalescing (the break-even batch size).
    batch_min_fill: int = 4

    # --- flow control (extension) ----------------------------------------
    #: Per-sender credit window: the maximum number of this processor's
    #: own Regular messages that may be in flight — sent but not yet
    #: *stable* (at/below ``romp.stability_timestamp()``, the §6 positive
    #: acknowledgement signal).  Application sends beyond the window queue
    #: at the sender (backpressure) instead of flooding the network.
    #: 0 disables flow control (legacy behaviour).
    flow_control_window: int = 0
    #: Optional cap on sends held back at the sender (the flow-control
    #: backpressure queue plus sends deferred by a §7 quiescence
    #: barrier).  A multicast beyond the cap raises
    #: ``FlowControlSaturated`` instead of queueing, giving the
    #: application a synchronous load-shedding signal.  0 = unbounded
    #: (legacy behaviour; queue depth still visible via fc_queue_depth).
    flow_queue_limit: int = 0

    # --- ordering discipline (paper §6 and two extensions) ----------------
    #: The delivery rule of every group, one of :data:`ORDERINGS`.
    #: ``"lamport"`` (default) is the paper's symmetric total order: a
    #: message is delivered once every member is heard past its timestamp.
    #: ``"llft"`` is the LLFT leader-follower fast path (arXiv 1004.1864):
    #: the leader's reliable FIFO stream *is* the total order — it delivers
    #: its own Regulars at send time and positions every other member's
    #: ordered messages with OrderInfo announcements in its stream, which
    #: followers adopt; stability (§6) leaves the delivery critical path
    #: but still drives buffer GC and flow-control credits, and the §7.2
    #: drain reconciles the leader's suffix at a view change.
    #: ``"multigroup"`` is genuine multi-group atomic multicast (arXiv
    #: 1904.07171): a message addressed to a *set* of groups takes one
    #: Lamport position per group (a MultiGroupPropose in that group's
    #: stream), commits at the max and is delivered everywhere at the
    #: committed timestamp, so any two are delivered in the same relative
    #: order wherever both are; only the addressed groups exchange messages
    #: (genuineness), and a non-zero conflict class commutes and skips the
    #: commit wait (Generic Multicast, arXiv 2410.01901).  Both extensions
    #: need agreed delivery and flat dissemination.
    ordering: str = "lamport"
    #: Preferred leader pid for ``ordering="llft"``.  0 (default)
    #: auto-selects the smallest pid of the current membership; a
    #: configured pid leads whenever it is a member and the auto rule
    #: applies otherwise (so a leader crash deterministically falls back
    #: to min(membership)).
    llft_leader_pid: int = 0

    # --- overlay dissemination (extension, cf. arXiv 2309.14074) ---------
    #: Route Regular messages and §6 stability over a deterministic k-ary
    #: tree derived from the sorted current membership instead of the flat
    #: IP-multicast fan-out.  Interior relays forward each Regular once
    #: per subtree, and each relay folds its subtree's minimum
    #: cover/ack timestamps into one compact AckSummary message up the
    #: tree, so the root observes stability in O(depth) messages instead
    #: of O(n); the resulting frontier is re-broadcast down the tree and
    #: keeps driving buffer GC and flow-control credits unchanged.  The
    #: tree is recomputed at every view install, so PGMP membership stays
    #: the single source of truth.  NACK recovery, membership/control
    #: traffic and the §7.2 drain stay flat multicast.  False = the
    #: paper's flat dissemination.
    overlay_mode: bool = False
    #: Fan-out k of the dissemination tree (children per interior node).
    overlay_fanout: int = 4
    #: Period of the per-member AckSummary exchange along tree edges
    #: (up-summaries to the parent, frontier re-broadcast to children).
    #: Also the liveness keepalive cadence between tree neighbours; the
    #: end-to-end stability latency is about 2 * depth * interval.
    overlay_summary_interval: float = 0.005

    # --- delivery guarantee ----------------------------------------------
    #: "agreed" (default): deliver as soon as the total order is decided.
    #: "safe": additionally wait until the message is *stable* — the ack
    #: timestamps show every member holds it — before delivering (Totem's
    #: agreed/safe distinction, built on §6's ack machinery).  Safe
    #: delivery survives any minority of simultaneous crashes without a
    #: survivor having delivered something the others never received.
    #: Only the ``"lamport"`` ordering supports "safe".
    delivery_mode: str = "agreed"

    # --- buffering -------------------------------------------------------
    #: If False, ack-timestamp garbage collection is disabled (experiment
    #: E4 measures the resulting unbounded buffer growth).
    buffer_gc_enabled: bool = True
    #: Grace period granted to a freshly added member before the fault
    #: detector may suspect it.
    join_grace: float = 0.100

    # --- wire ------------------------------------------------------------
    #: Encode little-endian (the header's byte-order flag, paper §3.2).
    little_endian: bool = True

    def __post_init__(self) -> None:
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}; choose from {ORDERINGS}")
        if self.delivery_mode not in ("agreed", "safe"):
            raise ValueError(f"unknown delivery_mode {self.delivery_mode!r}; "
                             "choose 'agreed' or 'safe'")
        if self.ordering != "lamport" and self.overlay_mode:
            raise ValueError(f"ordering={self.ordering!r} needs flat dissemination "
                             "(overlay_mode off): it is defined on the flat stream")
        if self.ordering != "lamport" and self.delivery_mode == "safe":
            raise ValueError(f"ordering={self.ordering!r} needs delivery_mode='agreed': "
                             "the llft fast path delivers ahead of stability, and "
                             "the multigroup commit wait deadlocks against safe holds")

    def with_(self, **kwargs) -> "FTMPConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)
