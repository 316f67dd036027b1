"""FTMP — the Fault-Tolerant Multicast Protocol (the paper's contribution).

The stack (Figure 1): RMP provides reliable source-ordered multicast over
(simulated) IP Multicast; ROMP adds causal/total order via Lamport
timestamps; PGMP provides connections and processor-group membership.

Entry point: :class:`FTMPStack`.
"""

from .buffers import BufferedMessage, RetransmissionBuffer
from .config import ClockMode, FTMPConfig
from .connection import (
    ConnectionBinding,
    DuplicateDetector,
    RequestNumbering,
    domain_multicast_address,
)
from .constants import (
    HEADER_SIZE,
    MAGIC,
    RELIABLE_TYPES,
    TOTALLY_ORDERED_TYPES,
    MessageType,
)
from .datapath import (
    BatchStats,
    FlowControlSaturated,
    FlowControlStats,
    GroupContext,
    ReceivePath,
    SendPath,
)
from .events import (
    ConnectionEvent,
    Delivery,
    FaultReport,
    Listener,
    RecordingListener,
    ViewChange,
)
from .lamport import LamportClock, OrderingClock, SynchronizedClock
from .llft import ORDER_INFO_CID, LeaderOrdering, LLFTStats
from .messages import (
    AckSummaryMessage,
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
    MultiGroupCommitMessage,
    MultiGroupProposeMessage,
    SuspectMessage,
    order_key,
)
from .multigroup import (
    MULTI_GROUP_CID,
    MULTI_GROUP_COMMUTATIVE_CID,
    MultiGroupOrdering,
    MultiGroupStats,
    is_multigroup_delivery,
    is_total_multigroup_delivery,
    mg_request_num,
)
from .overlay import OverlayDissemination, OverlayStats, unicast_address
from .stack import FTMPStack, ProcessorGroup
from .stats import GroupStats, StackStats, StatsRegistry
from .tracing import TraceEvent, Tracer
from .wire import CodecError, decode, encode, mark_retransmission, peek_header

__all__ = [
    "FTMPStack",
    "ProcessorGroup",
    "GroupContext",
    "SendPath",
    "ReceivePath",
    "BatchStats",
    "FlowControlStats",
    "FlowControlSaturated",
    "StatsRegistry",
    "StackStats",
    "GroupStats",
    "Tracer",
    "TraceEvent",
    "FTMPConfig",
    "ClockMode",
    "MessageType",
    "MAGIC",
    "HEADER_SIZE",
    "RELIABLE_TYPES",
    "TOTALLY_ORDERED_TYPES",
    "ConnectionId",
    "FTMPHeader",
    "FTMPMessage",
    "RegularMessage",
    "BatchMessage",
    "RetransmitRequestMessage",
    "HeartbeatMessage",
    "AckSummaryMessage",
    "ConnectRequestMessage",
    "ConnectMessage",
    "AddProcessorMessage",
    "RemoveProcessorMessage",
    "SuspectMessage",
    "MembershipMessage",
    "MultiGroupProposeMessage",
    "MultiGroupCommitMessage",
    "MultiGroupOrdering",
    "MultiGroupStats",
    "MULTI_GROUP_CID",
    "MULTI_GROUP_COMMUTATIVE_CID",
    "mg_request_num",
    "is_multigroup_delivery",
    "is_total_multigroup_delivery",
    "order_key",
    "encode",
    "decode",
    "peek_header",
    "mark_retransmission",
    "CodecError",
    "Listener",
    "RecordingListener",
    "Delivery",
    "ViewChange",
    "FaultReport",
    "ConnectionEvent",
    "LamportClock",
    "SynchronizedClock",
    "OrderingClock",
    "ORDER_INFO_CID",
    "LeaderOrdering",
    "LLFTStats",
    "OverlayDissemination",
    "OverlayStats",
    "unicast_address",
    "RetransmissionBuffer",
    "BufferedMessage",
    "RequestNumbering",
    "DuplicateDetector",
    "ConnectionBinding",
    "domain_multicast_address",
]
