"""The GIOP → FTMP mapping (the paper's §4: "a concrete mapping of CORBA's
GIOP specification onto FTMP").

:class:`FTMPAdapter` sits between an :class:`~repro.orb.orb.ORB` and an
:class:`~repro.core.stack.FTMPStack`, transparent to both — the approach
of the authors' Eternal system:

* outgoing invocations on a :class:`~repro.giop.ior.GroupRef` become GIOP
  Requests encapsulated in FTMP Regular messages on the logical connection
  between the client object group and the server object group;
* every member of the connection's processor group receives every Request
  and Reply ("delivered to both groups", §4); the adapter suppresses
  duplicates by ``(connection id, request number, kind)`` so replicated
  clients invoke once and replicated servers answer once — per receiver;
* server replicas execute delivered Requests in FTMP's total order, which
  is what keeps active replicas consistent;
* reserved ``_set_state`` Requests implement state transfer to freshly
  added replicas at a consistent cut (see :mod:`repro.replication`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple  # noqa: F401

from ..core import (
    ConnectionEvent,
    ConnectionId,
    Delivery,
    FaultReport,
    FTMPStack,
    Listener,
    RequestNumbering,
    ViewChange,
)
from ..giop import (
    CDRDecoder,
    CDREncoder,
    CloseConnectionMessage,
    CommFailure,
    GIOPHeader,
    GIOPMessageType,
    GroupRef,
    MarshalError,
    ReplyMessage,
    RequestMessage,
    ServiceContext,
    decode_giop,
    encode_giop,
    encode_values,
)
from ..giop.fragmentation import FragmentationError, Reassembler, fragment_giop
from ..giop.messages import is_framed_reply
from .futures import InvocationFuture
from .orb import ORB
from .poa import SET_STATE_OP

__all__ = ["FTMPAdapter", "ClientIdentity"]

#: request numbers for server-originated traffic (state transfer) live in
#: a disjoint range from client-assigned numbers
_SERVER_NUM_BASE = 1 << 32

#: FT-CORBA's FT_REQUEST service context id (OMG tag); carries the client
#: group id, the retention (request) id and an expiration time — the
#: standardized descendant of this paper's (connection id, request number)
FT_REQUEST_CONTEXT_ID = 0x4654_0000 + 1


def encode_ft_request_context(client_group: int, retention_id: int,
                              expiration: float) -> ServiceContext:
    enc = CDREncoder()
    enc.ulong(client_group)
    enc.ulonglong(retention_id)
    enc.double(expiration)
    return ServiceContext(FT_REQUEST_CONTEXT_ID, enc.getvalue())


def decode_ft_request_context(ctx: ServiceContext):
    dec = CDRDecoder(ctx.context_data)
    return dec.ulong(), dec.ulonglong(), dec.double()


@dataclass
class ClientIdentity:
    """This processor's client object group identity (§4 connection ids)."""

    domain: int
    object_group: int
    processor_ids: Tuple[int, ...]


@dataclass
class _PendingConnection:
    """Invocations issued before the Connect handshake finished."""

    sends: List[Tuple[bytes, int]] = field(default_factory=list)


class FTMPAdapter(Listener):
    """Binds one ORB to one FTMP stack (install as the stack's listener)."""

    def __init__(self, orb: ORB, stack: FTMPStack,
                 downstream: Optional[Listener] = None,
                 giop_mtu: Optional[int] = None):
        #: fragment GIOP messages larger than this many bytes (None = off)
        self.giop_mtu = giop_mtu
        #: FT_REQUEST expiration: seconds of validity stamped on outgoing
        #: Requests; servers discard Requests past their expiration
        #: (FT-CORBA semantics; None = no expiration context attached)
        self.request_expiration: Optional[float] = None
        self._reassembler = Reassembler()
        self.orb = orb
        self.stack = stack
        self.downstream = downstream if downstream is not None else Listener()
        stack.listener = self
        orb._set_ftmp_adapter(self)
        #: (domain, object_group) pairs whose servants this processor hosts
        self._served: Set[Tuple[int, int]] = set()
        self._client: Optional[ClientIdentity] = None
        self._numbering: Dict[ConnectionId, RequestNumbering] = {}
        self._server_counter = 0
        #: (cid, request_num) -> future awaiting the first Reply
        self._pending: Dict[Tuple[ConnectionId, int], InvocationFuture] = {}
        self._awaiting_connection: Dict[ConnectionId, _PendingConnection] = {}
        #: object keys buffering deliveries until state transfer completes
        self._awaiting_state: Set[bytes] = set()
        self._buffered: Dict[bytes, List[RequestMessage]] = {}
        #: callbacks invoked on every view change (replication manager hook)
        self.view_callbacks: List[Callable[[ViewChange], None]] = []
        self.fault_callbacks: List[Callable[[FaultReport], None]] = []
        #: (cid, request_num) -> encoded Reply, re-sent when a duplicate
        #: request arrives (answers log-replayed requests, §4)
        self._reply_cache: "OrderedDict[Tuple[ConnectionId, int], Tuple[int, bytes]]" = OrderedDict()
        self.reply_cache_size = 1024
        self.stats_requests_executed = 0
        self.stats_duplicates_suppressed = 0
        self.stats_replies_matched = 0
        self.stats_replies_served_from_cache = 0
        self.stats_requests_expired = 0

    # ==================================================================
    # server side
    # ==================================================================
    def export(self, domain: int, object_group: int,
               server_pids: Tuple[int, ...]) -> None:
        """Declare this processor a member of a server object group."""
        self._served.add((domain, object_group))
        self.stack.serve(domain, object_group, server_pids)

    def serves(self, cid: ConnectionId) -> bool:
        return (cid.server_domain, cid.server_group) in self._served

    # ==================================================================
    # client side
    # ==================================================================
    def set_client(self, identity: ClientIdentity) -> None:
        """Set this processor's client object-group identity."""
        self._client = identity

    def connection_id_for(self, ref: GroupRef) -> ConnectionId:
        if self._client is None:
            raise RuntimeError("client identity not set (call set_client)")
        return ConnectionId(
            client_domain=self._client.domain,
            client_group=self._client.object_group,
            server_domain=ref.domain,
            server_group=ref.object_group,
        )

    def open_connection(self, ref: GroupRef) -> ConnectionId:
        """Start the ConnectRequest/Connect handshake toward a group ref."""
        cid = self.connection_id_for(ref)
        self.stack.request_connection(cid, self._client.processor_ids)
        return cid

    def invoke(self, ref: GroupRef, operation: str, args: Tuple[Any, ...],
               response_expected: bool = True) -> InvocationFuture:
        """Multicast a GIOP Request over the logical connection."""
        cid = self.connection_id_for(ref)
        numbering = self._numbering.setdefault(cid, RequestNumbering())
        request_num = numbering.next()
        service_context = []
        if self.request_expiration is not None:
            service_context.append(encode_ft_request_context(
                self._client.object_group, request_num,
                self.stack.endpoint.now + self.request_expiration,
            ))
        req = RequestMessage(
            header=GIOPHeader(GIOPMessageType.REQUEST,
                              little_endian=self.stack.config.little_endian),
            service_context=service_context,
            request_id=request_num,
            response_expected=response_expected,
            object_key=ref.object_key,
            operation=operation,
            body=encode_values(args, self.stack.config.little_endian),
        )
        fut = InvocationFuture()
        if response_expected:
            self._pending[(cid, request_num)] = fut
        else:
            fut.set_result(None)
        binding = self.stack.connection_binding(cid)
        if binding is None or not binding.established:
            # first invocation opens the connection; buffer until Connect
            pending = self._awaiting_connection.setdefault(cid, _PendingConnection())
            for piece in self._wire_pieces(encode_giop(req)):
                pending.sends.append((piece, request_num))
            if binding is None:
                self.open_connection(ref)
            return fut
        self._send_pieces(cid, encode_giop(req), request_num)
        return fut

    # ==================================================================
    # wire helpers
    # ==================================================================
    def _wire_pieces(self, data: bytes) -> list:
        """Apply GIOP fragmentation when an MTU is configured."""
        if self.giop_mtu is None:
            return [data]
        return fragment_giop(data, self.giop_mtu)

    def _send_pieces(self, cid: ConnectionId, data: bytes, request_num: int) -> None:
        for piece in self._wire_pieces(data):
            self.stack.send_on_connection(cid, piece, request_num)

    # ==================================================================
    # connection release (§7 "releasing a logical connection")
    # ==================================================================
    def close_connection(self, ref: GroupRef) -> None:
        """Release the logical connection to a group reference.

        A GIOP CloseConnection travels the connection's total order, so
        every member (clients and servers) tears down at the same point.
        """
        cid = self.connection_id_for(ref)
        binding = self.stack.connection_binding(cid)
        if binding is None or not binding.established:
            raise CommFailure(f"connection {cid} is not established")
        msg = CloseConnectionMessage(
            header=GIOPHeader(GIOPMessageType.CLOSE_CONNECTION,
                              little_endian=self.stack.config.little_endian)
        )
        numbering = self._numbering.setdefault(cid, RequestNumbering())
        self.stack.send_on_connection(cid, encode_giop(msg), numbering.next())

    def _on_close(self, cid: ConnectionId) -> None:
        # fail anything still awaiting a reply on this connection
        for key in [k for k in self._pending if k[0] == cid]:
            fut = self._pending.pop(key)
            fut.set_exception(CommFailure("connection closed"))
        self._awaiting_connection.pop(cid, None)
        self._numbering.pop(cid, None)
        self.stack.release_connection_local(cid)

    # ==================================================================
    # state transfer (used by repro.replication)
    # ==================================================================
    def await_state(self, object_key: bytes) -> None:
        """Buffer this key's Requests until a ``_set_state`` arrives."""
        self._awaiting_state.add(object_key)
        self._buffered.setdefault(object_key, [])

    def send_state(self, cid: ConnectionId, object_key: bytes, state: Any) -> None:
        """Donor side: ship captured servant state down the connection."""
        self._server_counter += 1
        request_num = _SERVER_NUM_BASE + self.stack.pid * (1 << 20) + self._server_counter
        req = RequestMessage(
            header=GIOPHeader(GIOPMessageType.REQUEST,
                              little_endian=self.stack.config.little_endian),
            request_id=request_num & 0xFFFFFFFF,
            response_expected=False,
            object_key=object_key,
            operation=SET_STATE_OP,
            body=encode_values([state], self.stack.config.little_endian),
        )
        self._send_pieces(cid, encode_giop(req), request_num)

    # ==================================================================
    # FTMP listener implementation
    # ==================================================================
    def on_deliver(self, delivery: Delivery) -> None:
        if delivery.connection_id == ConnectionId.none():
            self.downstream.on_deliver(delivery)
            return
        payload = delivery.payload
        cid = delivery.connection_id
        try:
            if payload[:4] == b"GIOP":
                # fragments of one message arrive FIFO per source (RMP)
                payload = self._reassembler.push((cid, delivery.source), payload)
                if payload is None:
                    return  # fragmented message still incomplete
                if (is_framed_reply(payload)
                        and (cid, delivery.request_num) not in self._pending):
                    # a sibling's or duplicate Reply nobody awaits: only
                    # its number is recorded, so it is never decoded
                    self._reply_unawaited(cid, delivery.request_num)
                    return
            msg = decode_giop(payload)
        except (MarshalError, FragmentationError):
            self.downstream.on_deliver(delivery)
            return
        if isinstance(msg, RequestMessage):
            self._on_request(cid, delivery.group, delivery.request_num, msg)
        elif isinstance(msg, ReplyMessage):
            self._on_reply(cid, delivery.request_num, msg)
        elif isinstance(msg, CloseConnectionMessage):
            self._on_close(cid)
        else:
            self.downstream.on_deliver(delivery)

    def _on_request(self, cid: ConnectionId, group: int, request_num: int,
                    msg: RequestMessage) -> None:
        kind = "state" if msg.operation == SET_STATE_OP else "request"
        if self.stack.duplicates.is_duplicate(cid, request_num, kind):
            self.stats_duplicates_suppressed += 1
            cached = self._reply_cache.get((cid, request_num))
            if cached is not None and msg.response_expected:
                # a replayed request: answer from the reply log instead of
                # re-executing ("necessary ... when replaying messages
                # from a log", §4)
                self.stats_replies_served_from_cache += 1
                c_group, c_data = cached
                for piece in self._wire_pieces(c_data):
                    self.stack.multicast(c_group, piece, cid, request_num)
            return
        if msg.operation == SET_STATE_OP:
            self._on_state_transfer(cid, group, msg)
            return
        if not self.serves(cid):
            return  # we are on the client side of this connection
        if msg.object_key in self._awaiting_state:
            self._buffered[msg.object_key].append((group, request_num, msg))
            return
        if self._expired(msg):
            # FT-CORBA: an expired request is discarded, never executed —
            # the client has already given up on it
            self.stats_requests_expired += 1
            return
        self._execute(cid, group, request_num, msg)

    def _expired(self, msg: RequestMessage) -> bool:
        for ctx in msg.service_context:
            if ctx.context_id == FT_REQUEST_CONTEXT_ID:
                try:
                    _cg, _rid, expiration = decode_ft_request_context(ctx)
                except MarshalError:
                    return False
                return self.stack.endpoint.now > expiration
        return False

    def _execute(self, cid: ConnectionId, group: int, request_num: int,
                 msg: RequestMessage) -> None:
        self.stats_requests_executed += 1
        reply = self.orb.poa.dispatch(msg)
        if reply is not None:
            # reply on the processor group the Request was delivered on —
            # a freshly added replica has the group before any binding
            data = encode_giop(reply)
            self._reply_cache[(cid, request_num)] = (group, data)
            while len(self._reply_cache) > self.reply_cache_size:
                self._reply_cache.popitem(last=False)
            for piece in self._wire_pieces(data):
                self.stack.multicast(group, piece, cid, request_num)

    def _on_state_transfer(self, cid: ConnectionId, group: int,
                           msg: RequestMessage) -> None:
        key = msg.object_key
        if key not in self._awaiting_state:
            return  # donors and up-to-date replicas ignore state shipments
        self._awaiting_state.discard(key)
        self.orb.poa.dispatch(msg)  # applies _set_state to the servant
        # replay the requests buffered between the join cut and now
        for b_group, b_num, buffered in self._buffered.pop(key, []):
            # request numbers were recorded at buffering time; replies for
            # replayed requests are suppressed as duplicates by receivers
            self._execute(cid, b_group, b_num, buffered)

    def _on_reply(self, cid: ConnectionId, request_num: int,
                  msg: ReplyMessage) -> None:
        # a pending future always wins, even when the reply is nominally a
        # duplicate — a log replay deliberately solicits a re-sent reply
        fut = self._pending.pop((cid, request_num), None)
        if fut is None:
            self._reply_unawaited(cid, request_num)
            return
        self.stack.duplicates.is_duplicate(cid, request_num, "reply")
        self.stats_replies_matched += 1
        self.orb.complete_from_reply(fut, msg)

    def _reply_unawaited(self, cid: ConnectionId, request_num: int) -> None:
        if self.stack.duplicates.is_duplicate(cid, request_num, "reply"):
            self.stats_duplicates_suppressed += 1

    def on_connection(self, event: ConnectionEvent) -> None:
        pending = self._awaiting_connection.pop(event.connection_id, None)
        if pending is not None:
            for data, request_num in pending.sends:
                self.stack.send_on_connection(event.connection_id, data, request_num)
        self.downstream.on_connection(event)

    def on_view_change(self, view: ViewChange) -> None:
        for cb in self.view_callbacks:
            cb(view)
        self.downstream.on_view_change(view)

    def on_fault_report(self, report: FaultReport) -> None:
        for cb in self.fault_callbacks:
            cb(report)
        self.downstream.on_fault_report(report)
