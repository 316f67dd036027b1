"""GIOP message model (CORBA 2.2 chapter 13; paper §3.1).

"CORBA's Generalized Inter-ORB Protocol (GIOP) specification defines eight
message types: Request, Reply, CancelRequest, LocateRequest, LocateReply,
CloseConnection, MessageError and Fragment."  All eight are implemented
with GIOP 1.0 header/body layouts (the byte-order octet form), and each is
what FTMP encapsulates inside a Regular message (Figure 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Tuple, Union

from .cdr import CDRDecoder, CDREncoder, MarshalError

__all__ = [
    "GIOP_MAGIC",
    "GIOPMessageType",
    "ReplyStatus",
    "LocateStatus",
    "ServiceContext",
    "GIOPHeader",
    "RequestMessage",
    "ReplyMessage",
    "CancelRequestMessage",
    "LocateRequestMessage",
    "LocateReplyMessage",
    "CloseConnectionMessage",
    "MessageErrorMessage",
    "FragmentMessage",
    "GIOPMessage",
    "encode_giop",
    "decode_giop",
    "is_framed_reply",
]

GIOP_MAGIC = b"GIOP"
_HEADER_LEN = 12


class GIOPMessageType(enum.IntEnum):
    """The eight GIOP message types (CORBA 2.2 §13.2.1)."""

    REQUEST = 0
    REPLY = 1
    CANCEL_REQUEST = 2
    LOCATE_REQUEST = 3
    LOCATE_REPLY = 4
    CLOSE_CONNECTION = 5
    MESSAGE_ERROR = 6
    FRAGMENT = 7


class ReplyStatus(enum.IntEnum):
    NO_EXCEPTION = 0
    USER_EXCEPTION = 1
    SYSTEM_EXCEPTION = 2
    LOCATION_FORWARD = 3


class LocateStatus(enum.IntEnum):
    UNKNOWN_OBJECT = 0
    OBJECT_HERE = 1
    OBJECT_FORWARD = 2


@dataclass(frozen=True)
class ServiceContext:
    """One entry of a GIOP service context list."""

    context_id: int
    context_data: bytes


@dataclass
class GIOPHeader:
    """The 12-byte GIOP message header."""

    message_type: GIOPMessageType
    little_endian: bool = True
    version: Tuple[int, int] = (1, 0)
    message_size: int = 0  #: body size; filled in at encode time


@dataclass
class RequestMessage:
    header: GIOPHeader
    service_context: List[ServiceContext] = field(default_factory=list)
    request_id: int = 0
    response_expected: bool = True
    object_key: bytes = b""
    operation: str = ""
    requesting_principal: bytes = b""
    body: bytes = b""  #: CDR-encoded in/inout parameters


@dataclass
class ReplyMessage:
    header: GIOPHeader
    service_context: List[ServiceContext] = field(default_factory=list)
    request_id: int = 0
    reply_status: ReplyStatus = ReplyStatus.NO_EXCEPTION
    body: bytes = b""  #: CDR-encoded results / exception


@dataclass
class CancelRequestMessage:
    header: GIOPHeader
    request_id: int = 0


@dataclass
class LocateRequestMessage:
    header: GIOPHeader
    request_id: int = 0
    object_key: bytes = b""


@dataclass
class LocateReplyMessage:
    header: GIOPHeader
    request_id: int = 0
    locate_status: LocateStatus = LocateStatus.UNKNOWN_OBJECT


@dataclass
class CloseConnectionMessage:
    header: GIOPHeader


@dataclass
class MessageErrorMessage:
    header: GIOPHeader


@dataclass
class FragmentMessage:
    """GIOP 1.1 continuation of a fragmented message."""

    header: GIOPHeader
    data: bytes = b""


GIOPMessage = Union[
    RequestMessage,
    ReplyMessage,
    CancelRequestMessage,
    LocateRequestMessage,
    LocateReplyMessage,
    CloseConnectionMessage,
    MessageErrorMessage,
    FragmentMessage,
]


def _encode_service_context(enc: CDREncoder, ctxs: List[ServiceContext]) -> None:
    enc.ulong(len(ctxs))
    for c in ctxs:
        enc.ulong(c.context_id)
        enc.octets(c.context_data)


def _decode_service_context(dec: CDRDecoder) -> List[ServiceContext]:
    return [ServiceContext(dec.ulong(), dec.octets()) for _ in range(dec.ulong())]


def encode_giop(msg: GIOPMessage) -> bytes:
    """Serialize a GIOP message: 12-byte header + CDR body."""
    h = msg.header
    body = CDREncoder(h.little_endian)
    # Body alignment is relative to the start of the message; account for
    # the 12-byte header so multiples-of-8 land correctly.
    body.raw(b"\x00" * _HEADER_LEN)

    if isinstance(msg, RequestMessage):
        _encode_service_context(body, msg.service_context)
        body.ulong(msg.request_id)
        body.boolean(msg.response_expected)
        body.octets(msg.object_key)
        body.string(msg.operation)
        body.octets(msg.requesting_principal)
        body.raw(msg.body)
    elif isinstance(msg, ReplyMessage):
        _encode_service_context(body, msg.service_context)
        body.ulong(msg.request_id)
        body.enum(int(msg.reply_status))
        body.raw(msg.body)
    elif isinstance(msg, CancelRequestMessage):
        body.ulong(msg.request_id)
    elif isinstance(msg, LocateRequestMessage):
        body.ulong(msg.request_id)
        body.octets(msg.object_key)
    elif isinstance(msg, LocateReplyMessage):
        body.ulong(msg.request_id)
        body.enum(int(msg.locate_status))
    elif isinstance(msg, (CloseConnectionMessage, MessageErrorMessage)):
        pass
    elif isinstance(msg, FragmentMessage):
        body.raw(msg.data)
    else:  # pragma: no cover - exhaustive
        raise MarshalError(f"unknown GIOP message {type(msg).__name__}")

    payload = body.getvalue()[_HEADER_LEN:]
    h.message_size = len(payload)

    head = CDREncoder(h.little_endian)
    head.raw(GIOP_MAGIC)
    head.octet(h.version[0])
    head.octet(h.version[1])
    head.boolean(h.little_endian)  # GIOP 1.0 byte_order octet
    head.octet(int(h.message_type))
    head.ulong(h.message_size)
    return head.getvalue() + payload


def is_framed_reply(data: bytes) -> bool:
    """True when ``data`` passes :func:`decode_giop`'s framing checks as a
    Reply — magic, message type and size field — without parsing the body."""
    return (len(data) >= _HEADER_LEN and data[:4] == GIOP_MAGIC
            and data[7] == GIOPMessageType.REPLY
            and int.from_bytes(data[8:12], "little" if data[6] == 1 else "big")
            == len(data) - _HEADER_LEN)


def decode_giop(data: bytes) -> GIOPMessage:
    """Deserialize a GIOP message."""
    if len(data) < _HEADER_LEN or data[:4] != GIOP_MAGIC:
        raise MarshalError("not a GIOP message")
    version = (data[4], data[5])
    little = data[6] == 1
    try:
        mtype = GIOPMessageType(data[7])
    except ValueError as exc:
        raise MarshalError(f"unknown GIOP message type {data[7]}") from exc
    dec = CDRDecoder(data, little_endian=little, offset=8)
    size = dec.ulong()
    if size != len(data) - _HEADER_LEN:
        raise MarshalError(
            f"GIOP size field {size} != body length {len(data) - _HEADER_LEN}"
        )
    h = GIOPHeader(message_type=mtype, little_endian=little, version=version,
                   message_size=size)

    if mtype == GIOPMessageType.REQUEST:
        ctx = _decode_service_context(dec)
        return RequestMessage(
            header=h,
            service_context=ctx,
            request_id=dec.ulong(),
            response_expected=dec.boolean(),
            object_key=dec.octets(),
            operation=dec.string(),
            requesting_principal=dec.octets(),
            body=dec.remaining(),
        )
    if mtype == GIOPMessageType.REPLY:
        ctx = _decode_service_context(dec)
        return ReplyMessage(
            header=h,
            service_context=ctx,
            request_id=dec.ulong(),
            reply_status=ReplyStatus(dec.enum()),
            body=dec.remaining(),
        )
    if mtype == GIOPMessageType.CANCEL_REQUEST:
        return CancelRequestMessage(header=h, request_id=dec.ulong())
    if mtype == GIOPMessageType.LOCATE_REQUEST:
        return LocateRequestMessage(header=h, request_id=dec.ulong(),
                                    object_key=dec.octets())
    if mtype == GIOPMessageType.LOCATE_REPLY:
        return LocateReplyMessage(header=h, request_id=dec.ulong(),
                                  locate_status=LocateStatus(dec.enum()))
    if mtype == GIOPMessageType.CLOSE_CONNECTION:
        return CloseConnectionMessage(header=h)
    if mtype == GIOPMessageType.MESSAGE_ERROR:
        return MessageErrorMessage(header=h)
    if mtype == GIOPMessageType.FRAGMENT:
        return FragmentMessage(header=h, data=dec.remaining())
    raise MarshalError(f"unhandled GIOP type {mtype}")  # pragma: no cover
