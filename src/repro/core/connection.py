"""Logical connections between object groups (paper §4 and §7).

Just as IIOP maintains a TCP connection between a client object and a
server object, FTMP maintains a *logical connection* between a client
object group and a server object group.  The connection is served by one
processor group — the processors supporting the client replicas together
with those supporting the server replicas — sharing one multicast address
("these mechanisms allow several logical connections to share the same
physical connection, the same processor group and the same IP Multicast
address", §7).

Establishment (§7):

* every server processor listens on the multicast address of its
  fault-tolerance *domain*;
* a client processor multicasts ``ConnectRequest`` (unreliable) to the
  server domain's address, and retries periodically;
* the *responder* — the lowest-numbered processor supporting the server
  object group — allocates a processor group id + multicast address,
  bootstraps the group, and multicasts ``Connect`` on the domain address,
  retransmitting it until it sees traffic over the new connection;
* every processor listed in the Connect's membership joins the group and
  observes the §7 quiescence rule (no ordered transmissions until every
  member has been heard past the Connect's timestamp).
* a server that receives a ``ConnectRequest`` for a connection it has
  already established ignores it (crossed retransmissions, §7).

This module also provides the `(connection id, request number)` duplicate
detection of §4 and the request-number source shared by object replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from .messages import ConnectionId, ConnectMessage, ConnectRequestMessage

if TYPE_CHECKING:  # pragma: no cover
    from .stack import FTMPStack

__all__ = [
    "domain_multicast_address",
    "ConnectionManager",
    "ConnectionBinding",
    "RequestNumbering",
    "DuplicateDetector",
    "default_allocator",
]

#: Multicast addresses are plain integers in this reproduction; fault
#: tolerance domain ``d`` listens on ``DOMAIN_ADDRESS_BASE + d``.
DOMAIN_ADDRESS_BASE = 0xE000_0000


def domain_multicast_address(domain: int) -> int:
    """The IP-multicast address of a fault tolerance domain."""
    return DOMAIN_ADDRESS_BASE + domain


def default_allocator(membership: Tuple[int, ...]) -> Tuple[int, int]:
    """Allocate a (processor group id, multicast address) for a connection.

    Deterministic in the *membership*, so any responder — the primary or a
    ranked standby stepping in for a dead one — computes the identical
    group id and address; concurrent Connect announcements for the same
    connection are then byte-equal and the race is benign.
    """
    import hashlib
    import struct

    digest = hashlib.blake2s(
        b"".join(struct.pack("<I", p) for p in sorted(membership)),
        digest_size=4,
    ).digest()
    slot = int.from_bytes(digest, "little") & 0x00FF_FFFF
    return 0x4000_0000 + slot, 0xE800_0000 + slot


@dataclass
class ConnectionBinding:
    """A locally known logical connection and its serving processor group."""

    connection_id: ConnectionId
    group_id: int
    address: int
    membership: Tuple[int, ...]
    established: bool = False
    #: True on the processor that allocated the group and answers requests
    responder: bool = False
    #: client processors named in the ConnectRequest (responder side);
    #: the Connect is retransmitted until every one of them is heard from
    client_pids: Tuple[int, ...] = ()
    #: wire bytes of the original Connect (responder side, for resends)
    connect_raw: Optional[bytes] = None


@dataclass
class _ServerRegistration:
    """A server object group this processor supports."""

    domain: int
    object_group: int
    server_pids: Tuple[int, ...]


@dataclass
class _PendingRequest:
    """Client-side state while the ConnectRequest/Connect handshake runs."""

    connection_id: ConnectionId
    client_pids: Tuple[int, ...]
    timer: Optional[object] = None


class ConnectionManager:
    """Stack-level handler for ConnectRequest / Connect traffic."""

    def __init__(self, stack: "FTMPStack"):
        self._stack = stack
        self._servers: Dict[Tuple[int, int], _ServerRegistration] = {}
        self._pending: Dict[ConnectionId, _PendingRequest] = {}
        self._bindings: Dict[ConnectionId, ConnectionBinding] = {}
        self._resend_timers: Dict[ConnectionId, object] = {}
        self._alloc_counter = 0
        #: processor groups created for connections, keyed by membership so
        #: connections between the same processor sets share a group (§7)
        self._groups_by_membership: Dict[Tuple[int, ...], Tuple[int, int]] = {}

    # ==================================================================
    # server side
    # ==================================================================
    def register_server(self, domain: int, object_group: int, server_pids: Tuple[int, ...]) -> None:
        """Declare that this processor supports a server object group."""
        self._servers[(domain, object_group)] = _ServerRegistration(
            domain, object_group, tuple(sorted(server_pids))
        )
        self._stack.join_address(domain_multicast_address(domain))

    def on_connect_request(self, msg: ConnectRequestMessage) -> None:
        cid = msg.connection_id
        reg = self._servers.get((cid.server_domain, cid.server_group))
        if reg is None:
            return  # not our server group
        if self._stack.pid != reg.server_pids[0]:
            # Ranked responder failover: normally only the lowest server
            # pid answers, but if it is dead the client would starve.  The
            # k-th ranked server defers k retry rounds before stepping in;
            # a completed handshake (binding present, via the primary's
            # Connect) cancels the standby.
            rank = reg.server_pids.index(self._stack.pid)
            key = (cid, "standby")
            if key in self._resend_timers or cid in self._bindings:
                return
            self._resend_timers[key] = self._stack.schedule(
                rank * 3 * self._stack.config.connect_retry_interval,
                self._standby_respond, cid, msg,
            )
            return
        binding = self._bindings.get(cid)
        if binding is not None:
            # Crossed retransmissions (§7): the client is still asking, so
            # it has not seen our Connect yet — answer again unless every
            # requested client processor has already been heard from.
            if not self._clients_heard(binding) and cid not in self._resend_timers:
                self._send_connect(binding)
            return
        self._answer_request(cid, reg, msg)

    def _answer_request(self, cid: ConnectionId, reg: _ServerRegistration,
                        msg: ConnectRequestMessage) -> None:
        membership = tuple(sorted(set(reg.server_pids) | set(msg.processor_ids)))
        shared = self._groups_by_membership.get(membership)
        if shared is not None:
            group_id, address = shared
        else:
            group_id, address = self._stack.allocate_connection_group(membership)
            self._groups_by_membership[membership] = (group_id, address)
        binding = ConnectionBinding(
            connection_id=cid,
            group_id=group_id,
            address=address,
            membership=membership,
            established=True,
            responder=True,
            client_pids=tuple(msg.processor_ids),
        )
        self._bindings[cid] = binding
        # Bootstrap the group locally (idempotent if shared), then announce.
        self._stack.bootstrap_connection_group(group_id, address, membership)
        self._send_connect(binding)
        self._stack.notify_connection(binding, migrated=False)

    def _cancel_standby(self, cid: ConnectionId) -> None:
        timer = self._resend_timers.pop((cid, "standby"), None)
        if timer is not None:
            timer.cancel()

    def _standby_respond(self, cid: ConnectionId, msg: ConnectRequestMessage) -> None:
        """A backup responder steps in if the handshake is still open."""
        self._resend_timers.pop((cid, "standby"), None)
        if cid in self._bindings:
            return  # the primary responder (or a lower standby) answered
        reg = self._servers.get((cid.server_domain, cid.server_group))
        if reg is None:
            return
        self._answer_request(cid, reg, msg)

    def _send_connect(self, binding: ConnectionBinding) -> None:
        cid = binding.connection_id
        domain_addr = domain_multicast_address(cid.server_domain)
        if binding.connect_raw is None:
            binding.connect_raw = self._stack.send_connect_announcement(
                domain_address=domain_addr,
                connection_id=cid,
                group_id=binding.group_id,
                address=binding.address,
                membership=binding.membership,
            )
        else:
            # §3.2: a retransmission is the identical message with the
            # retransmission flag set — not a new ordered Connect
            group = self._stack.group(binding.group_id)
            if group is not None:
                group.retransmit_raw(binding.connect_raw, address=domain_addr)
        self._resend_timers[cid] = self._stack.schedule(
            self._stack.config.connect_resend_interval, self._resend_connect, cid
        )

    def _resend_connect(self, cid: ConnectionId) -> None:
        self._resend_timers.pop(cid, None)
        binding = self._bindings.get(cid)
        if binding is None:
            return
        # §7: retransmit "until it receives messages over the new
        # connection" — i.e. until the client processors are heard from.
        if self._clients_heard(binding):
            return
        self._send_connect(binding)

    def _clients_heard(self, binding: ConnectionBinding) -> bool:
        """True once every group member is heard over the new connection.

        §7: the Connect is retransmitted "until it receives messages over
        the new connection" — every listed processor (client replicas and
        fellow server replicas alike) only starts transmitting on the new
        group after it has seen the Connect.
        """
        group = self._stack.group(binding.group_id)
        if group is None:
            return False
        return all(
            group.has_heard_from(p)
            for p in binding.membership
            if p != self._stack.pid
        )

    # ==================================================================
    # client side
    # ==================================================================
    def request(self, cid: ConnectionId, client_pids: Tuple[int, ...]) -> None:
        """Start the ConnectRequest retry loop for a new connection."""
        if cid in self._bindings or cid in self._pending:
            return
        self._stack.join_address(domain_multicast_address(cid.server_domain))
        pending = _PendingRequest(cid, tuple(sorted(client_pids)))
        self._pending[cid] = pending
        self._send_request(pending)

    def _send_request(self, pending: _PendingRequest) -> None:
        if pending.connection_id in self._bindings:
            return
        self._stack.send_connect_request(
            domain_address=domain_multicast_address(pending.connection_id.server_domain),
            connection_id=pending.connection_id,
            processor_ids=pending.client_pids,
        )
        pending.timer = self._stack.schedule(
            self._stack.config.connect_retry_interval, self._send_request, pending
        )

    # ==================================================================
    # Connect arrival (both sides, via the domain address)
    # ==================================================================
    def on_connect(self, msg: ConnectMessage) -> None:
        cid = msg.connection_id
        if self._stack.pid not in msg.membership:
            return
        pending = self._pending.pop(cid, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()
        self._cancel_standby(cid)
        if cid in self._bindings:
            return  # duplicate Connect
        binding = ConnectionBinding(
            connection_id=cid,
            group_id=msg.processor_group_id,
            address=msg.ip_multicast_address,
            membership=tuple(msg.membership),
            established=True,
        )
        self._bindings[cid] = binding
        self._stack.bootstrap_connection_group(
            msg.processor_group_id,
            msg.ip_multicast_address,
            tuple(msg.membership),
            barrier_timestamp=msg.header.timestamp,
        )
        self._stack.notify_connection(binding, migrated=False)

    def on_ordered_connect(self, msg: ConnectMessage) -> bool:
        """A Connect delivered through an existing group's total order.

        Covers two §7 cases: a *new* logical connection reusing an already
        established processor group, and the address migration of an
        existing connection.  Returns True if a new binding was created.
        """
        cid = msg.connection_id
        pending = self._pending.pop(cid, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()
        self._cancel_standby(cid)
        if cid in self._bindings:
            return False
        if self._stack.pid not in msg.membership:
            return False
        self._bindings[cid] = ConnectionBinding(
            connection_id=cid,
            group_id=msg.processor_group_id,
            address=msg.ip_multicast_address,
            membership=tuple(msg.membership),
            established=True,
        )
        self._stack.notify_connection(self._bindings[cid], migrated=False)
        return True

    def drop(self, cid: ConnectionId) -> Optional[int]:
        """Forget a released connection (§7 "releasing").

        Returns the connection's group id if no other logical connection
        still shares that processor group (so the caller may retire it),
        else None.
        """
        binding = self._bindings.pop(cid, None)
        if binding is None:
            return None
        timer = self._resend_timers.pop(cid, None)
        if timer is not None:
            timer.cancel()
        self._cancel_standby(cid)
        still_used = any(
            b.group_id == binding.group_id for b in self._bindings.values()
        )
        if not still_used:
            self._groups_by_membership.pop(binding.membership, None)
        return None if still_used else binding.group_id

    # ==================================================================
    def binding(self, cid: ConnectionId) -> Optional[ConnectionBinding]:
        return self._bindings.get(cid)

    def apply_migration(self, cid: ConnectionId, new_address: int) -> None:
        """Record a migrated address after an ordered Connect (§7)."""
        binding = self._bindings.get(cid)
        if binding is not None:
            binding.address = new_address

    def stop(self) -> None:
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        for timer in self._resend_timers.values():
            timer.cancel()
        self._pending.clear()
        self._resend_timers.clear()


class RequestNumbering:
    """Monotonic request numbers for one client↔server group pair (§4).

    "All of the client replicas use the same request number for a given
    request" — replicas achieve that by drawing from this counter in the
    same deterministic order (they process invocations in total order).
    """

    def __init__(self, start: int = 1):
        self._next = start

    def next(self) -> int:
        n = self._next
        self._next += 1
        return n

    def observe(self, request_num: int) -> None:
        """Fast-forward past a number seen from a peer replica."""
        if request_num >= self._next:
            self._next = request_num + 1


class DuplicateDetector:
    """Duplicate detection on (connection id, request number, kind) (§4).

    ``kind`` distinguishes requests from replies (both directions of a
    connection use the same numbers).  Uses a contiguous watermark plus a
    sparse overflow set, so memory stays bounded for in-order traffic.
    """

    def __init__(self) -> None:
        self._watermark: Dict[Tuple[ConnectionId, str], int] = {}
        self._sparse: Dict[Tuple[ConnectionId, str], Set[int]] = {}
        self.duplicates_suppressed = 0

    def is_duplicate(self, cid: ConnectionId, request_num: int, kind: str) -> bool:
        """Record (cid, num, kind); True if it was already seen."""
        key = (cid, kind)
        mark = self._watermark.get(key, 0)
        if request_num <= mark:
            self.duplicates_suppressed += 1
            return True
        sparse = self._sparse.get(key)
        if sparse is None:
            if request_num == mark + 1:
                self._watermark[key] = request_num  # in order: no set at all
            else:
                self._sparse[key] = {request_num}
            return False
        if request_num in sparse:
            self.duplicates_suppressed += 1
            return True
        sparse.add(request_num)
        # advance the contiguous watermark
        while mark + 1 in sparse:
            mark += 1
            sparse.discard(mark)
        self._watermark[key] = mark
        if not sparse:
            del self._sparse[key]
        return False

    def seen_count(self, cid: ConnectionId, kind: str) -> int:
        key = (cid, kind)
        return self._watermark.get(key, 0) + len(self._sparse.get(key, ()))
