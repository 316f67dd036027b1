"""FTMP adapter edge cases: passthrough, downstream chaining, cache bound."""

from repro.core import (
    FTMPConfig,
    FTMPStack,
    RecordingListener,
)
from repro.giop import GroupRef
from repro.orb import ORB, ClientIdentity, FTMPAdapter
from repro.simnet import Network, lan

REF = GroupRef("T", domain=7, object_group=100, object_key=b"svc")


class Servant:
    def ping(self, i=0):
        return i


def build(downstream=None, mtu=None, seed=0):
    net = Network(lan(), seed=seed)
    hosts = {}
    for pid in (1, 2):
        orb = ORB(pid, net.scheduler)
        stack = FTMPStack(net.endpoint(pid), FTMPConfig())
        adapter = FTMPAdapter(orb, stack, giop_mtu=mtu)
        orb.poa.activate(b"svc", Servant())
        adapter.export(7, 100, (1, 2))
        hosts[pid] = (orb, stack, adapter)
    corb = ORB(8, net.scheduler)
    cstack = FTMPStack(net.endpoint(8), FTMPConfig())
    cadapter = FTMPAdapter(corb, cstack, downstream=downstream, giop_mtu=mtu)
    cadapter.set_client(ClientIdentity(3, 200, (8,)))
    return net, corb, cstack, cadapter, hosts


def test_non_giop_group_traffic_passes_to_downstream():
    downstream = RecordingListener()
    net, corb, cstack, cadapter, hosts = build(downstream=downstream)
    # a raw (non-connection) group: plain multicast below the ORB
    cstack.create_group(55, 6055, (8,))
    cstack.multicast(55, b"raw application bytes")
    net.run_for(0.2)
    assert downstream.payloads(55) == [b"raw application bytes"]


def test_non_giop_payload_on_connection_passes_to_downstream():
    downstream = RecordingListener()
    net, corb, cstack, cadapter, hosts = build(downstream=downstream)
    proxy = corb.proxy(REF)
    assert corb.call(proxy, "ping", 1) == 1
    cid = cadapter.connection_id_for(REF)
    cstack.send_on_connection(cid, b"not-giop-at-all", 999)
    net.run_for(0.2)
    assert b"not-giop-at-all" in [d.payload for d in downstream.deliveries]


def test_view_and_fault_events_forwarded_downstream():
    downstream = RecordingListener()
    net, corb, cstack, cadapter, hosts = build(downstream=downstream)
    proxy = corb.proxy(REF)
    corb.call(proxy, "ping", 1)
    net.crash(2)
    net.run_for(1.5)
    assert downstream.views  # connection bootstrap + fault views
    assert downstream.faults
    assert downstream.connections


def test_reply_cache_is_bounded():
    net, corb, cstack, cadapter, hosts = build()
    server_adapter = hosts[1][2]
    server_adapter.reply_cache_size = 5
    proxy = corb.proxy(REF)
    for i in range(12):
        corb.call(proxy, "ping", i)
    net.run_for(0.3)
    assert len(server_adapter._reply_cache) <= 5


def test_fragmented_reply_round_trip():
    net, corb, cstack, cadapter, hosts = build(mtu=256)

    class Bulk:
        def fetch(self, n):
            return b"z" * n

    for pid in (1, 2):
        hosts[pid][0].poa.deactivate(b"svc")
        hosts[pid][0].poa.activate(b"svc", Bulk())
    proxy = corb.proxy(REF)
    out = corb.call(proxy, "fetch", 5000, timeout=10.0)
    assert out == b"z" * 5000


def test_adapter_stats_accumulate():
    net, corb, cstack, cadapter, hosts = build()
    proxy = corb.proxy(REF)
    for i in range(3):
        corb.call(proxy, "ping", i)
    net.run_for(0.3)
    assert hosts[1][2].stats_requests_executed == 3
    assert cadapter.stats_replies_matched == 3
    assert cadapter.stats_duplicates_suppressed >= 3  # second replica's replies


# -- the reply fast path: a Reply nobody awaits is never decoded ----------
def _reply_delivery(cadapter, payload, request_num=41):
    from repro.core import ConnectionId, Delivery

    cid = ConnectionId(client_domain=3, client_group=200,
                       server_domain=7, server_group=100)
    return cid, Delivery(group=9, source=1, sequence_number=request_num,
                         timestamp=request_num, connection_id=cid,
                         request_num=request_num, payload=payload,
                         delivered_at=0.0)


def _reply_bytes(value, request_num=41):
    from repro.giop import GIOPHeader, GIOPMessageType, ReplyMessage, encode_giop, encode_values

    return encode_giop(ReplyMessage(header=GIOPHeader(GIOPMessageType.REPLY),
                                    request_id=request_num,
                                    body=encode_values([value], True)))


def test_malformed_reply_still_reaches_downstream():
    downstream = RecordingListener()
    net, corb, cstack, cadapter, hosts = build(downstream=downstream)
    good = _reply_bytes(7)
    for bad in (good + b"\0",                       # size field short of the body
                good[:8] + b"\xff\0\0\0" + good[12:],   # size field past it
                good[:10]):                          # not even a header
        _cid, d = _reply_delivery(cadapter, bad)
        cadapter.on_deliver(d)
    assert [d.payload for d in downstream.deliveries] == [
        good + b"\0", good[:8] + b"\xff\0\0\0" + good[12:], good[:10]]
    assert cadapter.stats_duplicates_suppressed == 0


def test_unawaited_reply_is_recorded_without_decoding(monkeypatch):
    from repro.orb import ftiop

    downstream = RecordingListener()
    net, corb, cstack, cadapter, hosts = build(downstream=downstream)

    def no_decode(data):
        raise AssertionError("an unawaited Reply was decoded")

    monkeypatch.setattr(ftiop, "decode_giop", no_decode)
    cid, d = _reply_delivery(cadapter, _reply_bytes(7))
    cadapter.on_deliver(d)  # a sibling's reply: first copy, nothing awaits it
    assert cadapter.stats_duplicates_suppressed == 0
    cadapter.on_deliver(d)  # the next copy is a duplicate
    assert cadapter.stats_duplicates_suppressed == 1
    assert cstack.duplicates.seen_count(cid, "reply") == 1
    assert downstream.deliveries == []


def test_awaited_reply_completes_its_future():
    from repro.orb.futures import InvocationFuture

    net, corb, cstack, cadapter, hosts = build()
    cid, d = _reply_delivery(cadapter, _reply_bytes(7))
    fut = InvocationFuture()
    cadapter._pending[(cid, d.request_num)] = fut
    cadapter.on_deliver(d)
    assert fut.done and fut.result() == 7
    assert cadapter.stats_replies_matched == 1
    cadapter.on_deliver(d)  # a sibling replica's copy of the same reply
    assert cadapter.stats_duplicates_suppressed == 1
