"""The per-datagram fast paths in ROMP: observe once, stability dirty mark."""

import pytest

from repro.analysis import make_cluster
from repro.core import FTMPConfig, FTMPStack, MessageType
from repro.core.datapath import ProcessorGroup
from repro.core.messages import ConnectionId, FTMPHeader, HeartbeatMessage, RegularMessage
from repro.core.wire import encode
from repro.simnet import Network, lan


def _header(mtype, seq, ts, retransmission=False):
    return FTMPHeader(mtype, source=2, group=1, sequence_number=seq,
                      timestamp=ts, ack_timestamp=0, retransmission=retransmission)


def _regular(seq, ts, retransmission=False):
    return RegularMessage(header=_header(MessageType.REGULAR, seq, ts, retransmission),
                          connection_id=ConnectionId.none(), request_num=0,
                          payload=b"m%d" % seq)


def test_late_released_messages_are_observed_at_release():
    """Seq 2 and a heartbeat arrive ahead of a gap; the retransmitted seq
    1 fills it.  The released message and the deferred heartbeat still
    refresh clock/ack/liveness at release time, while seq 1 itself is
    observed exactly once."""
    net = Network(lan(), seed=0)
    stack = FTMPStack(net.endpoint(1), FTMPConfig())
    g = stack.create_group(1, 6001, (1, 2))
    observed = []
    orig = g.romp.observe_header

    def spy(h):
        if h.source == 2:
            observed.append((h.message_type, h.sequence_number, net.scheduler.now))
        orig(h)

    g.romp.observe_header = spy

    def arrive(msg):
        g.on_datagram(msg, encode(msg))

    net.run_for(0.01)
    arrive(_regular(2, ts=20))
    arrive(HeartbeatMessage(header=_header(MessageType.HEARTBEAT, 2, ts=25)))
    t_gap = net.scheduler.now
    net.run_for(0.02)
    t_fill = net.scheduler.now
    assert t_fill > t_gap
    del observed[:]
    arrive(_regular(1, ts=10, retransmission=True))

    assert observed == [
        (MessageType.REGULAR, 1, t_fill),    # the datagram, observed once
        (MessageType.REGULAR, 2, t_fill),    # released from the pending map
        (MessageType.HEARTBEAT, 2, t_fill),  # the deferred heartbeat
    ]
    assert g.fault_detector._last_heard[2] == t_fill
    assert g.romp.order_ts(2) == 25


#: name -> (members, config, seed, member crashed mid-run or None)
SCENARIOS = {
    "safe_fault_view": ((1, 2, 3, 4),
                        dict(delivery_mode="safe", suspect_timeout=0.05), 3, 4),
    "overlay": (tuple(range(1, 8)), dict(overlay_mode=True, overlay_fanout=2), 4, None),
    "fault_view": ((1, 2, 3, 4), dict(suspect_timeout=0.05), 5, 4),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_stability_advance_left_unreported(name, monkeypatch):
    """After every datagram, the stability value a group would compute is
    no higher than the value it last reported upward."""
    pids, cfg, seed, victim = SCENARIOS[name]
    cluster = make_cluster(pids, config=FTMPConfig(**cfg), seed=seed)
    checked = []
    orig = ProcessorGroup.on_datagram

    def on_datagram(group, msg, raw):
        orig(group, msg, raw)
        if group.stopped:
            return
        romp = group.romp
        stable = romp.stability_timestamp()
        assert romp._stable_notified >= stable, (group.pid, msg.header)
        checked.append(stable)

    monkeypatch.setattr(ProcessorGroup, "on_datagram", on_datagram)
    for step in range(60):
        for pid in pids:
            if pid != victim or step < 20:
                cluster.stacks[pid].multicast(1, b"%d:%d" % (pid, step))
        if victim is not None and step == 20:
            cluster.net.crash(victim)
        cluster.run_for(0.004)
    cluster.run_for(0.5)
    assert checked and max(checked) > 0
    if victim is not None:
        assert victim not in cluster.stacks[1].group(1).membership
