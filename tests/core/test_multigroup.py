"""Multi-group atomic multicast: engine unit tests + stack API guards.

The :class:`MultiGroupOrdering` stage is a deterministic state machine fed one
group's totally-ordered release sequence, so the unit tests here drive
it directly with hand-built messages through a stub ``GroupContext`` —
the only two methods the engine calls back into are ``deliver_regular``
and ``pgmp_receive_ordered``.  The stack-level tests at the bottom cover
the ``multicast_groups`` entry points on a small simulated cluster.
"""

import pytest

from repro.analysis import make_cluster, make_multigroup_cluster
from repro.core import ConnectionId, FTMPConfig, MessageType
from repro.core.messages import (
    FTMPHeader,
    MultiGroupCommitMessage,
    MultiGroupProposeMessage,
    RegularMessage,
    RemoveProcessorMessage,
)
from repro.core.multigroup import (
    MULTI_GROUP_CID,
    MULTI_GROUP_COMMUTATIVE_CID,
    MultiGroupOrdering,
    is_multigroup_delivery,
    is_total_multigroup_delivery,
    mg_request_num,
)


class _StubGroup:
    """Records the engine's two upcalls into the surrounding datapath."""

    def __init__(self):
        self.delivered = []
        self.pgmp = []

    def deliver_regular(self, msg):
        self.delivered.append(msg)

    def pgmp_receive_ordered(self, msg):
        self.pgmp.append(msg)


def _engine():
    g = _StubGroup()
    return MultiGroupOrdering(g, None), g


def _hdr(mtype, source, ts):
    return FTMPHeader(message_type=mtype, source=source, group=1,
                      sequence_number=0, timestamp=ts, ack_timestamp=0)


def _propose(source, ts, mg_seq=1, conflict_class=0, groups=(1, 2),
             payload=b"mg"):
    return MultiGroupProposeMessage(
        _hdr(MessageType.MULTI_GROUP_PROPOSE, source, ts),
        mg_seq, conflict_class, tuple(groups), payload)


def _commit(source, ts, origin, mg_seq=1, commit_ts=0):
    return MultiGroupCommitMessage(
        _hdr(MessageType.MULTI_GROUP_COMMIT, source, ts),
        origin, mg_seq, commit_ts)


def _regular(source, ts, payload=b"app"):
    return RegularMessage(_hdr(MessageType.REGULAR, source, ts),
                          ConnectionId(0, 0, 0, 0), 1, payload)


# ---------------------------------------------------------------------------
# config + sentinel surface
# ---------------------------------------------------------------------------

def test_multigroup_mode_is_mutually_exclusive():
    # multigroup + llft is unrepresentable: both are values of `ordering`
    with pytest.raises(ValueError):
        FTMPConfig(ordering="multigroup", overlay_mode=True)
    with pytest.raises(ValueError):
        FTMPConfig(ordering="multigroup", delivery_mode="safe")
    FTMPConfig(ordering="multigroup")  # alone: fine


def test_sentinel_predicates_and_request_num():
    assert is_multigroup_delivery(MULTI_GROUP_CID)
    assert is_multigroup_delivery(MULTI_GROUP_COMMUTATIVE_CID)
    assert is_total_multigroup_delivery(MULTI_GROUP_CID)
    assert not is_total_multigroup_delivery(MULTI_GROUP_COMMUTATIVE_CID)
    assert not is_multigroup_delivery(ConnectionId(1, 2, 3, 4))
    # (origin, mg_seq) pack into one request number, injectively enough
    # for real pids/seqs, and distinct multicasts never collide
    assert mg_request_num(3, 7) != mg_request_num(7, 3)
    assert mg_request_num(3, 7) == (3 << 32) | 7


# ---------------------------------------------------------------------------
# engine: commit/deliver datapath
# ---------------------------------------------------------------------------

def test_commit_delivers_at_committed_key():
    eng, g = _engine()
    eng.on_ordered(_propose(source=1, ts=5, mg_seq=1))
    eng.on_ordered(_regular(source=2, ts=7))
    # uncommitted proposal holds back everything behind its lower bound
    assert g.delivered == []
    assert eng.backlog() == 2
    eng.on_ordered(_commit(source=1, ts=9, origin=1, commit_ts=6))
    # the multi-group message delivers at commit_ts, then the regular
    assert [m.header.timestamp for m in g.delivered] == [6, 7]
    synth = g.delivered[0]
    assert synth.connection_id == MULTI_GROUP_CID
    assert synth.request_num == mg_request_num(1, 1)
    assert synth.payload == b"mg"
    assert eng.backlog() == 0
    assert eng.stats.commits_applied == 1
    assert eng.stats.delivered_total == 1


def test_ordinary_traffic_below_the_bound_flows_through():
    eng, g = _engine()
    eng.on_ordered(_regular(source=2, ts=3, payload=b"early"))
    assert [m.payload for m in g.delivered] == [b"early"]
    eng.on_ordered(_propose(source=1, ts=5))
    eng.on_ordered(_regular(source=2, ts=7, payload=b"late"))
    # nothing past the uncommitted bound moves
    assert [m.payload for m in g.delivered] == [b"early"]
    assert eng.backlog() == 2


def test_commutative_class_skips_commit_entirely():
    eng, g = _engine()
    eng.on_ordered(_propose(source=1, ts=5, conflict_class=2))
    # delivered at the propose position itself, no pending entry
    assert len(g.delivered) == 1
    synth = g.delivered[0]
    assert synth.header.timestamp == 5
    assert synth.connection_id == MULTI_GROUP_COMMUTATIVE_CID
    assert eng.backlog() == 0
    assert eng.stats.delivered_commutative == 1
    assert eng.stats.delivered_total == 0


def test_orphan_commit_is_counted_and_ignored():
    eng, g = _engine()
    eng.on_ordered(_commit(source=1, ts=9, origin=1, commit_ts=6))
    assert g.delivered == []
    assert eng.stats.orphan_commits == 1
    assert eng.backlog() == 0


def test_equal_commit_ts_tie_breaks_by_origin():
    eng, g = _engine()
    eng.on_ordered(_propose(source=1, ts=3, mg_seq=1))
    eng.on_ordered(_propose(source=2, ts=4, mg_seq=1))
    # committing the later origin first releases nothing: the earlier
    # origin's uncommitted bound (3, 1, 1) still fences the stage
    eng.on_ordered(_commit(source=2, ts=7, origin=2, commit_ts=6))
    assert g.delivered == []
    eng.on_ordered(_commit(source=1, ts=8, origin=1, commit_ts=6))
    # both committed at ts 6: the (commit_ts, origin, mg_seq) key breaks
    # the tie by origin, identically at every member
    assert [(m.header.timestamp, m.header.source) for m in g.delivered] == \
        [(6, 1), (6, 2)]


def test_abort_origin_drops_uncommitted_and_unblocks():
    eng, g = _engine()
    eng.on_ordered(_propose(source=3, ts=5, mg_seq=1))
    eng.on_ordered(_regular(source=2, ts=6))
    rm = RemoveProcessorMessage(
        _hdr(MessageType.REMOVE_PROCESSOR, 2, 8), member_to_remove=3)
    eng.on_ordered(rm)
    assert g.delivered == [] and g.pgmp == []
    # fault-view install path: the §7.2 sync made "still uncommitted"
    # the same fact at every survivor, so the abort is deterministic
    eng.abort_origin(3)
    assert eng.stats.aborted == 1
    assert [m.header.timestamp for m in g.delivered] == [6]
    assert g.pgmp == [rm]  # membership message forwarded after the abort
    assert eng.backlog() == 0
    # the origin's commit trickling in afterwards is just an orphan
    eng.on_ordered(_commit(source=3, ts=9, origin=3, commit_ts=5))
    assert eng.stats.orphan_commits == 1


def test_ordered_remove_processor_aborts_later_origin_entries():
    # graceful path: the RemoveProcessor dispatches (nothing fences it)
    # and its _dispatch hook aborts the evicted origin's entries
    eng, g = _engine()
    rm = RemoveProcessorMessage(
        _hdr(MessageType.REMOVE_PROCESSOR, 2, 4), member_to_remove=3)
    eng.on_ordered(rm)
    assert g.pgmp == [rm]
    assert eng.stats.aborted == 0  # nothing pending from 3 yet


def test_identical_release_sequence_yields_identical_deliveries():
    # the determinism argument in one assertion: two engines fed the
    # same release sequence produce byte-identical delivery streams
    seq = [
        _regular(source=4, ts=2, payload=b"a"),
        _propose(source=1, ts=3, mg_seq=1, payload=b"x"),
        _propose(source=2, ts=4, mg_seq=1, conflict_class=1, payload=b"y"),
        _commit(source=1, ts=6, origin=1, commit_ts=5),
        _regular(source=4, ts=7, payload=b"b"),
    ]
    streams = []
    for _ in range(2):
        eng, g = _engine()
        for m in seq:
            eng.on_ordered(m)
        streams.append([(m.header.timestamp, m.header.source,
                         m.connection_id, m.request_num, m.payload)
                        for m in g.delivered])
    assert streams[0] == streams[1]
    assert len(streams[0]) == 4  # a, commutative y, committed x, b


# ---------------------------------------------------------------------------
# stack API guards + end-to-end agreement on a small cluster
# ---------------------------------------------------------------------------

def test_multicast_groups_requires_multigroup_mode():
    c = make_cluster((1, 2))
    with pytest.raises(RuntimeError):
        c.stacks[1].multicast_groups((1,), b"x")


def test_multicast_groups_requires_membership_of_every_group():
    c = make_multigroup_cluster((1, 2, 3), {1: (1, 2), 2: (2, 3)})
    c.run_for(0.5)
    with pytest.raises(KeyError):
        c.stacks[1].multicast_groups((1, 2), b"x")  # 1 is not in group 2
    with pytest.raises(ValueError):
        c.stacks[2].multicast_groups((), b"x")


def test_cross_group_agreement_and_genuineness():
    # groups 1 and 2 overlap on {2, 3}; group 9 is never addressed
    c = make_multigroup_cluster(
        (1, 2, 3, 4),
        {1: (1, 2, 3), 2: (2, 3, 4), 9: (1, 2, 3, 4)})
    c.run_for(0.5)
    for i in range(6):
        origin = 2 if i % 2 == 0 else 3
        c.stacks[origin].multicast_groups((1, 2), b"mg%d" % i)
    c.run_for(1.0)

    def order(pid, gid):
        return [d.request_num for d in c.listeners[pid].deliveries
                if d.group == gid and is_multigroup_delivery(d.connection_id)]

    # every member of each addressed group delivered all 6, same order
    for gid, members in ((1, (1, 2, 3)), (2, (2, 3, 4))):
        orders = [order(pid, gid) for pid in members]
        assert all(len(o) == 6 for o in orders)
        assert all(o == orders[0] for o in orders)
    # the overlap members see the same relative order in both groups
    assert order(2, 1) == order(2, 2) == order(3, 1) == order(3, 2)
    # genuineness: the uninvolved group moved no ordering machinery
    for pid in (1, 2, 3, 4):
        assert order(pid, 9) == []
        mg = c.stacks[pid].group(9).romp.ordering
        assert mg.stats.proposes_ordered == 0
        assert mg.stats.delivered_total == 0


def test_commutative_stack_level_no_commit_traffic():
    c = make_multigroup_cluster((1, 2, 3), {1: (1, 2), 2: (1, 3)})
    c.run_for(0.5)
    c.stacks[1].multicast_groups((1, 2), b"commute", conflict_class=7)
    c.run_for(0.5)
    for pid, gid in ((2, 1), (3, 2)):
        cids = [d.connection_id for d in c.listeners[pid].deliveries
                if d.group == gid and is_multigroup_delivery(d.connection_id)]
        assert cids == [MULTI_GROUP_COMMUTATIVE_CID]
    for gid in (1, 2):
        assert c.stacks[1].group(gid).romp.ordering.stats.commits_sent == 0
