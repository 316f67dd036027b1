"""FTMPConfig and listener-utility tests."""

import dataclasses

import pytest

from repro.core import (
    ConnectionId,
    Delivery,
    FTMPConfig,
    Listener,
    RecordingListener,
    ViewChange,
)


def test_config_is_frozen():
    cfg = FTMPConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.heartbeat_interval = 1.0


def test_with_creates_modified_copy():
    cfg = FTMPConfig()
    cfg2 = cfg.with_(heartbeat_interval=0.5, suspect_timeout=2.0)
    assert cfg2.heartbeat_interval == 0.5
    assert cfg2.suspect_timeout == 2.0
    assert cfg.heartbeat_interval == 0.010  # original untouched
    assert cfg2.nack_delay == cfg.nack_delay


@pytest.mark.parametrize("kwargs", [
    {"ordering": "paxos"},
    {"ordering": "LLFT"},
    {"delivery_mode": "Safe"},
    {"delivery_mode": "uniform"},
    {"ordering": "llft", "delivery_mode": "safe"},
    {"ordering": "llft", "overlay_mode": True},
    {"ordering": "multigroup", "delivery_mode": "safe"},
    {"ordering": "multigroup", "overlay_mode": True},
])
def test_config_rejects_unknown_or_conflicting_values(kwargs):
    with pytest.raises(ValueError):
        FTMPConfig(**kwargs)
    with pytest.raises(ValueError):
        FTMPConfig().with_(**kwargs)  # copies are validated too


@pytest.mark.parametrize("kwargs", [
    {},
    {"delivery_mode": "safe"},
    {"delivery_mode": "safe", "overlay_mode": True},
    {"ordering": "llft"},
    {"ordering": "multigroup"},
])
def test_config_accepts_supported_combinations(kwargs):
    FTMPConfig(**kwargs)


def test_ordering_replaces_the_mode_flags():
    fields = {f.name for f in dataclasses.fields(FTMPConfig)}
    assert "ordering" in fields and "overlay_mode" in fields
    assert not {"llft_mode", "multigroup_mode"} & fields
    assert FTMPConfig().ordering == "lamport"


def test_every_ordering_value_builds_a_discipline():
    from repro.core.config import ORDERINGS
    from repro.core.datapath import _ORDERINGS

    assert set(ORDERINGS) == set(_ORDERINGS)


def test_default_listener_is_noop():
    listener = Listener()
    d = Delivery(group=1, source=1, sequence_number=1, timestamp=1,
                 connection_id=ConnectionId.none(), request_num=0,
                 payload=b"", delivered_at=0.0)
    listener.on_deliver(d)  # must not raise
    listener.on_view_change(None)
    listener.on_fault_report(None)
    listener.on_connection(None)


def make_delivery(group, payload, ts=1, src=1):
    return Delivery(group=group, source=src, sequence_number=1, timestamp=ts,
                    connection_id=ConnectionId.none(), request_num=0,
                    payload=payload, delivered_at=0.0)


def test_recording_listener_filters_by_group():
    lst = RecordingListener()
    lst.on_deliver(make_delivery(1, b"a"))
    lst.on_deliver(make_delivery(2, b"b"))
    assert lst.payloads(1) == [b"a"]
    assert lst.payloads(2) == [b"b"]
    assert lst.payloads() == [b"a", b"b"]
    assert lst.delivery_order(1) == [(1, 1)]


def test_recording_listener_current_membership():
    lst = RecordingListener()
    assert lst.current_membership(1) is None
    lst.on_view_change(ViewChange(group=1, membership=(1, 2),
                                  view_timestamp=5, added=(), removed=(),
                                  reason="bootstrap", installed_at=0.0))
    lst.on_view_change(ViewChange(group=2, membership=(9,),
                                  view_timestamp=6, added=(), removed=(),
                                  reason="bootstrap", installed_at=0.0))
    assert lst.current_membership(1) == (1, 2)
    assert lst.current_membership(2) == (9,)
    assert lst.current_membership(3) is None
