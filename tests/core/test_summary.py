"""stack.summary() diagnostics tests."""

from repro.analysis import make_cluster


def test_summary_reflects_protocol_state():
    c = make_cluster((1, 2, 3))
    for i in range(5):
        c.stacks[1].multicast(1, b"x")
    c.run_for(0.3)
    s = c.stacks[1].summary()
    assert s["processor"] == 1
    assert s["clock"] > 0
    g = s["groups"][1]
    assert g["membership"] == (1, 2, 3)
    assert g["regulars_sent"] == 5
    assert g["ordered_deliveries"] == 5
    assert g["queue_depth"] == 0
    assert g["buffer_messages"] == 0  # stable and reclaimed
    assert g["suspected"] == []
    assert not g["in_fault_round"]
    assert s["datagrams_sent"] > 0


def test_summary_shows_fault_state():
    from repro.core import FTMPConfig

    c = make_cluster((1, 2, 3), config=FTMPConfig(suspect_timeout=0.050))
    c.run_for(0.05)
    c.net.crash(3)
    c.run_for(1.0)
    g = c.stacks[1].summary()["groups"][1]
    assert g["membership"] == (1, 2)


def test_summary_names_the_member_gating_delivery():
    from repro.core import FTMPConfig

    # a silenced member that is not (yet) suspected holds the queue
    c = make_cluster((1, 2, 3), config=FTMPConfig(suspect_timeout=10.0))
    c.run_for(0.05)
    c.net.crash(2)
    c.run_for(0.05)
    c.stacks[1].multicast(1, b"held")
    c.run_for(0.2)
    g = c.stacks[1].summary()["groups"][1]
    assert g["queue_depth"] == 1
    gating = g["gating"]
    assert gating["member"] == 2
    assert gating["head"][1] == 1  # our own message heads the queue
    assert gating["cover_ts"] < gating["head"][0]
