"""The span recorder, its wrappers and the stage split."""

import pytest

from perfbench import measure, tracing
from perfbench.measure import CpuMeter, median, percentile, run_metered, sliced_median
from perfbench.tracing import (
    LAYER_SITES,
    Patches,
    SpanRecorder,
    StageSplit,
    TraceSession,
    install,
    self_times,
)


def test_self_times_on_a_synthetic_tree():
    # root [0, 100] has children a [10, 40] and b [30, 60] (overlapping:
    # 10..60 covered once = 50) and c [90, 120] clipped to the root's end
    # (10 covered); a has one child d [15, 25]
    spans = [
        (1, "root", 0, 100, 0, None),
        (2, "a", 10, 40, 1, None),
        (3, "b", 30, 60, 1, None),
        (4, "c", 90, 120, 1, None),
        (5, "d", 15, 25, 2, None),
    ]
    assert self_times(spans) == {"root": 100 - 50 - 10, "a": 30 - 10, "b": 30,
                                 "c": 30, "d": 10}


def test_same_name_nesting_adds_up():
    # a recursive call (ReceivePath.on_datagram unpacking a Batch)
    spans = [(1, "rx", 0, 50, 0, None), (2, "rx", 10, 20, 1, None),
             (3, "rx", 20, 35, 1, None)]
    assert self_times(spans) == {"rx": 50 - 25 + 10 + 15}


class _FakeClock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        return self.t

    def advance(self, n):
        self.t += n


def test_recorder_online_self_time_matches_the_span_list():
    clock = _FakeClock()
    rec = SpanRecorder(clock=clock)

    def leaf():
        clock.advance(7)

    def middle():
        clock.advance(3)
        wleaf()
        clock.advance(2)
        wleaf()

    def top():
        clock.advance(5)
        wmiddle()
        clock.advance(1)

    wleaf = tracing.make_wrapper(rec, "leaf", leaf)
    wmiddle = tracing.make_wrapper(rec, "middle", middle)
    wtop = tracing.make_wrapper(rec, "top", top)
    wtop()
    wtop()
    assert rec.self_ns == {"top": 12, "middle": 10, "leaf": 28}
    assert rec.self_ns == self_times(rec.spans)
    assert rec.calls == {"top": 2, "middle": 2, "leaf": 4}
    assert rec.top_ns == 2 * (5 + 3 + 7 + 2 + 7 + 1)
    parents = {sid: parent for sid, _n, _s, _e, parent, _op in rec.spans}
    names = {sid: name for sid, name, *_ in rec.spans}
    assert all(names[parents[sid]] == "middle" for sid in names if names[sid] == "leaf")


def test_op_id_is_inherited_by_child_spans():
    rec = SpanRecorder()

    def child():
        pass

    wchild = tracing.make_wrapper(rec, "child", child)
    wparent = tracing.make_wrapper(rec, "parent", lambda x: wchild(),
                                   op_of=lambda args: ("m", args[0]))
    wparent(42)
    assert {name: op for _i, name, _s, _e, _p, op in rec.spans} == {
        "child": ("m", 42), "parent": ("m", 42)}


def test_recorder_keeps_at_most_its_cap_but_aggregates_everything():
    rec = SpanRecorder(keep=3)
    w = tracing.make_wrapper(rec, "f", lambda: None)
    for _ in range(10):
        w()
    assert len(rec.spans) == 3
    assert rec.calls == {"f": 10}


def test_install_wraps_and_restore_puts_every_original_back():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _n, _o in LAYER_SITES]
    patches = Patches()
    install(SpanRecorder(), patches, LAYER_SITES)
    for owner, attr, orig in originals:
        assert vars(owner)[attr] is not orig
        assert vars(owner)[attr].__wrapped__ is orig
    patches.restore()
    for owner, attr, orig in originals:
        assert vars(owner)[attr] is orig


def test_trace_session_restores_on_exit_even_after_an_error():
    from repro.core.datapath import ProcessorGroup

    watched = [(owner, attr) for owner, attr, _n, _o in LAYER_SITES]
    watched += [(ProcessorGroup, "install_fault_view"), (ProcessorGroup, "multicast")]
    before = {(o, a): vars(o)[a] for o, a in watched}
    try:
        with TraceSession(lambda: 0.0):
            assert any(vars(o)[a] is not f for (o, a), f in before.items())
            raise KeyError("boom")
    except KeyError:
        pass
    assert all(vars(o)[a] is f for (o, a), f in before.items())


def test_stage_split_adds_up_to_end_to_end():
    now = [0.0]
    st = StageSplit(lambda: now[0])
    now[0] = 1.0
    st.seen(1, ("g", 1, 1))
    now[0] = 1.5
    st.handed(1, ("g", 1, 1))
    st.handed(1, ("g", 1, 1))  # a second hand-over keeps the first time
    st.delivered(1, ("g", 1, 1), due=0.25, at=3.0)
    stages = (st.wire, st.rmp_wait, st.romp_wait, st.end_to_end)
    assert [list(a) for a in stages] == [[0.75], [0.5], [1.5], [2.75]]
    assert st.sum_error_frac() < 1e-12
    st.delivered(2, ("g", 1, 1), due=0.0, at=4.0)  # never seen at member 2
    assert len(st.end_to_end) == 1


def test_percentiles_and_sliced_median():
    xs = list(range(101))
    assert percentile(xs, 50) == 50 and percentile(xs, 99) == 99
    assert median([3.0, 1.0, 2.0]) == 2.0
    issued = [i / 100 for i in range(100)]
    lat = [1.0] * 100
    assert sliced_median(issued, lat, window=1.0) == 1.0
    # one slow tenth of the window does not move the sliced median
    lat = [5.0 if t < 0.1 else 1.0 + t / 100 for t in issued]
    assert sliced_median(issued, lat, window=1.0) < 1.01


def test_cpu_meter_normalises_by_the_calibration_and_charges_it_apart(monkeypatch):
    # the program costs 2 CPU-s per simulated second and the host runs
    # the calibration at half the reference speed
    cpu = [0.0]
    monkeypatch.setattr(measure.time, "process_time", lambda: cpu[0])

    def calibrate(iterations):
        cpu[0] += iterations * measure.CAL_REF_US * 2 / 1e6

    monkeypatch.setattr(measure, "calibration_work", calibrate)

    class Scheduler:
        now = 0.0

        def run_until(self, t):
            cpu[0] += 2.0 * (t - self.now)
            self.now = t

    sched, meter = Scheduler(), CpuMeter()
    run_metered(sched, 1.0, meter, step=0.3)
    assert sched.now == 1.0
    assert meter.cal_iters == 4 * measure.CAL_ITERS  # at 0.3, 0.6, 0.9, 1.0
    assert meter.program_s == pytest.approx(2.0)
    assert meter.slowdown == pytest.approx(2.0)
    assert meter.normalised_s == pytest.approx(1.0)
