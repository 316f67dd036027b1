"""Turn run results into the benchmark's metrics, by name and unit."""

from __future__ import annotations

from typing import Dict, Tuple

from perfbench.giop_failover import run_giop_failover_sim
from perfbench.measure import RunResult, mean, percentile, sliced_median
from perfbench.streams import run_lossy_stream_sim, run_stream_loopback

WORKLOADS = {
    "stream-loopback": run_stream_loopback,
    "lossy-stream-sim": run_lossy_stream_sim,
    "giop-failover-sim": run_giop_failover_sim,
}

Metrics = Dict[str, Tuple[float, str]]


def _ms(seconds: float) -> float:
    return seconds * 1e3


def end_to_end(res: RunResult) -> Metrics:
    """The gated end-to-end metrics (the same names on every workload).

    An op is one ordered delivery at one member on the stream workloads
    and one completed invocation on ``giop-failover-sim``; latency is
    due time -> delivery, or call issued -> reply completed, and
    ``latency_p50_ms`` is the median over the window's ten parts of each
    part's median (:func:`~perfbench.measure.sliced_median`).
    ``cpu_us_per_op`` is the program's process CPU per op at the
    reference host speed (:class:`~perfbench.measure.CpuMeter`), and so
    is a set-up's time on the simulated workloads, where set-up is pure
    computation; the loopback set-up, which waits on sockets, is wall
    time.
    """
    ops = max(res.ops, 1)
    return {
        "setup_s": (res.setup_s, "s"),
        "latency_p50_ms": (_ms(sliced_median(res.issued, res.latencies, res.window_s)), "ms"),
        "goodput_per_s": (res.goodput, "1/s"),
        "cpu_us_per_op": (res.cpu_norm_s / ops * 1e6, "us"),
    }


def print_end_to_end(res: RunResult) -> None:
    """Every end-to-end figure the workload supports, with its sample count."""
    n = len(res.latencies)
    clock = "sim" if res.sim else "wall"
    ops = max(res.ops, 1)
    lines = [
        ("setup_s", res.setup_s, "s", f"median of {len(res.setup_samples)} set-ups, "
         + ("CPU at reference host speed" if res.sim else "wall")),
    ]
    if res.workload == "giop-failover-sim":
        lines += [
            ("invoke_p50_ms", _ms(percentile(res.latencies, 50)), "ms", f"n={n}, {clock}"),
            ("invoke_p99_ms", _ms(percentile(res.latencies, 99)), "ms", f"n={n}, {clock}"),
            ("failover_gap_ms", _ms(res.failover_gap), "ms",
             f"median of {len(res.extra['failover_gaps'])} crash episodes: "
             + " ".join(f"{_ms(g):.2f}" for g in res.extra["failover_gaps"])),
        ]
    else:
        lines.append(("deliver_p50_ms", _ms(percentile(res.latencies, 50)), "ms",
                      f"n={n}, {clock}"))
        if res.sim:
            lines += [
                ("deliver_p99_ms", _ms(percentile(res.latencies, 99)), "ms", f"n={n}, {clock}"),
                ("goodput_msg_s", res.goodput, "msg/s",
                 f"window {res.window_s:.3f} s {clock}"),
            ]
        else:
            lines += [
                ("aio.deliver_p99_ms", _ms(percentile(res.latencies, 99)), "ms",
                 f"n={n}, wall, diagnostic (host-dependent)"),
                ("aio.gen_late_p99_ms", _ms(percentile(res.gen_late, 99)), "ms",
                 f"n={len(res.gen_late)}, generator lateness"),
            ]
    lines += [
        ("cpu_us_per_op", res.cpu_norm_s / ops * 1e6, "us",
         f"at reference host speed (host ran {res.cpu_s / res.cpu_norm_s:.2f}x slower)"),
        ("cpu_raw_us_per_op", res.cpu_s / ops * 1e6, "us",
         f"{res.cpu_s:.3f} s CPU / {res.ops} ops, as measured"),
        ("failed_frac", res.failed / max(res.attempted, 1), "ratio",
         f"{res.failed} of {res.attempted} ops ({res.refused} refused)"),
    ]
    print(f"== {res.workload}: end-to-end ==")
    for name, value, unit, note in lines:
        print(f"  {name:<22} {value:>14.4f} {unit:<6} {note}")


def _p99_ms(values) -> float:
    return _ms(percentile(values, 99))


def per_layer(traced: RunResult, untraced: RunResult) -> Metrics:
    """Per-layer metrics of a traced run (``<module>.<what>``).

    ``*_us_per_op`` is self time (span minus child spans) per op.  A
    layer the workload never calls reads 0.
    """
    s = traced.session
    rec = s.recorder
    ops = max(traced.ops, 1)
    c = traced.counters
    acc = rec.acc

    def self_us(name: str) -> float:
        return acc[name][2] / 1e3 / ops if name in acc else 0.0

    def calls(name: str) -> int:
        return acc[name][0] if name in acc else 0

    outside_us = max(traced.cpu_s * 1e9 - rec.top_ns, 0.0) / 1e3 / ops
    drops = c.get("net.drops", 0)
    batches = c.get("batch.batches_sent", 0)
    rmp_arrivals = c.get("rmp.delivered", 0) + c.get("rmp.duplicates", 0)
    views = s.fault_views
    crash_to_view = [t - s.crash_times[ep] for _pid, _g, t, ep in views
                     if ep < len(s.crash_times)]
    untraced_cpu = untraced.cpu_norm_s / max(untraced.ops, 1)
    traced_cpu = traced.cpu_norm_s / ops
    st = s.stages
    wall = not traced.sim
    m: Metrics = {
        "aio.tx_us_per_op": (self_us("aio.tx"), "us"),
        "aio.loop_us_per_op": (outside_us if wall else 0.0, "us"),
        "aio.deliver_p99_ms": (_p99_ms(untraced.latencies) if wall else 0.0, "ms"),
        "aio.gen_late_p99_ms": (_p99_ms(untraced.gen_late) if wall else 0.0, "ms"),
        "simnet.self_us_per_op": (0.0 if wall else outside_us, "us"),
        "simnet.loss_per_op": (drops / ops, "count"),
        "wire.decode_us_per_op": (self_us("wire.decode"), "us"),
        "wire.encode_us_per_op": (self_us("wire.encode"), "us"),
        "wire.decodes_per_op": (calls("wire.decode") / ops, "count"),
        "datapath.rx_us_per_op": (self_us("datapath.rx"), "us"),
        "datapath.tx_us_per_op": (self_us("datapath.tx"), "us"),
        "datapath.datagrams_per_op": (c.get("stack.datagrams_sent", 0) / ops, "count"),
        "datapath.heartbeats_per_op": (c.get("send.heartbeats_sent", 0) / ops, "count"),
        "datapath.parts_per_batch": (
            c.get("batch.messages_batched", 0) / batches if batches else 0.0, "count"),
        "datapath.flow_stalls": (c.get("flow.credit_stalls", 0), "count"),
        "datapath.flow_wait_ms_p99": (_p99_ms(s.flow_waits), "ms"),
        "rmp.us_per_op": (self_us("rmp"), "us"),
        "rmp.wait_ms_mean": (_ms(mean(st.rmp_wait)), "ms"),
        "rmp.wait_ms_p99": (_p99_ms(st.rmp_wait), "ms"),
        "rmp.nacks_per_op": (c.get("rmp.nacks_sent", 0) / ops, "count"),
        "rmp.retransmits_per_loss": (
            c.get("rmp.retransmissions_sent", 0) / drops if drops else 0.0, "count"),
        "rmp.duplicate_frac": (
            c.get("rmp.duplicates", 0) / rmp_arrivals if rmp_arrivals else 0.0, "ratio"),
        "romp.receive_us_per_op": (self_us("romp.receive"), "us"),
        "romp.evaluate_us_per_op": (self_us("romp.evaluate"), "us"),
        "romp.evaluates_per_op": (calls("romp.evaluate") / ops, "count"),
        "romp.evaluate_useful_frac": (
            s.evaluates_useful / calls("romp.evaluate") if calls("romp.evaluate") else 0.0,
            "ratio"),
        "romp.wait_ms_mean": (_ms(mean(st.romp_wait)), "ms"),
        "romp.wait_ms_p99": (_p99_ms(st.romp_wait), "ms"),
        "romp.max_queue_depth": (c.get("romp.max_queue_depth", 0), "count"),
        "buffers.collect_us_per_op": (self_us("buffers.collect"), "us"),
        "buffers.max_bytes": (s.buffer_max_bytes, "bytes"),
        "pgmp.us_per_op": (self_us("pgmp"), "us"),
        "pgmp.crash_to_view_ms": (_ms(mean(crash_to_view)), "ms"),
        "pgmp.views_installed": (c.get("pgmp.views_installed", 0), "count"),
        "pgmp.suspects_sent": (c.get("pgmp.suspects_sent", 0), "count"),
        "connection.us_per_op": (self_us("connection"), "us"),
        "connection.dup_suppressed_per_op": (
            c.get("connections.duplicates_suppressed", 0) / ops, "count"),
        "giop.encode_us_per_op": (self_us("giop.encode"), "us"),
        "giop.decode_us_per_op": (self_us("giop.decode"), "us"),
        "giop.bytes_per_op": (s.giop_bytes / ops, "bytes"),
        "orb.invoke_us_per_op": (self_us("orb.invoke"), "us"),
        "orb.deliver_us_per_op": (self_us("orb.deliver"), "us"),
        "replication.execs_per_op": (traced.extra.get("servant_executions", 0) / ops, "count"),
        "trace.overhead_frac": (traced_cpu / untraced_cpu - 1.0 if untraced_cpu else 0.0,
                                "ratio"),
        "stage.sum_error_frac": (st.sum_error_frac(), "ratio"),
    }
    return m


#: the span each ``*_us_per_op`` metric is the self time of
SPAN_OF = {
    "aio.tx_us_per_op": "aio.tx", "wire.decode_us_per_op": "wire.decode",
    "wire.encode_us_per_op": "wire.encode", "datapath.rx_us_per_op": "datapath.rx",
    "datapath.tx_us_per_op": "datapath.tx", "rmp.us_per_op": "rmp",
    "romp.receive_us_per_op": "romp.receive", "romp.evaluate_us_per_op": "romp.evaluate",
    "buffers.collect_us_per_op": "buffers.collect", "pgmp.us_per_op": "pgmp",
    "connection.us_per_op": "connection", "giop.encode_us_per_op": "giop.encode",
    "giop.decode_us_per_op": "giop.decode", "orb.invoke_us_per_op": "orb.invoke",
    "orb.deliver_us_per_op": "orb.deliver",
}


def print_per_layer(layers: Metrics, traced: RunResult) -> None:
    """Per-layer metrics with the sample count behind each timing."""
    s = traced.session
    calls = s.recorder.calls
    staged = len(s.stages.end_to_end)
    print(f"== {traced.workload}: per-layer (traced run, {traced.ops} ops) ==")
    for name, (value, unit) in layers.items():
        if name in SPAN_OF:
            note = f"n={calls.get(SPAN_OF[name], 0)} spans"
        elif name.startswith(("rmp.wait", "romp.wait")):
            note = f"n={staged} staged deliveries"
        elif name == "datapath.flow_wait_ms_p99":
            note = f"n={len(s.flow_waits)} sends"
        else:
            note = ""
        print(f"  {name:<34} {value:>14.4f} {unit:<6} {note}")
