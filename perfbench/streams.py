"""The two ordered-stream workloads: ``stream-loopback`` and ``lossy-stream-sim``.

Both are open loop.  Every member multicasts 64-byte messages as a
seeded Poisson process at a fixed mean rate; each payload starts with a
``(source, n)`` tag followed by seeded bytes, so a message's due time is
looked up from its tag and its content can be checked on delivery.  The
program only receives the generated payloads, at their due times.  An
op is one ordered delivery at one member, and its latency runs from the
message's *due* time, so a stall also counts against every send that
was due while it lasted.
"""

from __future__ import annotations

import asyncio
import gc
import random
import socket
import struct
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import (
    ConnectionId,
    Delivery,
    FlowControlSaturated,
    FTMPConfig,
    FTMPStack,
    Listener,
    RecordingListener,
)
from repro.replication.oracles import check_fifo, check_no_duplicates, check_total_order
from repro.simnet import LinkModel, Network, Topology

from perfbench.measure import (
    CpuMeter,
    RunResult,
    counter_totals,
    freeze_heap,
    median,
    run_metered,
)
from perfbench.tracing import TraceSession

GROUP = 1
GROUP_ADDRESS = 5001
MSG_SIZE = 64
_TAG = struct.Struct(">HI")  # (source, per-source message number)

#: repeated set-ups per run; the reported set-up time is their median
#: (a simulated set-up takes about a millisecond of host time, so it is
#: repeated more often than the socket one, over long enough that a
#: short burst of host noise does not cover them all)
LOOPBACK_SETUPS = 5
SIM_SETUPS = 100
#: a member that is not heard from within this long fails the run
READY_TIMEOUT_S = 10.0


class StreamSchedule:
    """Seeded open-loop input: Poisson due times and payloads per member.

    Poisson arrivals (independent senders) rather than a fixed period:
    with fixed periods the ordering wait is set by the seeded phase
    offsets between members, so the latency distribution would shift
    from seed to seed instead of being sampled by it.
    """

    def __init__(self, seed: int, pids: Tuple[int, ...], rate: float, window: float):
        rng = random.Random(seed)
        self.rate = rate
        self.window = window
        #: (source, n) -> due offset from the start of the load window
        self.due: Dict[Tuple[int, int], float] = {}
        self.payloads: Dict[Tuple[int, int], bytes] = {}
        for p in pids:
            t = rng.expovariate(rate)
            n = 0
            while t < window:
                self.due[(p, n)] = t
                self.payloads[(p, n)] = _TAG.pack(p, n) + rng.randbytes(MSG_SIZE - _TAG.size)
                t += rng.expovariate(rate)
                n += 1

    def due_offset(self, src: int, n: int) -> float:
        return self.due[(src, n)]

    def sends(self) -> List[Tuple[float, int, int]]:
        """Every send as ``(due offset, source, n)`` in due order."""
        return sorted((t, p, n) for (p, n), t in self.due.items())


def payload_tag(payload: bytes) -> Tuple[int, int]:
    return _TAG.unpack_from(payload)


class StreamListener(Listener):
    """Records each ordered delivery with the workload's clock.

    Deliveries are kept as tuples of plain values (untracked by the
    cyclic garbage collector), so the benchmark's own bookkeeping does
    not lengthen the collector's full passes inside the timed window.
    """

    def __init__(self, pid: int, clock: Callable[[], float]):
        self.pid = pid
        self.clock = clock
        self.records: List[tuple] = []
        self.times = array("d")
        self.on_delivery: Optional[Callable] = None

    def on_deliver(self, d) -> None:
        t = self.clock()
        self.records.append((d.group, d.source, d.sequence_number, d.timestamp, d.payload))
        self.times.append(t)
        if self.on_delivery is not None:
            self.on_delivery(self.pid, d, t)

    @property
    def deliveries(self) -> List[Delivery]:
        """The recorded history in the form the oracles read."""
        none = ConnectionId.none()
        return [Delivery(g, src, seq, ts, none, 0, payload, t)
                for (g, src, seq, ts, payload), t in zip(self.records, self.times)]


def check_stream(schedule: StreamSchedule, listeners: Dict[int, StreamListener],
                 start: float, deadline: float, res: RunResult) -> Dict[Tuple[int, int], float]:
    """Oracle battery + content check + per-op latency, outside the timed window.

    Returns, per message tag, the time its last member delivered it.
    """
    histories = {pid: RecordingListener(deliveries=lst.deliveries)
                 for pid, lst in listeners.items()}
    for check in (check_total_order, check_fifo, check_no_duplicates):
        res.violations.extend(str(v.detail) for v in check(histories, GROUP))
    last: Dict[Tuple[int, int], float] = {}
    reached: Dict[Tuple[int, int], int] = {}
    bad = 0
    for pid, hist in histories.items():
        for d in hist.deliveries:
            t = d.delivered_at
            tag = payload_tag(d.payload)
            if schedule.payloads.get(tag) != d.payload:
                bad += 1
                res.violations.append(f"member {pid} delivered a corrupted payload {tag}")
                continue
            if t > deadline:
                continue
            due = schedule.due_offset(*tag)
            res.latencies.append(t - (start + due))
            res.issued.append(due)
            reached[tag] = reached.get(tag, 0) + 1
            if t > last.get(tag, float("-inf")):
                last[tag] = t
    members = len(listeners)
    res.attempted = len(schedule.payloads) * members
    res.failed = res.attempted - sum(reached.values()) + bad
    return {tag: t for tag, t in last.items() if reached[tag] == members}


# ======================================================================
# stream-loopback: three stacks, one asyncio loop, real loopback UDP
# ======================================================================
LOOPBACK_PIDS = (1, 2, 3)
LOOPBACK_RATE = 1000.0  # msgs/s per member
LOOPBACK_DRAIN_S = 1.0
#: wall seconds between calibration steps (see :class:`CpuMeter`): about
#: 10 ms of CPU at this load, as on the simulated workloads
LOOPBACK_CAL_PERIOD_S = 0.02


def loopback_config() -> FTMPConfig:
    """The default configuration (Lamport order, no batching) with a
    fault timeout far above host scheduling stalls: all three members
    share one event loop, so a stalled host delays every member at once
    and must not read as a crash."""
    return FTMPConfig(suspect_timeout=2.0)


class _LoopbackGroup:
    """Three FTMPStacks, each on its own AioFabric (so every datagram
    between members crosses a real socket), on one event loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop, seed: int):
        from repro.runtime.aio import AioFabric

        self.loop = loop
        ports = {}
        socks = []
        for pid in LOOPBACK_PIDS:
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
            ports[pid] = s.getsockname()[1]
        for s in socks:
            s.close()
        self.fabrics = []
        self.stacks: Dict[int, FTMPStack] = {}
        self.listeners: Dict[int, StreamListener] = {}
        for pid in LOOPBACK_PIDS:
            fabric = AioFabric(peers=ports, mode="loopback", seed=seed)
            self.fabrics.append(fabric)
            ep = loop.run_until_complete(fabric.start(pid))
            self.listeners[pid] = StreamListener(pid, time.perf_counter)
            stack = FTMPStack(ep, loopback_config(), self.listeners[pid])
            stack.create_group(GROUP, GROUP_ADDRESS, LOOPBACK_PIDS)
            self.stacks[pid] = stack

    def ready(self) -> bool:
        return all(s.group(GROUP).has_heard_from(p)
                   for s in self.stacks.values() for p in LOOPBACK_PIDS)

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while not self.ready():
            if time.perf_counter() > deadline:
                raise RuntimeError("stream-loopback: members not heard from in time")
            self.loop.run_until_complete(asyncio.sleep(0.001))

    def close(self) -> None:
        for s in self.stacks.values():
            s.stop()
        for f in self.fabrics:
            f.stop()
        self.loop.run_until_complete(asyncio.sleep(0))


def run_stream_loopback(seed: int, seconds: float, traced: bool) -> RunResult:
    res = RunResult(workload="stream-loopback", sim=False)
    schedule = StreamSchedule(seed, LOOPBACK_PIDS, LOOPBACK_RATE, seconds)
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    session: Optional[TraceSession] = None
    group: Optional[_LoopbackGroup] = None
    calibrator: Optional[asyncio.Task] = None
    try:
        for _ in range(LOOPBACK_SETUPS):
            if group is not None:
                group.close()
                group = None
            gc.collect()  # the previous group's garbage is not set-up work
            t0 = time.perf_counter()
            group = _LoopbackGroup(loop, seed)
            group.wait_ready()
            res.setup_samples.append(time.perf_counter() - t0)

        sends = schedule.sends()
        stacks = group.stacks
        payloads = schedule.payloads
        late = array("d")
        start_box = [0.0]
        if traced:
            session = TraceSession(time.perf_counter)

            def stage(pid, d, t):
                tag = payload_tag(d.payload)
                session.stages.delivered(pid, (d.group, d.source, d.sequence_number),
                                  start_box[0] + schedule.due_offset(*tag), t)

            for lst in group.listeners.values():
                lst.on_delivery = stage

        async def generate() -> None:
            clock = time.perf_counter
            start = start_box[0]
            for off, src, n in sends:
                due = start + off
                delay = due - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                late.append(clock() - due)
                try:
                    stacks[src].multicast(GROUP, payloads[(src, n)])
                except FlowControlSaturated:
                    res.refused += 1

        async def calibrate(meter: CpuMeter) -> None:
            while True:
                await asyncio.sleep(LOOPBACK_CAL_PERIOD_S)
                meter.tick()

        before = counter_totals(stacks.values())
        freeze_heap()
        if session is not None:
            session.__enter__()
            session.start_window()
        meter = CpuMeter()
        calibrator = loop.create_task(calibrate(meter))
        start = time.perf_counter() + 0.005
        start_box[0] = start
        loop.run_until_complete(generate())
        expected = len(schedule.payloads) * len(LOOPBACK_PIDS)
        deadline = time.perf_counter() + LOOPBACK_DRAIN_S
        while (sum(len(lst.records) for lst in group.listeners.values()) < expected
               and time.perf_counter() < deadline):
            loop.run_until_complete(asyncio.sleep(0.002))
        calibrator.cancel()
        loop.run_until_complete(asyncio.gather(calibrator, return_exceptions=True))
        meter.tick()
        res.cpu_s, res.cpu_norm_s = meter.program_s, meter.normalised_s
        end = time.perf_counter()
        if session is not None:
            session.__exit__(None, None, None)
        res.counters = counter_totals(stacks.values(), before)
        res.window_s = seconds
        res.gen_late = late
        last = check_stream(schedule, group.listeners, start, end, res)
        load_end = start + seconds
        res.goodput = sum(1 for t in last.values() if t <= load_end) / seconds
    finally:
        if calibrator is not None and not calibrator.done():
            calibrator.cancel()
            loop.run_until_complete(asyncio.gather(calibrator, return_exceptions=True))
        if group is not None:
            group.close()
        if session is not None:
            session.__exit__(None, None, None)
        loop.close()
        gc.unfreeze()
        asyncio.set_event_loop(None)
    res.session = session
    res.setup_s = median(res.setup_samples)
    return res


# ======================================================================
# lossy-stream-sim: five members, 1 % loss, E17's closed-loop datapath
# ======================================================================
LOSSY_PIDS = (1, 2, 3, 4, 5)
LOSSY_RATE = 2000.0  # msgs/s per member
LOSSY_DRAIN_S = 0.5
#: simulated seconds of load per second of ``--seconds`` (the simulator
#: runs slower than real time at this load; sim-time figures depend only
#: on the seed and this product, never on the host)
LOSSY_SIM_PER_WALL = 0.35
#: simulated seconds between calibration steps (about 10 ms of CPU)
LOSSY_CAL_STEP_S = 0.005


def lossy_topology() -> Topology:
    return Topology(default=LinkModel(latency=0.0001, jitter=0.0002, loss=0.01),
                    egress_bandwidth=1_000_000, packet_overhead=66)


def lossy_config() -> FTMPConfig:
    return FTMPConfig(heartbeat_interval=0.002, suspect_timeout=30.0,
                      batch_window=0.001, batch_adaptive=True,
                      flow_control_window=48,
                      retransmit_rate_limit=2000.0, retransmit_burst=8,
                      nack_dedupe_window=0.005, nack_backoff_factor=2.0)


class _SimGroup:
    def __init__(self, seed: int):
        self.net = Network(lossy_topology(), seed=seed)
        clock = lambda: self.net.scheduler.now  # noqa: E731
        self.stacks: Dict[int, FTMPStack] = {}
        self.listeners: Dict[int, StreamListener] = {}
        for pid in LOSSY_PIDS:
            self.listeners[pid] = StreamListener(pid, clock)
            stack = FTMPStack(self.net.endpoint(pid), lossy_config(), self.listeners[pid])
            stack.create_group(GROUP, GROUP_ADDRESS, LOSSY_PIDS)
            self.stacks[pid] = stack

    def wait_ready(self) -> None:
        for _ in range(int(READY_TIMEOUT_S / 0.002)):
            if all(s.group(GROUP).has_heard_from(p)
                   for s in self.stacks.values() for p in LOSSY_PIDS):
                return
            self.net.run_for(0.002)
        raise RuntimeError("lossy-stream-sim: members not heard from in time")

    def close(self) -> None:
        for s in self.stacks.values():
            s.stop()


def run_lossy_stream_sim(seed: int, seconds: float, traced: bool) -> RunResult:
    res = RunResult(workload="lossy-stream-sim", sim=True)
    window = seconds * LOSSY_SIM_PER_WALL
    session: Optional[TraceSession] = None
    group: Optional[_SimGroup] = None
    try:
        for _ in range(SIM_SETUPS):
            if group is not None:
                group.close()
                group = None
            gc.collect()  # the previous group's garbage is not set-up work
            meter = CpuMeter()
            group = _SimGroup(seed)
            group.wait_ready()
            meter.tick()
            res.setup_samples.append(meter.normalised_s)
        # generated after the set-ups, so their collections stay short
        schedule = StreamSchedule(seed, LOSSY_PIDS, LOSSY_RATE, window)
        net = group.net
        sched = net.scheduler
        stacks = group.stacks
        start = sched.now + 0.001
        if traced:
            session = TraceSession(lambda: sched.now)

            def stage(pid, d, t):
                session.stages.delivered(pid, (d.group, d.source, d.sequence_number),
                                  start + schedule.due_offset(*payload_tag(d.payload)), t)

            for lst in group.listeners.values():
                lst.on_delivery = stage

        def send(src: int, n: int) -> None:
            try:
                stacks[src].multicast(GROUP, schedule.payloads[(src, n)])
            except FlowControlSaturated:
                res.refused += 1
            nxt = schedule.due.get((src, n + 1))
            if nxt is not None:
                sched.at(start + nxt, send, src, n + 1)

        for p in LOSSY_PIDS:
            if (p, 0) in schedule.due:
                sched.at(start + schedule.due[(p, 0)], send, p, 0)
        before = counter_totals(stacks.values())
        drops0 = net.trace.drops
        freeze_heap()
        if session is not None:
            session.__enter__()
            session.start_window()
        meter = CpuMeter()
        run_metered(sched, start + window + LOSSY_DRAIN_S, meter, LOSSY_CAL_STEP_S)
        res.cpu_s, res.cpu_norm_s = meter.program_s, meter.normalised_s
        if session is not None:
            session.__exit__(None, None, None)
        res.counters = counter_totals(stacks.values(), before)
        res.counters["net.drops"] = net.trace.drops - drops0
        res.window_s = window
        last = check_stream(schedule, group.listeners, start, sched.now, res)
        load_end = start + window
        res.goodput = sum(1 for t in last.values() if t <= load_end) / window
    finally:
        if session is not None:
            session.__exit__(None, None, None)
        if group is not None:
            group.close()
        gc.unfreeze()
    res.session = session
    res.setup_s = median(res.setup_samples)
    return res
