"""The ``giop-failover-sim`` workload: replicated GIOP invocations across a crash.

A :class:`ReplicaManager` runs a 3-replica active server group on a
simulated LAN.  Four client ORBs each run a closed-loop
:class:`RequestReplyDriver` (each caller waits for its reply, so the loop
is closed) invoking ``update(key, value, text)`` with a CDR-marshalled
string key, long long and 64-character string.  Replica 2 crashes half
way through the load window; heartbeat 5 ms and fault timeout 50 ms are
E8's fault settings.  A run is several such crash episodes on fresh
clusters (one crash gives one failover sample; their median is steady).

Every client updates its own keys, so a reply depends only on that
client's own (totally ordered) connection: a sequential execution of
each client's requests gives the expected replies, and the surviving
replicas must end in the same state as that reference.
"""

from __future__ import annotations

import gc
import random
import string
from typing import Dict, List, Optional, Tuple

from repro.analysis.workload import RequestReplyDriver
from repro.core import FTMPConfig, RecordingListener
from repro.replication import ReplicaManager
from repro.replication.oracles import check_fifo, check_no_duplicates, check_total_order
from repro.simnet import Network, lan

from perfbench.measure import (
    CpuMeter,
    RunResult,
    counter_totals,
    freeze_heap,
    median,
    run_metered,
)
from perfbench.tracing import TraceSession

SERVER_PIDS = (1, 2, 3)
CLIENT_PIDS = (11, 12, 13, 14)
CRASHED = 2
DOMAIN, OBJECT_GROUP, OBJECT_KEY = 7, 100, b"ledger"
KEYS_PER_CLIENT = 8
TEXT_LEN = 64
#: independent clusters per run, one crash each
EPISODES = 5
#: timed cluster set-ups per episode; the last one carries the load
SETUPS_PER_EPISODE = 8
HEARTBEAT_S = 0.005
#: a client pauses U(0, THINK_MAX_S) between a reply and its next call
THINK_MAX_S = HEARTBEAT_S
#: simulated seconds of load per second of ``--seconds``
SIM_PER_WALL = 1.3
DRAIN_S = 1.0
#: simulated seconds between calibration steps (about 10 ms of CPU)
CAL_STEP_S = 0.02
#: connection set-up must finish within this much simulated time
READY_TIMEOUT_S = 5.0


class Ledger:
    """Per-key running count/total and last text.

    ``update`` returns ``[count, total, text]`` after applying the
    update, so a reply proves which prefix of the key's history the
    replica had executed.
    """

    def __init__(self):
        self.entries: Dict[str, list] = {}

    def update(self, key: str, value: int, text: str) -> list:
        count, total, _ = self.entries.get(key, (0, 0, ""))
        entry = [count + 1, total + value, text]
        self.entries[key] = entry
        return list(entry)


class RequestStream:
    """One client's seeded request sequence, generated on demand."""

    _ALPHABET = string.ascii_letters + string.digits

    def __init__(self, seed: int, client: int):
        self._rng = random.Random(seed * 1_000_003 + client)
        self._client = client
        self._think_rng = random.Random(seed * 1_000_003 + client + 500_000)
        self.args: List[tuple] = []

    def think(self) -> float:
        return self._think_rng.uniform(0.0, THINK_MAX_S)

    def __call__(self, i: int) -> tuple:
        while len(self.args) <= i:
            rng = self._rng
            self.args.append((
                f"c{self._client}-k{rng.randrange(KEYS_PER_CLIENT)}",
                rng.randrange(-10**9, 10**9),
                "".join(rng.choice(self._ALPHABET) for _ in range(TEXT_LEN)),
            ))
        return self.args[i]


class _Recorder(RecordingListener):
    """Records every FTMP delivery, then hands it to the adapter."""

    def __init__(self, adapter):
        super().__init__()
        self.adapter = adapter

    def on_deliver(self, delivery) -> None:
        self.deliveries.append(delivery)
        self.adapter.on_deliver(delivery)

    def on_view_change(self, view) -> None:
        self.adapter.on_view_change(view)

    def on_fault_report(self, report) -> None:
        self.adapter.on_fault_report(report)

    def on_connection(self, event) -> None:
        self.adapter.on_connection(event)


class _Cluster:
    def __init__(self, seed: int):
        self.net = Network(lan(), seed=seed)
        self.mgr = ReplicaManager(self.net, config=FTMPConfig(
            heartbeat_interval=HEARTBEAT_S, suspect_timeout=0.050))
        self.ref = self.mgr.create_server_group(
            domain=DOMAIN, object_group=OBJECT_GROUP, object_key=OBJECT_KEY,
            factory=Ledger, pids=SERVER_PIDS)
        self.proxies = {}
        self.cids = {}
        for i, pid in enumerate(CLIENT_PIDS):
            host = self.mgr.create_client(pid, client_domain=3, client_group=200 + i)
            self.proxies[pid] = self.mgr.proxy(pid, self.ref)
            self.cids[pid] = host.adapter.open_connection(self.ref)
        self.recorders = {}
        for pid, host in self.mgr.hosts.items():
            self.recorders[pid] = _Recorder(host.adapter)
            host.stack.listener = self.recorders[pid]

    def wait_ready(self) -> None:
        sched = self.net.scheduler
        deadline = sched.now + READY_TIMEOUT_S
        while not all(self._established(pid) for pid in CLIENT_PIDS):
            if sched.now > deadline:
                raise RuntimeError("giop-failover-sim: connections not established in time")
            self.net.run_for(0.001)

    def _established(self, pid: int) -> bool:
        b = self.mgr.hosts[pid].stack.connection_binding(self.cids[pid])
        return b is not None and b.established

    def close(self) -> None:
        for host in self.mgr.hosts.values():
            host.stack.stop()


def run_giop_failover_sim(seed: int, seconds: float, traced: bool) -> RunResult:
    """``EPISODES`` independent crash episodes, each on a fresh cluster.

    The failover gap is the median over episodes (one crash per
    episode); latencies are pooled; set-up time is the median over every
    episode's ``SETUPS_PER_EPISODE`` timed set-ups, each timed as its CPU
    at the reference host speed (:class:`~perfbench.measure.CpuMeter`).
    """
    res = RunResult(workload="giop-failover-sim", sim=True)
    window = seconds * SIM_PER_WALL / EPISODES
    clock_box = [lambda: 0.0]
    session = (TraceSession(lambda: clock_box[0](), listener_is_adapter=True)
               if traced else None)
    gaps, completed = [], 0
    for k in range(EPISODES):
        gap, done = _episode(k, seed * EPISODES + k, window, session, clock_box, res)
        gaps.append(gap)
        completed += done
    res.window_s = window * EPISODES
    res.goodput = completed / res.window_s
    res.failover_gap = median(gaps)
    res.extra["failover_gaps"] = gaps
    res.session = session
    res.setup_s = median(res.setup_samples)
    return res


def _episode(k: int, seed: int, window: float, session: Optional[TraceSession],
             clock_box: list, res: RunResult) -> Tuple[float, int]:
    """One crash episode; returns its failover gap and the number of
    calls completed inside its load window."""
    cluster = None
    try:
        for _ in range(SETUPS_PER_EPISODE):
            if cluster is not None:
                cluster.close()
            cluster = None
            gc.collect()  # the previous cluster's garbage is not set-up work
            meter = CpuMeter()
            cluster = _Cluster(seed)
            cluster.wait_ready()
            meter.tick()
            res.setup_samples.append(meter.normalised_s)
        net = cluster.net
        sched = net.scheduler
        clock_box[0] = lambda: sched.now
        hosts = cluster.mgr.hosts
        stacks = [h.stack for h in hosts.values()]

        streams: Dict[int, RequestStream] = {}
        issued_at: Dict[int, List[float]] = {}
        drivers: Dict[int, RequestReplyDriver] = {}
        for pid in CLIENT_PIDS:
            stream = RequestStream(seed, pid)
            times: List[float] = []

            def make_args(i, _pid=pid, _stream=stream, _times=times):
                _times.append(sched.now)
                # the pause after this call's reply: uniform over one
                # heartbeat period, so calls sample every heartbeat phase
                drivers[_pid].think_time = _stream.think()
                return _stream(i)

            streams[pid], issued_at[pid] = stream, times
            drivers[pid] = RequestReplyDriver(
                orb=hosts[pid].orb, proxy=cluster.proxies[pid], operation="update",
                make_args=make_args, requests=1 << 62, now_fn=lambda: sched.now)

        start = sched.now
        load_end = start + window
        crash_at = start + window / 2

        def stop_issuing() -> None:
            for d in drivers.values():
                d.requests = d._issued

        sched.at(crash_at, net.crash, CRASHED)
        sched.at(load_end, stop_issuing)
        before = counter_totals(stacks)
        executed0 = sum(h.adapter.stats_requests_executed for h in hosts.values())
        freeze_heap()
        if session is not None:
            session.__enter__()
            if k == 0:
                session.start_window()  # aggregates span every episode
            session.forget_in_flight()
        meter = CpuMeter()
        for d in drivers.values():
            d.start()
        run_metered(sched, load_end + DRAIN_S, meter, CAL_STEP_S)
        res.cpu_s += meter.program_s
        res.cpu_norm_s += meter.normalised_s
        if session is not None:
            session.__exit__(None, None, None)
            session.crash_times.append(crash_at)
        for name, v in counter_totals(stacks, before).items():
            res.counters[name] = (max(res.counters.get(name, 0), v)
                                  if name.endswith("max_queue_depth")
                                  else res.counters.get(name, 0) + v)
        res.extra["servant_executions"] = res.extra.get("servant_executions", 0) + sum(
            h.adapter.stats_requests_executed for h in hosts.values()) - executed0
        issued, latencies = _check(k, cluster, drivers, streams, issued_at, start, window, res)
        completed = sum(1 for t, lat in zip(issued, latencies) if t + lat <= window)
        return _failover_gap(issued, latencies, start, load_end), completed
    finally:
        if cluster is not None:
            cluster.close()
        gc.unfreeze()


def _check(k: int, cluster: _Cluster, drivers, streams, issued_at, start: float,
           window: float, res: RunResult) -> Tuple[List[float], List[float]]:
    """Oracles, replies against a sequential execution, replica states.

    Returns the episode's completed calls as (issue offsets, latencies);
    ``res`` gets them on a time axis where episode k's window follows
    the k earlier ones.
    """
    issued: List[float] = []
    latencies: List[float] = []
    reference = Ledger()
    for pid in CLIENT_PIDS:
        d = drivers[pid]
        res.attempted += d._issued
        done = len(d.latencies)
        res.failed += d._issued - done
        for i in range(done):
            expected = reference.update(*streams[pid](i))
            got = d.results[i] if i < len(d.results) else None
            if got != expected:
                res.failed += 1
                res.violations.append(
                    f"client {pid} request {i}: reply {got!r} != sequential {expected!r}")
            latencies.append(d.latencies[i])
            issued.append(issued_at[pid][i] - start)
        res.failed += len(d.errors)
        res.violations.extend(f"client {pid}: {e!r}" for e in d.errors)
    live = [p for p in SERVER_PIDS if not cluster.net.is_crashed(p)]
    for p in live:
        state = cluster.mgr.servant(p, DOMAIN, OBJECT_GROUP).entries
        if state != reference.entries:
            res.violations.append(f"replica {p} state differs from the sequential execution")
    listeners = cluster.recorders
    groups = sorted({d.group for r in listeners.values() for d in r.deliveries})
    for g in groups:
        for check in (check_total_order, check_fifo, check_no_duplicates):
            res.violations.extend(str(v.detail) for v in check(listeners, g))
    res.latencies.extend(latencies)
    res.issued.extend(k * window + t for t in issued)
    return issued, latencies


def _failover_gap(issued: List[float], latencies: List[float], start: float,
                  load_end: float) -> float:
    """Longest interval of the load window with no reply completed at
    any client.  The crash stalls every connection at once, so this is
    the failover; it starts within a heartbeat or two of the crash."""
    done = sorted(start + t + lat for t, lat in zip(issued, latencies))
    marks = [start] + [t for t in done if t <= load_end] + [load_end]
    return max(b - a for a, b in zip(marks, marks[1:]))
