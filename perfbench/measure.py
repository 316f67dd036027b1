"""Run results and the small statistics the report needs."""

from __future__ import annotations

import gc
import heapq
import math
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

#: iterations of :func:`calibration_work` per calibration step (about
#: 0.25 ms of CPU)
CAL_ITERS = 150
#: CPU microseconds one calibration iteration takes, between stretches of
#: the program, on the reference host (a 2-vCPU 2.1 GHz Xeon VM at a
#: quiet moment, CPython 3.11); normalised CPU figures read as
#: microseconds on that host
CAL_REF_US = 1.6


@dataclass
class RunResult:
    """What one workload run measured, before it is turned into metrics.

    Times are seconds (wall clock or simulated, as the workload states).
    """

    workload: str
    sim: bool
    setup_s: float = 0.0
    setup_samples: List[float] = field(default_factory=list)
    #: ops (ordered deliveries or invocations) attempted / not completed
    attempted: int = 0
    failed: int = 0
    #: sends refused with FlowControlSaturated (also counted in ``failed``)
    refused: int = 0
    violations: List[str] = field(default_factory=list)
    #: per completed op, due/issue -> completion
    latencies: List[float] = field(default_factory=list)
    #: per completed op, when it was due/issued (offset into the window)
    issued: List[float] = field(default_factory=list)
    #: process CPU (user + sys) of the program over the load window and
    #: its drain, and the same normalised to the reference host speed
    #: (see :class:`CpuMeter`)
    cpu_s: float = 0.0
    cpu_norm_s: float = 0.0
    window_s: float = 0.0
    #: distinct ops completed inside the load window, per second of it
    #: (stream workloads: messages delivered at every member)
    goodput: float = 0.0
    failover_gap: float = 0.0
    #: generator lateness per send (wall-clock workload only)
    gen_late: List[float] = field(default_factory=list)
    #: summed stack counters over the load window
    counters: Dict[str, float] = field(default_factory=dict)
    #: workload-specific figures for the per-layer report
    extra: Dict[str, float] = field(default_factory=dict)
    session: Optional[object] = None

    @property
    def ops(self) -> int:
        return self.attempted - self.failed


def freeze_heap() -> None:
    """Move everything built during set-up out of the collector's reach.

    The set-up leaves the generated inputs and the stacks' state on the
    heap; without this, the collector's full passes would rescan them
    inside the timed window (tens of milliseconds each on the wall-clock
    workload).  Undo with ``gc.unfreeze()``.
    """
    gc.collect()
    gc.freeze()


class _Entry:
    __slots__ = ("key", "seq", "data")

    def __init__(self, key: int, seq: int, data: bytes):
        self.key = key
        self.seq = seq
        self.data = data


_CAL_RECORD = struct.Struct(">HIq")


def calibration_work(iterations: int) -> int:
    """A fixed piece of interpreter work that uses none of the program:
    slotted objects, a heap, a dict keyed by tuples and struct packing,
    the kinds of work the protocol stack's hot paths do."""
    heap: list = []
    table: dict = {}
    acc = 0
    for i in range(iterations):
        e = _Entry(i % 17, i, _CAL_RECORD.pack(i % 17, i, -i))
        heapq.heappush(heap, (i * 7919 % 1013, i, e))
        table[(e.key, e.seq)] = e
        if len(heap) > 8:
            old = heapq.heappop(heap)[2]
            a, b, _ = _CAL_RECORD.unpack(old.data)
            acc += a + b + len(table.pop((old.key, old.seq)).data)
    return acc


class CpuMeter:
    """The program's process CPU, and the same normalised to host speed.

    This VM reports no steal time: while the process runs, time its
    vCPU spends descheduled by the host is charged to the process, so
    raw CPU per op follows the neighbours' load (by 20 % and more
    between runs on a shared 2-vCPU VM).  The meter runs a fixed
    calibration step at every :meth:`tick`, between short stretches of
    the program, so both see the same host conditions; the program's CPU
    divided by how much slower than :data:`CAL_REF_US` the calibration
    ran is its CPU on the reference host.  Calibration time is not
    charged to the program.
    """

    def __init__(self) -> None:
        self.program_s = 0.0
        self.cal_s = 0.0
        self.cal_iters = 0
        self._mark = time.process_time()

    def tick(self) -> None:
        """Charge the CPU since the last tick to the program, then run
        one calibration step."""
        t = time.process_time()
        self.program_s += t - self._mark
        calibration_work(CAL_ITERS)
        self._mark = time.process_time()
        self.cal_s += self._mark - t
        self.cal_iters += CAL_ITERS

    @property
    def slowdown(self) -> float:
        """Calibration CPU per iteration over the reference (1 = as fast)."""
        return self.cal_s * 1e6 / self.cal_iters / CAL_REF_US

    @property
    def normalised_s(self) -> float:
        return self.program_s / self.slowdown


def run_metered(scheduler, until: float, meter: CpuMeter, step: float) -> None:
    """Run the simulator to ``until``, ticking ``meter`` every ``step``
    simulated seconds."""
    begin = scheduler.now
    n = max(math.ceil((until - begin) / step), 1)
    for i in range(1, n + 1):
        scheduler.run_until(min(begin + step * i, until))
        meter.tick()


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def sliced_median(issued: Sequence[float], latencies: Sequence[float],
                  window: float, slices: int = 10) -> float:
    """Median over ``slices`` equal parts of the load window (by due or
    issue time) of each part's median latency.

    A host stall on the wall-clock workload shifts the latencies of the
    part it falls in; the median over parts keeps one such episode from
    moving the run's typical latency, and equals the pooled median when
    there is none.
    """
    parts: List[List[float]] = [[] for _ in range(slices)]
    for t, lat in zip(issued, latencies):
        parts[min(max(int(t / window * slices), 0), slices - 1)].append(lat)
    return median([median(p) for p in parts if p])


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def counter_totals(stacks: Iterable, before: Optional[Dict[str, float]] = None
                   ) -> Dict[str, float]:
    """Sum every stack's ``snapshot()`` counters by layer name.

    ``group.<gid>.rmp.nacks_sent`` from every stack and group adds into
    ``rmp.nacks_sent``; gauges that are maxima (``*max_queue_depth``) are
    maxed, not summed.  With ``before``, the result is the difference.
    """
    out: Dict[str, float] = {}
    for s in stacks:
        for k, v in s.snapshot().items():
            if not isinstance(v, (int, float)):
                continue
            parts = k.split(".")
            name = ".".join(parts[2:]) if parts[0] == "group" else k
            if name.endswith("max_queue_depth"):
                out[name] = max(out.get(name, 0), v)
            else:
                out[name] = out.get(name, 0) + v
    if before:
        for k, v in before.items():
            if k in out and not k.endswith("max_queue_depth"):
                out[k] -= v
    return out
