"""Span recording around the FTMP layers, installed from outside ``src/``.

The traced run wraps the public entry points of each layer (see
:data:`LAYER_SITES`) with a recorder.  A span has a name, a start, an
end, a parent span and an op id shared by the spans of one message or
invocation.  Spans nest exactly (the stack is single-threaded and every
layer call returns before its caller does), so a layer's *self time* is
its span's duration minus the time its child spans cover.

Aggregates (calls, total and self time per span name) are kept for
every span; full span records are kept up to a cap and written out when
the run ends, so a long run stays within a bounded amount of memory.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import buffers, connection, datapath, pgmp, rmp, romp
from repro.core import stack as stack_mod
from repro.core.constants import MessageType
from repro.orb import ftiop
from repro.runtime import aio

#: (id, name, start_ns, end_ns, parent id or 0, op id or None)
Span = Tuple[int, str, int, int, int, Optional[tuple]]


class SpanRecorder:
    """In-memory span recorder with online self-time aggregation.

    The wrappers made by :func:`make_wrapper` write into it directly:
    ``stack`` holds the open spans (innermost last) as
    ``[child_ns, span id, op id]``, ``acc`` maps a span name to
    ``[calls, total_ns, self_ns]``.  Both are mutated in place only, so
    wrappers can hold references to them across :meth:`reset`.
    """

    def __init__(self, keep: int = 20_000,
                 clock: Callable[[], int] = time.perf_counter_ns):
        self.keep = keep
        self.clock = clock
        self.stack: List[list] = []
        self.acc: Dict[str, List[int]] = {}
        self.spans: List[Span] = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (the load window starts)."""
        self.stack.clear()
        for a in self.acc.values():
            a[0] = a[1] = a[2] = 0
        self.spans.clear()
        #: summed duration of spans with no parent (time inside any layer)
        self.top_ns = 0
        self.next_id = 0
        self.retaining = self.keep > 0

    def accumulator(self, name: str) -> List[int]:
        return self.acc.setdefault(name, [0, 0, 0])

    def retain(self, name: str, start: int, end: int, frame: list,
               parent: Optional[list]) -> None:
        self.spans.append((frame[1], name, start, end,
                           parent[1] if parent is not None else 0, frame[2]))
        if len(self.spans) >= self.keep:
            self.retaining = False

    @property
    def calls(self) -> Dict[str, int]:
        return {k: a[0] for k, a in self.acc.items() if a[0]}

    @property
    def self_ns(self) -> Dict[str, int]:
        return {k: a[2] for k, a in self.acc.items() if a[0]}

    def write(self, path) -> None:
        """Write the retained spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": list(op) if op else None}))
                fh.write("\n")


def self_times(spans: Iterable[Span]) -> Dict[str, int]:
    """Self time per span name from a list of span records.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (children are clipped to the parent's
    interval, and overlapping children count once).
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _sid, _name, start, end, parent, _op in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, int] = {}
    for sid, name, start, end, _parent, _op in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[name] = out.get(name, 0) + (end - start) - covered
    return out


# ----------------------------------------------------------------------
# op ids: the spans of one message share its (group, source, seq) key;
# a GIOP delivery is keyed by (connection's client group, request number)
# ----------------------------------------------------------------------
def _msg_op(msg) -> Optional[tuple]:
    h = msg.header
    if h.message_type == MessageType.REGULAR:
        return ("m", h.group, h.source, h.sequence_number)
    return None


def _op_from_msg_arg(args) -> Optional[tuple]:
    return _msg_op(args[-1])


def _op_from_arg1(args) -> Optional[tuple]:
    return _msg_op(args[1])


def _op_from_delivery(args) -> Optional[tuple]:
    d = args[1]
    return ("r", d.connection_id.client_group, d.request_num)


#: (owner, attribute, span name, op-id extractor): the public entry point
#: of each layer.  ``stack.py`` and ``datapath.py`` import the codec by
#: name, so the codec is patched at those import sites.
LAYER_SITES: Tuple[tuple, ...] = (
    (aio.AioEndpoint, "multicast", "aio.tx", None),
    (stack_mod, "decode", "wire.decode", None),
    (datapath, "decode", "wire.decode", None),
    (datapath, "encode", "wire.encode", _op_from_msg_arg),
    (stack_mod, "encode", "wire.encode", _op_from_msg_arg),
    (datapath.ReceivePath, "on_datagram", "datapath.rx", _op_from_arg1),
    (datapath.SendPath, "send", "datapath.tx", _op_from_arg1),
    (rmp.RMP, "on_message", "rmp", _op_from_msg_arg),
    (romp.ROMP, "receive", "romp.receive", _op_from_msg_arg),
    (romp.ROMP, "receive_heartbeat", "romp.receive", None),
    (romp.ROMP, "evaluate", "romp.evaluate", None),
    (buffers.RetransmissionBuffer, "collect", "buffers.collect", None),
    (pgmp.PGMP, "on_ordered", "pgmp", None),
    (pgmp.PGMP, "on_source_ordered", "pgmp", None),
    (pgmp.PGMP, "raise_suspicion", "pgmp", None),
    (pgmp.PGMP, "withdraw_suspicion", "pgmp", None),
    (datapath.ProcessorGroup, "install_fault_view", "pgmp", None),
    (connection.DuplicateDetector, "is_duplicate", "connection", None),
    (ftiop, "encode_giop", "giop.encode", None),
    (ftiop, "decode_giop", "giop.decode", None),
    (ftiop.FTMPAdapter, "invoke", "orb.invoke", None),
    (ftiop.FTMPAdapter, "on_deliver", "orb.deliver", _op_from_delivery),
)


class Patches:
    """Replace attributes on modules/classes; :meth:`restore` undoes all."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def make_wrapper(recorder: SpanRecorder, name: str, fn: Callable,
                 op_of: Optional[Callable] = None,
                 before: Optional[Callable] = None,
                 after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a span.  ``before(args)`` runs ahead of the span
    and ``after(args, result)`` behind it, so benchmark-side bookkeeping
    (stage timestamps, counts) never lands in a layer's self time."""
    clock = recorder.clock
    stack = recorder.stack
    acc = recorder.accumulator(name)

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        parent = stack[-1] if stack else None
        frame = [0, 0, None]
        if recorder.retaining:
            recorder.next_id += 1
            frame[1] = recorder.next_id
            op = op_of(args) if op_of is not None else None
            frame[2] = op if op is not None or parent is None else parent[2]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            dur = end - start
            if parent is None:
                recorder.top_ns += dur
            else:
                parent[0] += dur
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - frame[0]
            if frame[1]:
                recorder.retain(name, start, end, frame, parent)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def install(recorder: SpanRecorder, patches: Patches,
            sites: Iterable[tuple] = LAYER_SITES,
            hooks: Optional[Dict[str, Tuple[Optional[Callable], Optional[Callable]]]] = None
            ) -> None:
    """Wrap every site with a span; ``hooks`` maps a span name to extra
    ``(before, after)`` callbacks for the benchmark's own bookkeeping."""
    hooks = hooks or {}
    for owner, attr, name, op_of in sites:
        before, after = hooks.get(name, (None, None))
        patches.set(owner, attr, make_wrapper(
            recorder, name, vars(owner)[attr], op_of, before, after))


class StageSplit:
    """Per-(member, message) stage timestamps, recorded from outside.

    A message is keyed by ``(group, source, seq)``.  Four times make
    three stages: due -> first datagram seen at
    ``ReceivePath.on_datagram`` (send + wire), seen -> handed to
    ``ROMP.receive`` (the RMP gap/NACK wait), handed -> delivered at the
    listener (the ROMP ordering wait).  Entries live only while a
    message is in flight at a member.
    """

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self._open: Dict[tuple, list] = {}
        # arrays, not lists: the collector never traverses them
        self.wire = array("d")
        self.rmp_wait = array("d")
        self.romp_wait = array("d")
        self.end_to_end = array("d")

    def forget_in_flight(self) -> None:
        self._open.clear()

    def seen(self, member: int, key: tuple) -> None:
        k = (member,) + key
        if k not in self._open:
            self._open[k] = [self.clock(), None]

    def handed(self, member: int, key: tuple) -> None:
        entry = self._open.get((member,) + key)
        if entry is not None and entry[1] is None:
            entry[1] = self.clock()

    def delivered(self, member: int, key: tuple, due: Optional[float],
                  at: Optional[float] = None) -> None:
        entry = self._open.pop((member,) + key, None)
        if entry is None or entry[1] is None or due is None:
            return
        now = self.clock() if at is None else at
        seen, handed = entry
        self.wire.append(seen - due)
        self.rmp_wait.append(handed - seen)
        self.romp_wait.append(now - handed)
        self.end_to_end.append(now - due)

    def sum_error_frac(self) -> float:
        """How far the stage means miss the end-to-end mean (same samples)."""
        n = len(self.end_to_end)
        if not n:
            return 0.0
        e2e = sum(self.end_to_end) / n
        stages = (sum(self.wire) + sum(self.rmp_wait) + sum(self.romp_wait)) / n
        return abs(stages - e2e) / e2e if e2e else 0.0


def _regular_key(msg) -> Optional[tuple]:
    h = msg.header
    if h.message_type == MessageType.REGULAR:
        return (h.group, h.source, h.sequence_number)
    return None


class TraceSession:
    """Everything a traced run installs: spans, stage split and the
    counters measured at layer boundaries.

    The stream workloads' own listener reports deliveries (with the
    generator's due time) to ``stages``; with
    ``listener_is_adapter`` the delivery point is ``FTMPAdapter.on_deliver``
    and a message's due time is its send time at ``SendPath.send``.  The
    flow-control wait runs from ``ProcessorGroup.multicast`` to the
    message's ``SendPath.send``.
    """

    def __init__(self, clock: Callable[[], float], listener_is_adapter: bool = False):
        self.recorder = SpanRecorder()
        self.stages = StageSplit(clock)
        self.patches = Patches()
        self._clock = clock
        self._listener_is_adapter = listener_is_adapter
        #: first send time per message (the GIOP workload's due time)
        self._sent: Dict[tuple, float] = {}
        #: (id of the submitting group, payload) -> multicast call time
        self._submitted: Dict[tuple, float] = {}
        self._eval_before: List[int] = []
        self.flow_waits = array("d")
        self.evaluates_useful = 0
        self.buffer_max_bytes = 0
        self.giop_bytes = 0
        #: (pid, group, time, crash episode) of every fault-view install
        self.fault_views: List[Tuple[int, int, float, int]] = []
        self.crash_times: List[float] = []
        hooks = {
            "datapath.rx": (self._on_rx, None),
            "datapath.tx": (self._on_tx, None),
            "romp.receive": (self._on_romp_receive, None),
            "romp.evaluate": (self._eval_enter, self._eval_exit),
            "buffers.collect": (self._on_collect, None),
            "giop.encode": (None, self._on_giop_encoded),
        }
        if listener_is_adapter:
            hooks["orb.deliver"] = (self._on_adapter_deliver, None)
        self._hooks = hooks

    def __enter__(self) -> "TraceSession":
        install(self.recorder, self.patches, LAYER_SITES, self._hooks)
        # the fault-view install is timed as part of PGMP; its time stamp
        # is the crash -> view metric
        orig = vars(datapath.ProcessorGroup)["install_fault_view"]
        session = self

        def install_fault_view(group, *args, **kwargs):
            session.fault_views.append((group.pid, group.group_id, session._clock(),
                                        len(session.crash_times)))
            return orig(group, *args, **kwargs)

        self.patches.set(datapath.ProcessorGroup, "install_fault_view",
                         install_fault_view)
        multicast = vars(datapath.ProcessorGroup)["multicast"]

        def submit(group, payload, *args, **kwargs):
            session._submitted[(id(group), payload)] = session._clock()
            return multicast(group, payload, *args, **kwargs)

        self.patches.set(datapath.ProcessorGroup, "multicast", submit)
        return self

    def __exit__(self, *exc) -> None:
        self.patches.restore()

    def start_window(self) -> None:
        """Forget set-up traffic: aggregates cover the load window only."""
        self.recorder.reset()
        del self.flow_waits[:]
        self.fault_views.clear()
        self.evaluates_useful = 0
        self.buffer_max_bytes = 0
        self.giop_bytes = 0

    def forget_in_flight(self) -> None:
        """A new cluster starts: message keys restart from scratch."""
        self.stages.forget_in_flight()
        self._sent.clear()
        self._submitted.clear()

    # -- hooks (run outside the spans) ----------------------------------
    def _on_rx(self, args) -> None:
        msg = args[1]
        key = _regular_key(msg)
        if key is not None:
            self.stages.seen(args[0]._g.pid, key)

    def _on_tx(self, args) -> None:
        msg = args[1]
        key = _regular_key(msg)
        if key is None:
            return
        now = self._clock()
        if self._listener_is_adapter:
            self._sent.setdefault(key, now)
        submitted = self._submitted.pop((id(args[0]._ctx), msg.payload), None)
        if submitted is not None:
            self.flow_waits.append(now - submitted)

    def _on_romp_receive(self, args) -> None:
        key = _regular_key(args[1])
        if key is not None:
            self.stages.handed(args[0]._g.pid, key)

    def _eval_enter(self, args) -> None:
        self._eval_before.append(args[0].stats.ordered_deliveries)

    def _eval_exit(self, args, _result) -> None:
        if args[0].stats.ordered_deliveries > self._eval_before.pop():
            self.evaluates_useful += 1

    def _on_collect(self, args) -> None:
        b = args[0].bytes
        if b > self.buffer_max_bytes:
            self.buffer_max_bytes = b

    def _on_giop_encoded(self, _args, result) -> None:
        self.giop_bytes += len(result)

    def _on_adapter_deliver(self, args) -> None:
        d = args[1]
        key = (d.group, d.source, d.sequence_number)
        self.stages.delivered(args[0].stack.pid, key, self._sent.get(key))
