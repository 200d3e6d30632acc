"""Discrete-event simulator of an L4S dual-queue coupled AQM bottleneck.

Synthetic window/CBR flows feed a router with a Classic and an L4S queue.
A PI controller driven by the larger of the two queue delays produces a base
probability p'; the L4S queue marks with min(k*p', 1) plus a step threshold,
the Classic queue drops (or classic-marks) with p'^2.  Every AQM decision
emits one 24-field kernel-style log record.

All times are integer microseconds; the event loop is single-threaded and
fully deterministic for a given (config, seed).
"""

from __future__ import annotations

import dataclasses
import json
import random
import warnings
from collections import deque
from heapq import heappop, heappush
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .features import ACTION_DROP, ACTION_ENQUEUE, ACTION_MARK

PROB_SCALE = 1_000_000          # probabilities logged as fixed-point x1e6
GAIN_SCALE = 1_000_000_000_000  # alpha/beta (per-us) logged as fixed-point x1e12


class SimulationFault(RuntimeError):
    """Internal contract violation (event-time regression, negative delay)."""


class KlogParseError(ValueError):
    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class Ecn(IntEnum):
    NON_ECT = 0
    ECT1 = 1
    ECT0 = 2
    CE = 3


class QueueClass(IntEnum):
    CLASSIC = 0
    L4S = 1


# Enum members read through their class cost a class-attribute lookup each
# time; the per-packet paths read these module constants instead.
_NON_ECT, _ECT1, _CE = Ecn.NON_ECT, Ecn.ECT1, Ecn.CE
_CLASSIC, _L4S = QueueClass.CLASSIC, QueueClass.L4S


@dataclass(slots=True)
class Packet:
    flow_id: int
    size_bytes: int
    ecn_codepoint: Ecn
    enqueue_time: int = 0
    queue_class: QueueClass = QueueClass.CLASSIC

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be > 0")

    @property
    def ecn_capable(self):
        return self.ecn_codepoint != _NON_ECT


@dataclass
class Dualpi2Params:
    qdelay_target: int = 15_000          # us
    tupdate: int = 16_000                # us
    alpha: float = 2e-7                  # probability per us of delay error
    beta: float = 2e-6                   # probability per us of delay slope
    max_burst: int = 150_000             # us
    max_ecn_threshold: int = 1_000       # us, L4S step-mark threshold
    coupling_factor_k: float = 2.0
    link_rate_bps: int = 8_000_000
    link_delay: int = 10_000             # us, one-way propagation
    buffer_limit_bytes: int = 200_000

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.coupling_factor_k < 1:
            raise ValueError("coupling_factor_k must be >= 1")
        # tupdate is the controller's period: at 0 its event reschedules at
        # the same instant and the event loop never advances
        for name in ("qdelay_target", "tupdate", "link_rate_bps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class QueueState:
    queue_type: QueueClass
    burst_allowance: int = 0             # us
    drop_probability: float = 0.0        # base p' in [0,1]
    current_queue_delay: int = 0         # us
    previous_queue_delay: int = 0        # us
    accumulated_probability: float = 0.0
    length_bytes: int = 0
    length_packets: int = 0
    total_packets: int = 0
    total_bytes: int = 0
    total_drops: int = 0
    avg_dequeue_time: int = 0            # us, EWMA of service times
    dequeue_count: int = 0
    measurement_start_time: int = 0
    status_flags: int = 0


VALID_ACTIONS = (ACTION_ENQUEUE, ACTION_DROP, ACTION_MARK)
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


class KernelLogRecord(NamedTuple):
    """One AQM decision-point snapshot; 24 integer fields in fixed order.

    A plain tuple underneath, so a list of records converts to an int64
    [N, 24] column matrix in one `np.array` call.
    """
    queue_type: int
    qdelay_reference: int
    tupdate: int
    max_burst: int
    max_ecn_threshold: int
    alpha_coefficient: int
    beta_coefficient: int
    flags: int
    burst_allowance: int
    drop_probability: int
    current_queue_delay: int
    previous_queue_delay: int
    accumulated_probability: int
    measurement_start_time: int
    average_dequeue_time: int
    dequeue_count: int
    status_flags: int
    total_packets: int
    total_bytes: int
    queue_length: int
    length_in_bytes: int
    total_drops: int
    packet_length: int
    dequeue_action: int


KLOG_FIELDS = KernelLogRecord._fields
_KLOG_LINE = " ".join(["%d"] * len(KLOG_FIELDS))


def emit_log(record: KernelLogRecord) -> str:
    return _KLOG_LINE % record


def parse_log(line: str, line_number: int = 0) -> KernelLogRecord:
    tokens = line.split()
    if len(tokens) != len(KLOG_FIELDS):
        raise KlogParseError(
            f"expected {len(KLOG_FIELDS)} fields, got {len(tokens)}", line_number)
    values = []
    for name, tok in zip(KLOG_FIELDS, tokens):
        try:
            value = int(tok)
        except ValueError:
            raise KlogParseError(f"non-numeric token {tok!r} in field {name}", line_number) from None
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise KlogParseError(f"token {tok!r} in field {name} is beyond int64", line_number)
        values.append(value)
    if values[-1] not in VALID_ACTIONS:
        raise KlogParseError(f"dequeue_action must be 0/1/2, got {values[-1]}", line_number)
    return KernelLogRecord._make(values)


def write_klog(records, path):
    text = "\n".join(map(emit_log, records))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n" if text else "")


def read_klog_columns(path) -> np.ndarray:
    """The log as an int64 [N, 24] matrix, one row per non-blank line.

    The fast path is numpy's C text parser.  A log it does not take whole,
    or takes with a warning, goes through `parse_log` line by line instead:
    that returns `parse_log`'s rows or raises its error, which names the line.
    So the result is always the one `parse_log` gives, though `int()` takes
    tokens the C parser does not (`1_0`, non-ASCII digits), and an empty log
    is just a log with no rows.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError, Warning):
        cols = None
    if (cols is None or cols.shape[1] != len(KLOG_FIELDS)
            or not np.isin(cols[:, -1], VALID_ACTIONS).all()):
        rows = [parse_log(line, i) for i, line in enumerate(lines, start=1) if line.strip()]
        cols = np.array(rows, dtype=np.int64).reshape(-1, len(KLOG_FIELDS))
    return cols


def read_klog(path):
    return [KernelLogRecord._make(row) for row in read_klog_columns(path).tolist()]


# ------------------------------------------------------------------ AQM core


def pi_update(q: QueueState, params: Dualpi2Params, now: int) -> QueueState:
    """One PI controller step: p' += alpha*(delay-target) + beta*(delay-prev).

    Returns the stepped state; q itself is left as it was."""
    out = replace(q)
    _pi_step(out, params, now)
    return out


def _pi_step(q: QueueState, params: Dualpi2Params, now: int):
    """pi_update in place, for a state its caller owns."""
    if q.current_queue_delay < 0 or q.previous_queue_delay < 0:
        raise SimulationFault("negative queue delay in pi_update")
    p = (q.drop_probability
         + params.alpha * (q.current_queue_delay - params.qdelay_target)
         + params.beta * (q.current_queue_delay - q.previous_queue_delay))
    q.drop_probability = min(1.0, max(0.0, p))
    q.previous_queue_delay = q.current_queue_delay
    q.measurement_start_time = now


def classify_packet(p: Packet) -> QueueClass:
    """ECT(1) traffic (and router-set CE on L4S flows) goes to the L4S queue."""
    ecn = p.ecn_codepoint
    if ecn == _ECT1 or (ecn == _CE and p.queue_class == _L4S):
        return _L4S
    return _CLASSIC


class Decision(NamedTuple):
    action: int
    cause: str


# every Decision aqm_decision can return, built once
_BUFFER_FULL = Decision(ACTION_DROP, "buffer_full")
_BURST = Decision(ACTION_ENQUEUE, "burst")
_STEP_MARK = Decision(ACTION_MARK, "step_threshold")
_COUPLED_MARK, _COUPLED_DROP = Decision(ACTION_MARK, "coupled"), Decision(ACTION_DROP, "coupled")
_SQUARED_MARK, _SQUARED_DROP = Decision(ACTION_MARK, "squared"), Decision(ACTION_DROP, "squared")
_OK = Decision(ACTION_ENQUEUE, "ok")


def aqm_decision(q: QueueState, p: Packet, params: Dualpi2Params, rng_draw: float) -> Decision:
    """Pick enqueue/drop/mark for one packet against queue state q.

    q.drop_probability is the coupled base probability p'; L4S marks with
    min(k*p', 1) plus the step threshold, Classic drops with p'^2 (marks
    instead when the packet is classic-ECN capable).  A positive burst
    allowance suppresses drop/mark; a full buffer forces a drop.
    """
    if q.length_bytes + p.size_bytes > params.buffer_limit_bytes:
        return _BUFFER_FULL
    if q.burst_allowance > 0:
        return _BURST
    if q.queue_type == _L4S:
        if p.ecn_capable and q.current_queue_delay > params.max_ecn_threshold:
            return _STEP_MARK
        p_mark = min(params.coupling_factor_k * q.drop_probability, 1.0)
        if rng_draw < p_mark:
            return _COUPLED_MARK if p.ecn_capable else _COUPLED_DROP
    else:
        p_drop = q.drop_probability * q.drop_probability
        if rng_draw < p_drop:
            return _SQUARED_MARK if p.ecn_capable else _SQUARED_DROP
    return _OK


# ----------------------------------------------------------------- flow model


class FlowKind(IntEnum):
    AIMD_RENO = 0
    CUBIC_LIKE = 1
    DCTCP_LIKE = 2
    CBR_UDP = 3


_AIMD_RENO, _CUBIC_LIKE, _DCTCP_LIKE, _CBR_UDP = FlowKind
_WINDOW_KINDS = (_AIMD_RENO, _CUBIC_LIKE, _DCTCP_LIKE)


@dataclass
class FlowSpec:
    kind: FlowKind
    mss: int = 1500
    rtt_us: int = 20_000
    ecn_capable: bool = True
    start_us: int = 0
    cbr_rate_bps: int = 4_000_000    # CBR only
    initial_cwnd_packets: int = 4

    def __post_init__(self):
        # each is a divisor of a send gap or the period of an event (a window
        # flow's RTT tick, a congestion signal's delay): a value <= 0 would
        # divide by zero or stall or rewind the event loop
        for name in ("mss", "rtt_us",
                     "cbr_rate_bps" if self.kind == _CBR_UDP else "initial_cwnd_packets"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        # the first send is scheduled at start_us: before 0 it would rewind
        # the event loop
        if self.start_us < 0:
            raise ValueError("start_us must be >= 0")

    def codepoint(self) -> Ecn:
        if self.kind == _DCTCP_LIKE or self.kind == _CBR_UDP:
            return _ECT1
        return Ecn.ECT0 if self.ecn_capable else _NON_ECT


class _Flow:
    """Closed-form deterministic flow dynamics; not a real TCP state machine.

    What does not change over a run is read from the spec once: the packet
    size, codepoint and queue class, the RTT and, for CBR, the send gap.
    """

    def __init__(self, flow_id: int, spec: FlowSpec):
        self.id = flow_id
        self.spec = spec
        self.kind = spec.kind
        self.mss = spec.mss
        self.rtt_us = spec.rtt_us
        self.codepoint = spec.codepoint()
        self.queue_class = classify_packet(Packet(flow_id, spec.mss, self.codepoint))
        self.is_window_based = spec.kind in _WINDOW_KINDS
        self._cbr_gap = (max(1, round(spec.mss * 8 * 1_000_000 / spec.cbr_rate_bps))
                         if spec.kind == _CBR_UDP else None)
        self._mss_rtt = spec.mss * spec.rtt_us
        self.cwnd = float(spec.initial_cwnd_packets * spec.mss)
        self.recovery_until = -1
        self.sent_in_rtt = 0
        self.marked_in_rtt = 0

    def send_gap_us(self) -> int:
        if self._cbr_gap is not None:
            return self._cbr_gap
        return max(1, round(self._mss_rtt / self.cwnd))

    def on_rtt_tick(self):
        if self.kind == _AIMD_RENO:
            self.cwnd += self.mss
        elif self.kind == _CUBIC_LIKE:
            self.cwnd += 1.5 * self.mss
        elif self.kind == _DCTCP_LIKE:
            self.cwnd += self.mss
        self.sent_in_rtt = 0
        self.marked_in_rtt = 0

    def on_congestion(self, now: int, was_drop: bool):
        if not self.is_window_based or now < self.recovery_until:
            return
        if self.kind == _DCTCP_LIKE and not was_drop:
            sent = max(1, self.sent_in_rtt)
            frac = min(1.0, self.marked_in_rtt / sent)
            self.cwnd *= (1.0 - 0.5 * max(frac, 0.125))
        else:
            self.cwnd *= 0.5
        self.cwnd = max(float(self.mss), self.cwnd)
        self.recovery_until = now + self.rtt_us


# ------------------------------------------------------------------ scenarios


@dataclass
class ScenarioConfig:
    name: str = "default"
    seed: int = 1
    duration_us: int = 60_000_000
    aqm: Dualpi2Params = field(default_factory=Dualpi2Params)
    flows: list = field(default_factory=list)

    def __post_init__(self):
        # a run of no time simulates nothing and writes an empty log
        if self.duration_us <= 0:
            raise ValueError("duration_us must be > 0")

    def to_dict(self):
        return {
            "name": self.name,
            "seed": self.seed,
            "duration_us": self.duration_us,
            "aqm": dataclasses.asdict(self.aqm),
            "flows": [
                {**dataclasses.asdict(f), "kind": f.kind.name.lower()}
                for f in self.flows
            ],
        }

    @classmethod
    def from_dict(cls, d):
        aqm = Dualpi2Params(**d.get("aqm", {}))
        flows = []
        for fd in d.get("flows", []):
            fd = dict(fd)
            kind = fd.pop("kind")
            if isinstance(kind, str):
                kind = FlowKind[kind.upper()]
            flows.append(FlowSpec(kind=FlowKind(kind), **fd))
        return cls(name=d.get("name", "default"), seed=d.get("seed", 1),
                   duration_us=d.get("duration_us", 60_000_000), aqm=aqm, flows=flows)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def default_scenario(seed=1, duration_us=60_000_000):
    """8 Mbps / 10 ms bottleneck, two 2-flow loss-based connections + one L4S flow."""
    return ScenarioConfig(
        seed=seed,
        duration_us=duration_us,
        aqm=Dualpi2Params(),
        flows=[
            FlowSpec(FlowKind.CUBIC_LIKE, ecn_capable=False),
            FlowSpec(FlowKind.CUBIC_LIKE, ecn_capable=False, start_us=100_000),
            FlowSpec(FlowKind.AIMD_RENO, ecn_capable=True, start_us=50_000),
            FlowSpec(FlowKind.AIMD_RENO, ecn_capable=True, start_us=150_000),
            FlowSpec(FlowKind.DCTCP_LIKE, start_us=200_000),
        ],
    )


# ---------------------------------------------------------------- world/event


def _fixed_probs(q: QueueState):
    """p' and the accumulated probability as the log's 1e-6 fixed point."""
    return round(q.drop_probability * PROB_SCALE), round(q.accumulated_probability * PROB_SCALE)


class World:
    """One simulation instance.  Not shareable across threads.

    `decision_hook(world, queue, packet, rule_decision) -> action` lets an
    external policy override the rule-based action at decision points; the
    hook sees the same queue snapshot the log records.  The world alone
    decides what it carries out of a hook's answer (`_applied_action`) and
    logs that, right after the hook returns.  The world owns its
    queue states: p' and the accumulated probability change only at
    Tupdate, and both queues hold the same pair, since the coupled queues
    read one base probability.  `klog_probs` is that pair in the log's 1e-6
    fixed point, computed at start-up and at each Tupdate: every record,
    of either queue, logs it, and a hook reads it there.
    """

    def __init__(self, config: ScenarioConfig,
                 decision_hook: Optional[Callable] = None):
        self.config = config
        self.params = config.aqm
        self.rng = random.Random(config.seed)
        self.now = 0
        self._seq = 0
        self._heap = []
        self.decision_hook = decision_hook

        p = self.params
        self.queues = {
            _CLASSIC: QueueState(_CLASSIC, burst_allowance=p.max_burst),
            _L4S: QueueState(_L4S, burst_allowance=p.max_burst),
        }
        self._buffers = {_CLASSIC: deque(), _L4S: deque()}
        # Hidden controller state fed with max(classic delay, l4s delay); its
        # p' is mirrored into both queue states as the shared base probability.
        self._ctrl = QueueState(_CLASSIC)
        self.link_busy = False

        self.flows = [_Flow(i, s) for i, s in enumerate(config.flows)]
        self.records: list[KernelLogRecord] = []
        # fields 0-7 of a record from each queue: the queue type, then the AQM
        # parameters with the gains in fixed point
        klog_params = (p.qdelay_target, p.tupdate, p.max_burst, p.max_ecn_threshold,
                       int(round(p.alpha * GAIN_SCALE)), int(round(p.beta * GAIN_SCALE)), 0)
        self._klog_head = {qc: (int(qc), *klog_params) for qc in QueueClass}
        # fields 9 and 12 of every record, set at Tupdate
        self.klog_probs = _fixed_probs(self.queues[_CLASSIC])
        self._service_us = {}      # packet size -> link service time

        # Measurement series
        self.qdelay_samples = []   # (time_us, queue_type, delay_us)
        self.delivered = []        # (time_us, bytes)
        self.enqueued_bytes = {qc: 0 for qc in QueueClass}
        self.dropped_bytes = {qc: 0 for qc in QueueClass}
        self.dequeued_bytes = {qc: 0 for qc in QueueClass}
        # hook answers _applied_action turned into a DROP, by cause
        self.rewritten = {"buffer_full": 0, "not_ecn_capable": 0}

        for fl in self.flows:
            self._schedule(fl.spec.start_us, self._flow_send, fl)
            if fl.is_window_based:
                self._schedule(fl.spec.start_us + fl.rtt_us, self._flow_tick, fl)
        self._schedule(self.params.tupdate, self._tupdate)

    # ---------------------------------------------------------------- events

    def _schedule(self, t, fn, *args):
        if t < self.now:
            raise SimulationFault(f"event scheduled in the past: {t} < {self.now}")
        self._seq += 1
        heappush(self._heap, (t, self._seq, fn, args))

    def run(self):
        end = self.config.duration_us
        heap = self._heap
        while heap:
            t, _, fn, args = heappop(heap)
            if t > end:
                break
            if t < self.now:
                raise SimulationFault("event-time regression")
            self.now = t
            fn(*args)
        # the pending events hold bound methods of this world; dropping them
        # lets reference counting free a finished world
        heap.clear()
        return self

    # ----------------------------------------------------------------- flows

    def _flow_send(self, fl: _Flow):
        now = self.now
        pkt = Packet(fl.id, fl.mss, fl.codepoint, now, fl.queue_class)
        fl.sent_in_rtt += 1
        self._router_arrival(pkt, fl)
        self._schedule(now + fl.send_gap_us(), self._flow_send, fl)

    def _flow_tick(self, fl: _Flow):
        fl.on_rtt_tick()
        self._schedule(self.now + fl.rtt_us, self._flow_tick, fl)

    def _flow_signal(self, fl: _Flow, was_drop: bool):
        if not was_drop:
            fl.marked_in_rtt += 1
        fl.on_congestion(self.now, was_drop)

    # ---------------------------------------------------------------- router

    def _est_delay_us(self, q: QueueState) -> int:
        return int(q.length_bytes * 8 * 1_000_000 / self.params.link_rate_bps)

    def _applied_action(self, action, q: QueueState, pkt: Packet) -> int:
        """The action the world carries out when its decision hook answers
        `action`, and the one place a hook's answer is checked.  An answer
        outside 0/1/2 raises; a packet the buffer cannot hold is dropped,
        whatever the hook asked; a not-ECN-capable packet cannot be marked,
        so MARK becomes DROP.  `rewritten` counts the answers changed, by
        cause; the buffer is checked first."""
        if action not in VALID_ACTIONS:
            raise ValueError(f"dequeue_action must be 0/1/2, got {action}")
        if action != ACTION_DROP:
            if q.length_bytes + pkt.size_bytes > self.params.buffer_limit_bytes:
                self.rewritten["buffer_full"] += 1
                return ACTION_DROP
            if action == ACTION_MARK and not pkt.ecn_capable:
                self.rewritten["not_ecn_capable"] += 1
                return ACTION_DROP
        return action

    def _router_arrival(self, pkt: Packet, fl: _Flow):
        # the flow's queue class, set when the flow was built: no CE packet
        # reaches the router, so the class is fixed per flow
        qc = pkt.queue_class
        q = self.queues[qc]
        size = pkt.size_bytes
        q.current_queue_delay = self._est_delay_us(q)

        decision = aqm_decision(q, pkt, self.params, self.rng.random())
        action = decision.action
        if self.decision_hook is not None:
            action = self._applied_action(self.decision_hook(self, q, pkt, decision), q, pkt)
        # logged right after the hook: a hook reads its decision's index as
        # len(world.records) and the earlier decisions' applied actions from them
        self._emit_record(q, pkt, action)

        q.total_packets += 1
        q.total_bytes += size
        if action == ACTION_DROP:
            q.total_drops += 1
            self.dropped_bytes[qc] += size
            self._schedule(self.now + fl.rtt_us, self._flow_signal, fl, True)
            return
        if action == ACTION_MARK:
            pkt.ecn_codepoint = _CE
            self._schedule(self.now + fl.rtt_us, self._flow_signal, fl, False)
        q.length_bytes += size
        q.length_packets += 1
        self.enqueued_bytes[qc] += size
        self._buffers[qc].append(pkt)
        if not self.link_busy:
            self._start_service()

    def _start_service(self):
        """Put the head packet on the idle link, L4S first."""
        buffers = self._buffers
        if buffers[_L4S]:
            qc = _L4S
        elif buffers[_CLASSIC]:
            qc = _CLASSIC
        else:
            return
        pkt = buffers[qc].popleft()
        size = pkt.size_bytes
        q = self.queues[qc]
        q.length_bytes -= size
        q.length_packets -= 1
        self.dequeued_bytes[qc] += size
        service = self._service_us.get(size)
        if service is None:
            service = self._service_us[size] = max(
                1, round(size * 8 * 1_000_000 / self.params.link_rate_bps))
        self.link_busy = True
        self._schedule(self.now + service, self._service_done, pkt, q, service)

    def _service_done(self, pkt: Packet, q: QueueState, service: int):
        now = self.now
        self.qdelay_samples.append((now, int(q.queue_type), now - pkt.enqueue_time))
        q.dequeue_count += 1
        q.avg_dequeue_time = (service if q.dequeue_count == 1
                              else (7 * q.avg_dequeue_time + service) // 8)
        self.delivered.append((now + self.params.link_delay, pkt.size_bytes))
        self.link_busy = False
        self._start_service()

    # ------------------------------------------------------------- controller

    def _tupdate(self):
        p = self.params
        queues = self.queues.values()
        for q in queues:
            q.current_queue_delay = self._est_delay_us(q)
            q.burst_allowance = max(0, q.burst_allowance - p.tupdate)
        # the controller state is this world's own, so it steps in place
        ctrl = self._ctrl
        ctrl.current_queue_delay = max(q.current_queue_delay for q in queues)
        _pi_step(ctrl, p, self.now)
        base = ctrl.drop_probability
        for q in queues:
            q.drop_probability = base
            q.previous_queue_delay = q.current_queue_delay
            q.accumulated_probability = min(q.accumulated_probability + base, 1e6)
            q.measurement_start_time = self.now
        self.klog_probs = _fixed_probs(q)   # the last queue's pair, which both hold
        self._schedule(self.now + p.tupdate, self._tupdate)

    # ---------------------------------------------------------------- logging

    def _emit_record(self, q: QueueState, pkt: Packet, action: int):
        drop_p, acc_p = self.klog_probs
        # tuple.__new__ skips the named tuple's per-field argument binding
        self.records.append(tuple.__new__(KernelLogRecord, (
            *self._klog_head[q.queue_type],
            q.burst_allowance,
            drop_p,                     # drop_probability
            q.current_queue_delay,
            q.previous_queue_delay,
            acc_p,                      # accumulated_probability
            q.measurement_start_time,
            q.avg_dequeue_time,         # average_dequeue_time
            q.dequeue_count,
            q.status_flags,
            q.total_packets,
            q.total_bytes,
            q.length_packets,           # queue_length
            q.length_bytes,             # length_in_bytes
            q.total_drops,
            pkt.size_bytes,             # packet_length
            action,
        )))

    # ------------------------------------------------------------- invariants

    def check_conservation(self):
        for qc in QueueClass:
            q = self.queues[qc]
            # total_bytes counts every arrival, dropped or enqueued
            assert q.total_bytes == self.enqueued_bytes[qc] + self.dropped_bytes[qc], \
                f"byte conservation violated in {qc.name} queue"
            assert self.dequeued_bytes[qc] <= self.enqueued_bytes[qc]
            assert q.length_bytes == self.enqueued_bytes[qc] - self.dequeued_bytes[qc]
            assert 0.0 <= q.drop_probability <= 1.0


def run_scenario(config: ScenarioConfig, decision_hook=None) -> World:
    world = World(config, decision_hook=decision_hook)
    world.run()
    world.check_conservation()
    return world
