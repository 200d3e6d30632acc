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
import heapq
import json
import random
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


@dataclass
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
        return self.ecn_codepoint != Ecn.NON_ECT


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
        if self.qdelay_target <= 0 or self.link_rate_bps <= 0:
            raise ValueError("qdelay_target and link_rate_bps must be > 0")


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


class _KlogRow(NamedTuple):
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


class KernelLogRecord(_KlogRow):
    """One AQM decision-point snapshot; 24 integer fields in fixed order.

    A plain tuple underneath, so a list of records converts to an int64
    [N, 24] column matrix in one `np.array` call.  The constructor checks the
    action; `_make` and `tuple.__new__` skip that check for rows that are
    already validated.
    """
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.dequeue_action not in VALID_ACTIONS:
            raise ValueError(f"dequeue_action must be 0/1/2, got {self.dequeue_action}")
        return self


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

    The fast path converts every line's tokens in one `np.array` call; any
    line it cannot take (ragged, non-numeric, beyond int64, bad action) sends
    the log through `parse_log`, whose error names the line.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    rows = [tokens for tokens in map(str.split, lines) if tokens]
    if not rows:
        return np.empty((0, len(KLOG_FIELDS)), dtype=np.int64)
    try:
        cols = np.array(rows, dtype=np.int64)
    except (ValueError, OverflowError):
        cols = None
    if (cols is None or cols.shape[1] != len(KLOG_FIELDS)
            or not np.isin(cols[:, -1], VALID_ACTIONS).all()):
        for i, line in enumerate(lines, start=1):
            if line.strip():
                parse_log(line, i)
        raise KlogParseError("log does not convert to int64 columns", 0)
    return cols


def read_klog(path):
    return [KernelLogRecord._make(row) for row in read_klog_columns(path).tolist()]


# ------------------------------------------------------------------ AQM core


def pi_update(q: QueueState, params: Dualpi2Params, now: int) -> QueueState:
    """One PI controller step: p' += alpha*(delay-target) + beta*(delay-prev)."""
    if q.current_queue_delay < 0 or q.previous_queue_delay < 0:
        raise SimulationFault("negative queue delay in pi_update")
    p = (q.drop_probability
         + params.alpha * (q.current_queue_delay - params.qdelay_target)
         + params.beta * (q.current_queue_delay - q.previous_queue_delay))
    p = min(1.0, max(0.0, p))
    return replace(q, drop_probability=p,
                   previous_queue_delay=q.current_queue_delay,
                   measurement_start_time=now)


def classify_packet(p: Packet) -> QueueClass:
    """ECT(1) traffic (and router-set CE on L4S flows) goes to the L4S queue."""
    if p.ecn_codepoint == Ecn.ECT1:
        return QueueClass.L4S
    if p.ecn_codepoint == Ecn.CE and p.queue_class == QueueClass.L4S:
        return QueueClass.L4S
    return QueueClass.CLASSIC


class Decision(NamedTuple):
    action: int
    cause: str


def aqm_decision(q: QueueState, p: Packet, params: Dualpi2Params, rng_draw: float) -> Decision:
    """Pick enqueue/drop/mark for one packet against queue state q.

    q.drop_probability is the coupled base probability p'; L4S marks with
    min(k*p', 1) plus the step threshold, Classic drops with p'^2 (marks
    instead when the packet is classic-ECN capable).  A positive burst
    allowance suppresses drop/mark; a full buffer forces a drop.
    """
    if q.length_bytes + p.size_bytes > params.buffer_limit_bytes:
        return Decision(ACTION_DROP, "buffer_full")
    if q.burst_allowance > 0:
        return Decision(ACTION_ENQUEUE, "burst")
    if q.queue_type == QueueClass.L4S:
        if p.ecn_capable and q.current_queue_delay > params.max_ecn_threshold:
            return Decision(ACTION_MARK, "step_threshold")
        p_mark = min(params.coupling_factor_k * q.drop_probability, 1.0)
        if rng_draw < p_mark:
            if p.ecn_capable:
                return Decision(ACTION_MARK, "coupled")
            return Decision(ACTION_DROP, "coupled")
    else:
        p_drop = q.drop_probability * q.drop_probability
        if rng_draw < p_drop:
            if p.ecn_capable:
                return Decision(ACTION_MARK, "squared")
            return Decision(ACTION_DROP, "squared")
    return Decision(ACTION_ENQUEUE, "ok")


def applied_action(action: int, p: Packet) -> int:
    """The action the world carries out when a decision hook asks for
    `action`: a not-ECN-capable packet cannot be marked, so MARK becomes DROP."""
    if action == ACTION_MARK and not p.ecn_capable:
        return ACTION_DROP
    return action


# ----------------------------------------------------------------- flow model


class FlowKind(IntEnum):
    AIMD_RENO = 0
    CUBIC_LIKE = 1
    DCTCP_LIKE = 2
    CBR_UDP = 3


_WINDOW_KINDS = (FlowKind.AIMD_RENO, FlowKind.CUBIC_LIKE, FlowKind.DCTCP_LIKE)


@dataclass
class FlowSpec:
    kind: FlowKind
    mss: int = 1500
    rtt_us: int = 20_000
    ecn_capable: bool = True
    start_us: int = 0
    cbr_rate_bps: int = 4_000_000    # CBR only
    initial_cwnd_packets: int = 4

    def codepoint(self) -> Ecn:
        if self.kind in (FlowKind.DCTCP_LIKE, FlowKind.CBR_UDP):
            return Ecn.ECT1
        return Ecn.ECT0 if self.ecn_capable else Ecn.NON_ECT


class _Flow:
    """Closed-form deterministic flow dynamics; not a real TCP state machine."""

    def __init__(self, flow_id: int, spec: FlowSpec):
        self.id = flow_id
        self.spec = spec
        self.cwnd = float(spec.initial_cwnd_packets * spec.mss)
        self.recovery_until = -1
        self.sent_in_rtt = 0
        self.marked_in_rtt = 0

    @property
    def is_window_based(self):
        return self.spec.kind in _WINDOW_KINDS

    def send_gap_us(self) -> int:
        s = self.spec
        if s.kind == FlowKind.CBR_UDP:
            gap = s.mss * 8 * 1_000_000 / s.cbr_rate_bps
        else:
            gap = s.mss * s.rtt_us / self.cwnd
        return max(1, int(round(gap)))

    def on_rtt_tick(self):
        if self.spec.kind == FlowKind.AIMD_RENO:
            self.cwnd += self.spec.mss
        elif self.spec.kind == FlowKind.CUBIC_LIKE:
            self.cwnd += 1.5 * self.spec.mss
        elif self.spec.kind == FlowKind.DCTCP_LIKE:
            self.cwnd += self.spec.mss
        self.sent_in_rtt = 0
        self.marked_in_rtt = 0

    def on_congestion(self, now: int, was_drop: bool):
        if not self.is_window_based or now < self.recovery_until:
            return
        if self.spec.kind == FlowKind.DCTCP_LIKE and not was_drop:
            sent = max(1, self.sent_in_rtt)
            frac = min(1.0, self.marked_in_rtt / sent)
            self.cwnd *= (1.0 - 0.5 * max(frac, 0.125))
        else:
            self.cwnd *= 0.5
        self.cwnd = max(float(self.spec.mss), self.cwnd)
        self.recovery_until = now + self.spec.rtt_us


# ------------------------------------------------------------------ scenarios


@dataclass
class ScenarioConfig:
    name: str = "default"
    seed: int = 1
    duration_us: int = 60_000_000
    aqm: Dualpi2Params = field(default_factory=Dualpi2Params)
    flows: list = field(default_factory=list)

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


class World:
    """One simulation instance.  Not shareable across threads.

    `decision_hook(world, queue, packet, rule_decision) -> action` lets an
    external policy override the rule-based action at decision points; the
    hook sees the same queue snapshot the log records.
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
            QueueClass.CLASSIC: QueueState(QueueClass.CLASSIC, burst_allowance=p.max_burst),
            QueueClass.L4S: QueueState(QueueClass.L4S, burst_allowance=p.max_burst),
        }
        self._buffers = {QueueClass.CLASSIC: [], QueueClass.L4S: []}
        # Hidden controller state fed with max(classic delay, l4s delay); its
        # p' is mirrored into both queue states as the shared base probability.
        self._ctrl = QueueState(QueueClass.CLASSIC)
        self.link_busy = False

        self.flows = [_Flow(i, s) for i, s in enumerate(config.flows)]
        self.records: list[KernelLogRecord] = []
        # fields 1-7 of every record: the AQM parameters, gains in fixed point
        self._klog_params = (p.qdelay_target, p.tupdate, p.max_burst, p.max_ecn_threshold,
                             int(round(p.alpha * GAIN_SCALE)),
                             int(round(p.beta * GAIN_SCALE)), 0)
        self.decision_meta: list[tuple] = []   # (time_us, queue_type, cause)

        # Measurement series
        self.qdelay_samples = []   # (time_us, queue_type, delay_us)
        self.delivered = []        # (time_us, bytes)
        self.arrived_bytes = {qc: 0 for qc in QueueClass}
        self.enqueued_bytes = {qc: 0 for qc in QueueClass}
        self.dropped_bytes = {qc: 0 for qc in QueueClass}
        self.dequeued_bytes = {qc: 0 for qc in QueueClass}

        for fl in self.flows:
            self._schedule(fl.spec.start_us, self._flow_send, fl)
            if fl.is_window_based:
                self._schedule(fl.spec.start_us + fl.spec.rtt_us, self._flow_tick, fl)
        self._schedule(self.params.tupdate, self._tupdate)

    # ---------------------------------------------------------------- events

    def _schedule(self, t, fn, *args):
        if t < self.now:
            raise SimulationFault(f"event scheduled in the past: {t} < {self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn, args))

    def run(self):
        end = self.config.duration_us
        while self._heap:
            t, _, fn, args = heapq.heappop(self._heap)
            if t > end:
                break
            if t < self.now:
                raise SimulationFault("event-time regression")
            self.now = t
            fn(*args)
        # the pending events hold bound methods of this world; dropping them
        # lets reference counting free a finished world
        self._heap.clear()
        return self

    # ----------------------------------------------------------------- flows

    def _flow_send(self, fl: _Flow):
        pkt = Packet(flow_id=fl.id, size_bytes=fl.spec.mss,
                     ecn_codepoint=fl.spec.codepoint(), enqueue_time=self.now)
        if pkt.ecn_codepoint == Ecn.ECT1:
            pkt.queue_class = QueueClass.L4S
        fl.sent_in_rtt += 1
        self._router_arrival(pkt, fl)
        self._schedule(self.now + fl.send_gap_us(), self._flow_send, fl)

    def _flow_tick(self, fl: _Flow):
        fl.on_rtt_tick()
        self._schedule(self.now + fl.spec.rtt_us, self._flow_tick, fl)

    def _flow_signal(self, fl: _Flow, was_drop: bool):
        if not was_drop:
            fl.marked_in_rtt += 1
        fl.on_congestion(self.now, was_drop)

    # ---------------------------------------------------------------- router

    def _est_delay_us(self, q: QueueState) -> int:
        return int(q.length_bytes * 8 * 1_000_000 / self.params.link_rate_bps)

    def _router_arrival(self, pkt: Packet, fl: _Flow):
        qc = classify_packet(pkt)
        pkt.queue_class = qc
        q = self.queues[qc]
        q.current_queue_delay = self._est_delay_us(q)
        self.arrived_bytes[qc] += pkt.size_bytes

        decision = aqm_decision(q, pkt, self.params, self.rng.random())
        action = decision.action
        if self.decision_hook is not None:
            # safety override, counted by the hook owner
            action = applied_action(self.decision_hook(self, q, pkt, decision), pkt)
        self._emit_record(q, pkt, action)
        self.decision_meta.append((self.now, int(qc), decision.cause))

        q.total_packets += 1
        q.total_bytes += pkt.size_bytes
        if action == ACTION_DROP:
            q.total_drops += 1
            self.dropped_bytes[qc] += pkt.size_bytes
            if fl is not None:
                self._schedule(self.now + fl.spec.rtt_us, self._flow_signal, fl, True)
            return
        if action == ACTION_MARK:
            pkt.ecn_codepoint = Ecn.CE
            if fl is not None:
                self._schedule(self.now + fl.spec.rtt_us, self._flow_signal, fl, False)
        q.length_bytes += pkt.size_bytes
        q.length_packets += 1
        self.enqueued_bytes[qc] += pkt.size_bytes
        self._buffers[qc].append(pkt)
        self._maybe_start_service()

    def _maybe_start_service(self):
        if self.link_busy:
            return
        if self._buffers[QueueClass.L4S]:
            qc = QueueClass.L4S
        elif self._buffers[QueueClass.CLASSIC]:
            qc = QueueClass.CLASSIC
        else:
            return
        pkt = self._buffers[qc].pop(0)
        q = self.queues[qc]
        q.length_bytes -= pkt.size_bytes
        q.length_packets -= 1
        self.dequeued_bytes[qc] += pkt.size_bytes
        service = max(1, int(round(pkt.size_bytes * 8 * 1_000_000 / self.params.link_rate_bps)))
        self.link_busy = True
        self._schedule(self.now + service, self._service_done, pkt, qc, service)

    def _service_done(self, pkt: Packet, qc: QueueClass, service: int):
        q = self.queues[qc]
        sojourn = self.now - pkt.enqueue_time
        self.qdelay_samples.append((self.now, int(qc), sojourn))
        q.dequeue_count += 1
        q.avg_dequeue_time = (service if q.dequeue_count == 1
                              else (7 * q.avg_dequeue_time + service) // 8)
        self.delivered.append((self.now + self.params.link_delay, pkt.size_bytes))
        self.link_busy = False
        self._maybe_start_service()

    # ------------------------------------------------------------- controller

    def _tupdate(self):
        p = self.params
        for q in self.queues.values():
            q.current_queue_delay = self._est_delay_us(q)
            q.burst_allowance = max(0, q.burst_allowance - p.tupdate)
        self._ctrl = replace(
            self._ctrl,
            current_queue_delay=max(q.current_queue_delay for q in self.queues.values()),
        )
        self._ctrl = pi_update(self._ctrl, p, self.now)
        base = self._ctrl.drop_probability
        for q in self.queues.values():
            q.drop_probability = base
            q.previous_queue_delay = q.current_queue_delay
            q.accumulated_probability = min(q.accumulated_probability + base, 1e6)
            q.measurement_start_time = self.now
        self._schedule(self.now + p.tupdate, self._tupdate)

    # ---------------------------------------------------------------- logging

    def _emit_record(self, q: QueueState, pkt: Packet, action: int):
        if action not in VALID_ACTIONS:
            raise ValueError(f"dequeue_action must be 0/1/2, got {action}")
        # validated above, so skip the record constructor's own check
        self.records.append(tuple.__new__(KernelLogRecord, (
            int(q.queue_type), *self._klog_params,
            q.burst_allowance,
            int(round(q.drop_probability * PROB_SCALE)),
            q.current_queue_delay,
            q.previous_queue_delay,
            int(round(q.accumulated_probability * PROB_SCALE)),
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
            assert self.arrived_bytes[qc] == self.enqueued_bytes[qc] + self.dropped_bytes[qc], \
                f"byte conservation violated in {qc.name} queue"
            assert self.dequeued_bytes[qc] <= self.enqueued_bytes[qc]
            q = self.queues[qc]
            assert q.length_bytes == self.enqueued_bytes[qc] - self.dequeued_bytes[qc]
            assert 0.0 <= q.drop_probability <= 1.0


def run_scenario(config: ScenarioConfig, decision_hook=None) -> World:
    world = World(config, decision_hook=decision_hook)
    world.run()
    world.check_conservation()
    return world
