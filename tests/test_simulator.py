"""Simulator unit tests: PI law, classification, decisions, logs, determinism."""

import gc
import hashlib
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aqmlab import simulator as sim
from aqmlab.features import ACTION_DROP, ACTION_ENQUEUE, ACTION_MARK
from aqmlab.simulator import (
    Decision, Dualpi2Params, Ecn, KernelLogRecord, KlogParseError, Packet,
    QueueClass, QueueState, ScenarioConfig, FlowKind, FlowSpec,
    aqm_decision, classify_packet, default_scenario, emit_log, parse_log,
    pi_update, run_scenario,
)


class TestPiUpdate:
    def test_worked_example(self):
        """alpha=1e-6/us, beta=2e-6/us, delay 25ms vs target 15ms, prev 20ms:
        p' = 0.10 + 1e-6*10000 + 2e-6*5000 = 0.12."""
        params = Dualpi2Params(alpha=1e-6, beta=2e-6, qdelay_target=15_000)
        q = QueueState(QueueClass.CLASSIC, drop_probability=0.10,
                       current_queue_delay=25_000, previous_queue_delay=20_000)
        out = pi_update(q, params, now=123)
        assert out.drop_probability == pytest.approx(0.12)
        assert out.previous_queue_delay == 25_000
        assert out.measurement_start_time == 123

    def test_decreases_below_target(self):
        params = Dualpi2Params(alpha=1e-6, beta=2e-6, qdelay_target=15_000)
        q = QueueState(QueueClass.CLASSIC, drop_probability=0.5,
                       current_queue_delay=5_000, previous_queue_delay=5_000)
        out = pi_update(q, params, now=0)
        assert out.drop_probability == pytest.approx(0.5 - 1e-6 * 10_000)

    def test_clamped_to_unit_interval(self):
        params = Dualpi2Params(alpha=1.0, beta=1.0, qdelay_target=15_000)
        q = QueueState(QueueClass.CLASSIC, drop_probability=0.9,
                       current_queue_delay=1_000_000)
        assert pi_update(q, params, 0).drop_probability == 1.0
        q2 = QueueState(QueueClass.CLASSIC, drop_probability=0.0,
                        current_queue_delay=0, previous_queue_delay=0)
        assert pi_update(q2, params, 0).drop_probability == 0.0

    def test_pure_no_mutation(self):
        params = Dualpi2Params()
        q = QueueState(QueueClass.L4S, drop_probability=0.3,
                       current_queue_delay=30_000)
        pi_update(q, params, 0)
        assert q.drop_probability == 0.3

    def test_negative_delay_faults(self):
        q = QueueState(QueueClass.CLASSIC, current_queue_delay=-1)
        with pytest.raises(sim.SimulationFault):
            pi_update(q, Dualpi2Params(), 0)


class TestClassification:
    def test_ect1_goes_l4s(self):
        assert classify_packet(Packet(0, 100, Ecn.ECT1)) == QueueClass.L4S

    def test_ect0_and_nonect_go_classic(self):
        assert classify_packet(Packet(0, 100, Ecn.ECT0)) == QueueClass.CLASSIC
        assert classify_packet(Packet(0, 100, Ecn.NON_ECT)) == QueueClass.CLASSIC

    def test_ce_keeps_l4s_membership(self):
        p = Packet(0, 100, Ecn.CE, queue_class=QueueClass.L4S)
        assert classify_packet(p) == QueueClass.L4S

    def test_ecn_capable(self):
        assert not Packet(0, 100, Ecn.NON_ECT).ecn_capable
        assert Packet(0, 100, Ecn.ECT1).ecn_capable


class TestAqmDecision:
    def _q(self, qtype, **kw):
        return QueueState(qtype, **kw)

    def test_buffer_full_drops(self):
        params = Dualpi2Params(buffer_limit_bytes=1000)
        q = self._q(QueueClass.L4S, length_bytes=900)
        d = aqm_decision(q, Packet(0, 200, Ecn.ECT1), params, 0.99)
        assert d == Decision(ACTION_DROP, "buffer_full")

    def test_burst_allowance_enqueues(self):
        q = self._q(QueueClass.CLASSIC, burst_allowance=1000, drop_probability=1.0)
        d = aqm_decision(q, Packet(0, 100, Ecn.NON_ECT), Dualpi2Params(), 0.0)
        assert d.action == ACTION_ENQUEUE and d.cause == "burst"

    def test_l4s_step_threshold_marks(self):
        q = self._q(QueueClass.L4S, current_queue_delay=2_000)
        d = aqm_decision(q, Packet(0, 100, Ecn.ECT1), Dualpi2Params(), 0.99)
        assert d == Decision(ACTION_MARK, "step_threshold")

    def test_l4s_coupled_probability_is_k_times_base(self):
        params = Dualpi2Params(coupling_factor_k=2.0)
        q = self._q(QueueClass.L4S, drop_probability=0.2, current_queue_delay=0)
        pkt = Packet(0, 100, Ecn.ECT1)
        assert aqm_decision(q, pkt, params, 0.39).action == ACTION_MARK
        assert aqm_decision(q, pkt, params, 0.41).action == ACTION_ENQUEUE

    def test_l4s_not_capable_drops_instead(self):
        q = self._q(QueueClass.L4S, drop_probability=0.5, current_queue_delay=0)
        d = aqm_decision(q, Packet(0, 100, Ecn.NON_ECT), Dualpi2Params(), 0.1)
        assert d == Decision(ACTION_DROP, "coupled")

    def test_classic_squared_probability(self):
        q = self._q(QueueClass.CLASSIC, drop_probability=0.5)
        pkt = Packet(0, 100, Ecn.NON_ECT)
        assert aqm_decision(q, pkt, Dualpi2Params(), 0.24).action == ACTION_DROP
        assert aqm_decision(q, pkt, Dualpi2Params(), 0.26).action == ACTION_ENQUEUE

    def test_classic_capable_marks_instead_of_drop(self):
        q = self._q(QueueClass.CLASSIC, drop_probability=1.0)
        d = aqm_decision(q, Packet(0, 100, Ecn.ECT0), Dualpi2Params(), 0.5)
        assert d == Decision(ACTION_MARK, "squared")

    def test_zero_probability_always_enqueues(self):
        q = self._q(QueueClass.CLASSIC, drop_probability=0.0)
        d = aqm_decision(q, Packet(0, 100, Ecn.NON_ECT), Dualpi2Params(), 0.0)
        assert d.action == ACTION_ENQUEUE


class TestKlogFormat:
    def _record(self, **over):
        vals = {f: i for i, f in enumerate(sim.KLOG_FIELDS)}
        vals["dequeue_action"] = 1
        vals.update(over)
        return KernelLogRecord(**vals)

    def test_round_trip(self):
        rec = self._record()
        assert parse_log(emit_log(rec)) == rec

    def test_field_count_is_24(self):
        assert len(sim.KLOG_FIELDS) == 24
        assert len(emit_log(self._record()).split()) == 24

    def test_short_line_rejected_with_line_number(self):
        with pytest.raises(KlogParseError) as ei:
            parse_log("1 2 3", line_number=7)
        assert ei.value.line_number == 7

    def test_non_numeric_rejected(self):
        line = emit_log(self._record()).rsplit(" ", 1)[0] + " x"
        with pytest.raises(KlogParseError):
            parse_log(line, 1)

    def test_bad_action_rejected(self):
        line = emit_log(self._record(dequeue_action=3))
        with pytest.raises(KlogParseError, match="dequeue_action must be 0/1/2, got 3"):
            parse_log(line, 1)

    def test_file_round_trip(self, tmp_path):
        recs = [self._record(packet_length=n) for n in (100, 200, 300)]
        path = tmp_path / "x.klog"
        sim.write_klog(recs, path)
        assert sim.read_klog(path) == recs

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**31 - 1),
                    min_size=0, max_size=40),
           st.integers(min_value=0, max_value=2))
    def test_parser_fuzz_never_crashes_unexpectedly(self, values, action):
        """Any whitespace token line either parses (24 valid ints) or raises
        KlogParseError; nothing else escapes."""
        tokens = [str(v) for v in values]
        if len(tokens) == 24:
            tokens[-1] = str(action)
        line = " ".join(tokens)
        try:
            rec = parse_log(line, 3)
            assert len(tokens) == 24
            assert rec.dequeue_action == action
        except KlogParseError:
            assert len(tokens) != 24


# sha256 of the .klog that default_scenario(seed=1000, duration_us=1_500_000)
# writes, as the dataclass-record code wrote it; the text format must not move
KLOG_SHA256_SEED1000 = "849e02dacfe3b1a1fe9e8348e65e6c59adec840c41946a13787c4e75803d39ad"

# sha256 of (.klog bytes, qdelay_samples, delivered) of two 3 s seed-3 runs,
# taken before the simulator's hot loop was tuned.  The series are hashed as
# little-endian int64 rows, because evaluation reads them as well as the log.
GOLDEN_OVERLOAD = (
    "e38db3bf41cc7731553c6cc52f24e92fdf64a795ad738e9abb6dc05006656065",
    "1f4f67fd099fe7f09aa4a2bcb8d6b94b4a0ec295c01a1cc56c0c2962f250a638",
    "a7310bee951c3a886c98fbe7c8f09971143bc49d6ee7d620d58ebdf4f64106d8",
)
GOLDEN_MARK_EVERY_7TH = (
    "98128b8365d57fb041c74b8bf0903575338a4b6a4bd3769c3eff2161fa93a55b",
    "9eb4971cef0ee64fd6d2bee21c32171c680ad068accfba0e27126bc17573e874",
    "0cd1c976feb8ed553151a5a3e4c6a6058340441e9779ccb4d3d9991865d26cb5",
)


def _digests(world, path):
    sim.write_klog(world.records, path)
    series = [hashlib.sha256(np.asarray(rows, dtype="<i8").tobytes()).hexdigest()
              for rows in (world.qdelay_samples, world.delivered)]
    return (hashlib.sha256(path.read_bytes()).hexdigest(), *series)


class TestGoldenRuns:
    def test_overload_with_unresponsive_l4s_flow(self, tmp_path):
        """The default scenario plus a 10 Mbit/s ECT(1) CBR flow on the
        8 Mbit/s link: buffer_full drops and CE marks."""
        sc = _short_scenario()
        sc.flows.append(FlowSpec(FlowKind.CBR_UDP, cbr_rate_bps=10_000_000))
        world = run_scenario(sc)
        full = sum(1 for r in world.records if r.dequeue_action == ACTION_DROP
                   and r.length_in_bytes + r.packet_length > sc.aqm.buffer_limit_bytes)
        assert full > 0
        assert any(r.dequeue_action == ACTION_MARK and r.queue_type == 1 for r in world.records)
        assert _digests(world, tmp_path / "x.klog") == GOLDEN_OVERLOAD

    def test_hook_marking_every_7th_decision(self, tmp_path):
        """A MARK asked for a not-ECN-capable packet is applied as a DROP,
        and every applied MARK or DROP signals its flow one RTT later."""
        asked = []

        def hook(world, q, pkt, decision):
            asked.append(pkt.ecn_capable)
            return ACTION_MARK if len(asked) % 7 == 0 else decision.action

        world = run_scenario(_short_scenario(), decision_hook=hook)
        downgraded = [i for i, capable in enumerate(asked) if (i + 1) % 7 == 0 and not capable]
        assert downgraded
        assert all(world.records[i].dequeue_action == ACTION_DROP for i in downgraded)
        assert _digests(world, tmp_path / "x.klog") == GOLDEN_MARK_EVERY_7TH


# Klog lines for the reader parity test: mostly well-formed rows, some with
# one odd token (taken by int() or not), some ragged, some blank; fields are
# split by spaces or tabs.
_ODD_TOKENS = ["+1", "-0", "007", "1_0", "\u0661", "\u0661\u0662", "x", "1.0", "1e3",
               str(2 ** 63), str(-2 ** 63 - 1), "3", "-1"]
_int64_tokens = st.integers(-2 ** 63, 2 ** 63 - 1).map(str)
_row_tokens = st.builds(
    lambda fields, action, odd: (
        [*fields, action] if odd is None
        else [*fields[:odd[0]], odd[1], *fields[odd[0] + 1:], action]),
    st.lists(_int64_tokens, min_size=23, max_size=23),
    st.sampled_from(["0", "1", "2", "+2", "3"]),
    st.none() | st.tuples(st.integers(0, 22), st.sampled_from(_ODD_TOKENS)),
)
_klog_lines = st.one_of(
    st.builds(lambda tokens, sep: sep.join(tokens), _row_tokens,
              st.sampled_from([" ", "\t", "  ", " \t "])),
    st.lists(_int64_tokens, max_size=26).map(" ".join),
    st.sampled_from(["", "  ", "\t", " \t "]),
)


class TestKlogColumns:
    @pytest.fixture(scope="class")
    def world(self):
        return run_scenario(default_scenario(seed=1000, duration_us=1_500_000))

    def test_golden_klog_bytes(self, world, tmp_path):
        path = tmp_path / "golden.klog"
        sim.write_klog(world.records, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == KLOG_SHA256_SEED1000

    def test_records_are_column_rows(self, world):
        cols = np.array(world.records, dtype=np.int64)
        assert cols.shape == (len(world.records), 24)
        for i, name in enumerate(sim.KLOG_FIELDS):
            assert cols[5, i] == getattr(world.records[5], name)

    def test_columns_equal_records(self, world, tmp_path):
        path = tmp_path / "x.klog"
        sim.write_klog(world.records, path)
        cols = sim.read_klog_columns(path)
        assert cols.dtype == np.int64
        np.testing.assert_array_equal(cols, np.array(sim.read_klog(path), dtype=np.int64))
        assert sim.read_klog(path) == world.records

    def test_blank_lines_skipped_and_empty_log(self, tmp_path):
        rec = KernelLogRecord(*range(23), 2)
        path = tmp_path / "x.klog"
        path.write_text("\n" + emit_log(rec) + "\n\n" + emit_log(rec) + "\n")
        np.testing.assert_array_equal(sim.read_klog_columns(path), [list(rec)] * 2)
        path.write_text("")
        assert sim.read_klog_columns(path).shape == (0, 24)
        assert sim.read_klog(path) == []

    @pytest.mark.parametrize("bad", [
        " ".join(["1"] * 23),                      # ragged: 23 fields
        " ".join(["1"] * 25),                      # ragged: 25 fields
        " ".join(["1"] * 22 + ["x", "0"]),         # non-numeric token
        " ".join(["1"] * 23 + ["3"]),              # action out of range
        " ".join(["1"] * 22 + [str(2 ** 63), "0"]),  # beyond int64
    ])
    def test_bad_line_named(self, bad, tmp_path):
        good = emit_log(KernelLogRecord(*range(23), 1))
        path = tmp_path / "x.klog"
        path.write_text("\n".join([good, "", good, bad, good]) + "\n")
        for read in (sim.read_klog_columns, sim.read_klog):
            with pytest.raises(KlogParseError) as ei:
                read(path)
            assert ei.value.line_number == 4

    def test_every_line_the_same_wrong_length(self, tmp_path):
        path = tmp_path / "x.klog"
        path.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(KlogParseError) as ei:
            sim.read_klog_columns(path)
        assert ei.value.line_number == 1

    def test_tokens_only_int_takes_fall_back_to_parse_log(self, tmp_path):
        """`int()` takes `+1`, `-0`, `1_0` and non-ASCII digits; numpy's C
        parser refuses the last two, so the log goes through `parse_log`."""
        rec = KernelLogRecord(*range(23), 2)
        odd = ["+1", "-0", "1_0", "\u0661\u0662"] + [str(v) for v in rec[4:]]
        path = tmp_path / "x.klog"
        path.write_text(emit_log(rec) + "\n" + " ".join(odd) + "\n", encoding="utf-8")
        np.testing.assert_array_equal(sim.read_klog_columns(path),
                                      [list(rec), [1, 0, 10, 12, *rec[4:]]])

    @pytest.mark.parametrize("text", ["", "\n\n", " \t\n  \r\n\t"])
    def test_empty_log_has_no_rows_and_no_warning(self, text, tmp_path):
        path = tmp_path / "x.klog"
        path.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert sim.read_klog_columns(path).shape == (0, 24)
        assert caught == []

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_klog_lines, max_size=6), newline=st.sampled_from(["\n", "\r\n"]))
    def test_reader_agrees_with_parse_log(self, lines, newline, tmp_path):
        """Row for row the rows `parse_log` gives, or its error on the same line."""
        path = tmp_path / "x.klog"
        path.write_bytes(newline.join(lines).encode("utf-8"))
        try:
            want = [list(parse_log(line, i)) for i, line in enumerate(lines, start=1)
                    if line.strip()]
        except KlogParseError as e:
            with pytest.raises(KlogParseError) as ei:
                sim.read_klog_columns(path)
            assert ei.value.line_number == e.line_number
        else:
            got = sim.read_klog_columns(path)
            assert got.dtype == np.int64 and got.shape == (len(want), 24)
            np.testing.assert_array_equal(got, np.array(want, dtype=np.int64).reshape(-1, 24))

    def test_hook_with_invalid_action_raises(self):
        with pytest.raises(ValueError, match="dequeue_action"):
            run_scenario(_short_scenario(duration_us=200_000),
                         decision_hook=lambda world, q, pkt, decision: 7)

    def test_hook_reads_the_probabilities_its_record_logs(self):
        """At each decision the world's `klog_probs` is the fixed-point
        (p', accumulated probability) pair of the record it then logs, for
        either queue, and the pair moves as the controller steps."""
        seen = []

        def hook(world, q, pkt, decision):
            seen.append((int(q.queue_type), *world.klog_probs))
            return decision.action

        world = run_scenario(_short_scenario(), decision_hook=hook)
        assert seen == [(r.queue_type, r.drop_probability, r.accumulated_probability)
                        for r in world.records]
        assert {qt for qt, _, _ in seen} == {0, 1}
        assert len({(drop_p, acc_p) for _, drop_p, acc_p in seen}) > 100

    def test_finished_world_freed_without_cycle_collector(self):
        gc.disable()
        try:
            world = run_scenario(_short_scenario(duration_us=500_000))
            ref = weakref.ref(world)
            del world
            assert ref() is None
        finally:
            gc.enable()


class TestGate:
    """The world's one gate from a hook's answer to the applied action."""

    @staticmethod
    def _overload():
        sc = _short_scenario()
        sc.flows.append(FlowSpec(FlowKind.CBR_UDP, cbr_rate_bps=10_000_000))
        return sc

    def test_invalid_action_on_a_full_buffer_raises(self):
        """The validity check comes before the buffer rule, so an invalid
        answer is never logged as the DROP a full buffer forces."""
        full = []

        def hook(world, q, pkt, decision):
            if q.length_bytes + pkt.size_bytes > world.params.buffer_limit_bytes:
                full.append(len(world.records))
                return 7
            return decision.action

        with pytest.raises(ValueError, match="dequeue_action"):
            run_scenario(self._overload(), decision_hook=hook)
        assert len(full) == 1

    def test_enqueue_on_a_full_buffer_is_dropped(self):
        sc = self._overload()
        world = run_scenario(sc, decision_hook=lambda world, q, pkt, decision: ACTION_ENQUEUE)
        limit = sc.aqm.buffer_limit_bytes
        full = [r for r in world.records if r.length_in_bytes + r.packet_length > limit]
        assert full and all(r.dequeue_action == ACTION_DROP for r in full)
        assert max(r.length_in_bytes for r in world.records) <= limit

    def test_always_enqueue_rewrites_count_as_buffer_full(self):
        """Under overload an always-ENQUEUE hook is rewritten only when the
        buffer is full, so every logged DROP is one buffer_full rewrite."""
        world = run_scenario(self._overload(), decision_hook=lambda world, q, pkt, decision: ACTION_ENQUEUE)
        drops = sum(r.dequeue_action == ACTION_DROP for r in world.records)
        assert drops > 0 and world.rewritten == {"buffer_full": drops, "not_ecn_capable": 0}

    def test_always_mark_rewrites_counted_by_cause(self):
        """An always-MARK hook is rewritten for a full buffer first, else for
        a not-ECN-capable packet; each logged DROP is one of the two."""
        want = {"buffer_full": 0, "not_ecn_capable": 0}

        def hook(world, q, pkt, decision):
            if q.length_bytes + pkt.size_bytes > world.params.buffer_limit_bytes:
                want["buffer_full"] += 1
            elif not pkt.ecn_capable:
                want["not_ecn_capable"] += 1
            return ACTION_MARK

        world = run_scenario(self._overload(), decision_hook=hook)
        drops = sum(r.dequeue_action == ACTION_DROP for r in world.records)
        assert world.rewritten == want and min(want.values()) > 0
        assert sum(want.values()) == drops

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 16),
           flows=st.lists(st.tuples(st.sampled_from(list(FlowKind)), st.booleans(),
                                    st.integers(1_000_000, 12_000_000)),
                          min_size=1, max_size=4),
           limit=st.integers(3_000, 60_000),
           drop_share=st.floats(0.0, 0.5))
    def test_no_hook_overruns_the_buffer(self, seed, flows, limit, drop_share):
        """Random scenarios under a hook that answers random valid actions:
        no record pairs a non-DROP action with a packet the buffer cannot
        hold, and bytes are conserved."""
        rng = np.random.default_rng(seed)

        def hook(world, q, pkt, decision):
            if rng.random() < drop_share:
                return ACTION_DROP
            return int(rng.choice((ACTION_ENQUEUE, ACTION_MARK)))

        sc = ScenarioConfig(
            seed=seed, duration_us=1_000_000, aqm=Dualpi2Params(buffer_limit_bytes=limit),
            flows=[FlowSpec(kind, ecn_capable=ecn, cbr_rate_bps=rate, start_us=10_000 * i)
                   for i, (kind, ecn, rate) in enumerate(flows)])
        world = run_scenario(sc, decision_hook=hook)
        assert not [r for r in world.records if r.dequeue_action != ACTION_DROP
                    and r.length_in_bytes + r.packet_length > limit]
        world.check_conservation()

    @pytest.mark.parametrize("ecn_capable", [True, False])
    @pytest.mark.parametrize("kind", list(FlowKind))
    def test_flow_queue_class_is_its_packets_class(self, kind, ecn_capable):
        """The queue class a flow fixes when it is built is the one
        classify_packet gives each of its packets, and the queue the router
        puts them in."""
        seen = []

        def hook(world, q, pkt, decision):
            seen.append((world.flows[pkt.flow_id].queue_class, classify_packet(pkt),
                         q.queue_type))
            return decision.action

        run_scenario(ScenarioConfig(seed=1, duration_us=200_000,
                                    flows=[FlowSpec(kind, ecn_capable=ecn_capable)]),
                     decision_hook=hook)
        assert seen and all(a == b == c for a, b, c in seen)


class TestScenarioConfig:
    def test_json_round_trip(self, tmp_path):
        sc = default_scenario(seed=9, duration_us=1_000_000)
        path = tmp_path / "sc.json"
        sc.save(path)
        loaded = ScenarioConfig.load(path)
        assert loaded.to_dict() == sc.to_dict()

    def test_param_validation(self):
        with pytest.raises(ValueError):
            Dualpi2Params(alpha=-1.0)
        with pytest.raises(ValueError):
            Dualpi2Params(coupling_factor_k=0.5)

    @pytest.mark.parametrize("build, field", [
        (lambda v: Dualpi2Params(tupdate=v), "tupdate"),
        (lambda v: FlowSpec(FlowKind.CUBIC_LIKE, rtt_us=v), "rtt_us"),
        (lambda v: FlowSpec(FlowKind.AIMD_RENO, initial_cwnd_packets=v), "initial_cwnd_packets"),
        (lambda v: FlowSpec(FlowKind.CBR_UDP, cbr_rate_bps=v), "cbr_rate_bps"),
        (lambda v: FlowSpec(FlowKind.DCTCP_LIKE, mss=v), "mss"),
        (lambda v: FlowSpec(FlowKind.CBR_UDP, mss=v), "mss"),
        (lambda v: ScenarioConfig(duration_us=v), "duration_us"),
        # a start of 0 is valid, so the cases are -1 and -2
        (lambda v: FlowSpec(FlowKind.CUBIC_LIKE, start_us=v - 1), "start_us"),
    ])
    @pytest.mark.parametrize("value", [0, -1])
    def test_values_that_stall_or_crash_the_event_loop_refused(self, build, field, value):
        """Each would stall, rewind or skip the event loop, or divide by zero
        in it; only the construction is tried, never a run."""
        bound = ">= 0" if field == "start_us" else "> 0"
        with pytest.raises(ValueError, match=f"^{field} must be {bound}"):
            build(value)


def _short_scenario(seed=3, duration_us=3_000_000):
    return default_scenario(seed=seed, duration_us=duration_us)


class TestClosedLoop:
    def test_determinism_byte_identical(self):
        w1 = run_scenario(_short_scenario())
        w2 = run_scenario(_short_scenario())
        lines1 = [emit_log(r) for r in w1.records]
        lines2 = [emit_log(r) for r in w2.records]
        assert lines1 == lines2

    def test_seed_changes_trace(self):
        w1 = run_scenario(_short_scenario(seed=1))
        w2 = run_scenario(_short_scenario(seed=2))
        assert [emit_log(r) for r in w1.records] != [emit_log(r) for r in w2.records]

    def test_underloaded_cbr_no_drops(self):
        """A single CBR flow at half link rate must see zero drops/marks
        once the analytic queue stays empty."""
        sc = ScenarioConfig(
            seed=1, duration_us=3_000_000,
            aqm=Dualpi2Params(link_rate_bps=8_000_000),
            flows=[FlowSpec(FlowKind.CBR_UDP, cbr_rate_bps=4_000_000,
                            ecn_capable=True)],
        )
        w = run_scenario(sc)
        actions = {r.dequeue_action for r in w.records}
        assert actions == {ACTION_ENQUEUE}
        assert all(q.total_drops == 0 for q in w.queues.values())

    def test_overload_raises_probability_and_drops(self):
        sc = ScenarioConfig(
            seed=1, duration_us=4_000_000,
            aqm=Dualpi2Params(link_rate_bps=2_000_000),
            flows=[FlowSpec(FlowKind.CBR_UDP, cbr_rate_bps=6_000_000,
                            ecn_capable=False)],
        )
        w = run_scenario(sc)
        assert max(r.drop_probability for r in w.records) > 0
        assert sum(1 for r in w.records if r.dequeue_action == ACTION_DROP) > 0

    def test_conservation_checks_pass(self):
        w = run_scenario(_short_scenario())
        w.check_conservation()  # raises on violation

    def test_l4s_delay_stays_below_classic(self):
        """Strict-priority L4S service keeps its sojourn times short."""
        w = run_scenario(default_scenario(seed=2, duration_us=8_000_000))
        classic = [d for t, qc, d in w.qdelay_samples if qc == 0 and t > 2_000_000]
        l4s = [d for t, qc, d in w.qdelay_samples if qc == 1 and t > 2_000_000]
        assert l4s and classic
        assert np.median(l4s) < np.median(classic)

    def test_decision_hook_override_applies(self):
        dropped = []

        def hook(world, q, pkt, decision):
            dropped.append(decision.action)
            return ACTION_DROP  # drop everything

        sc = ScenarioConfig(
            seed=1, duration_us=500_000,
            flows=[FlowSpec(FlowKind.CBR_UDP, cbr_rate_bps=2_000_000)])
        w = run_scenario(sc, decision_hook=hook)
        assert dropped
        assert all(r.dequeue_action == ACTION_DROP for r in w.records)
        assert not w.delivered

    def test_probability_scaling_in_log(self):
        w = run_scenario(_short_scenario())
        for r in w.records:
            assert 0 <= r.drop_probability <= sim.PROB_SCALE
        assert any(r.drop_probability > 0 for r in w.records)

    def test_gain_coefficients_logged_fixed_point(self):
        w = run_scenario(_short_scenario(duration_us=200_000))
        p = Dualpi2Params()
        rec = w.records[0]
        assert rec.alpha_coefficient == round(p.alpha * sim.GAIN_SCALE)
        assert rec.beta_coefficient == round(p.beta * sim.GAIN_SCALE)
