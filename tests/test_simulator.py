"""Simulator unit tests: PI law, classification, decisions, logs, determinism."""

import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
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
        with pytest.raises(ValueError):
            self._record(dequeue_action=3)

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

    def test_hook_with_invalid_action_raises(self):
        with pytest.raises(ValueError, match="dequeue_action"):
            run_scenario(_short_scenario(duration_us=200_000),
                         decision_hook=lambda world, q, pkt, decision: 7)

    def test_finished_world_freed_without_cycle_collector(self):
        gc.disable()
        try:
            world = run_scenario(_short_scenario(duration_us=500_000))
            ref = weakref.ref(world)
            del world
            assert ref() is None
        finally:
            gc.enable()


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
