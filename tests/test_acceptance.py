"""End-to-end acceptance suite.

Each test class pins one release criterion at its stated tolerance, from
gradient correctness up through closed-loop behaviour cloning.  The heavy
fixtures (simulations, pools, training runs) are module-scoped so the suite
pays for them once.
"""

import time

import numpy as np
import pytest

from aqmlab.features import (
    ACTION_COUNT, ACTION_DROP, ACTION_ENQUEUE, ACTION_MARK, FEATURE_INDEX, STATE_DIM,
)
from aqmlab import tensor as T
from aqmlab.tensor import Tensor, grad_check
from aqmlab.model import (
    LORA_TARGETS, InferencePolicy, ModelConfig, PolicyModel, TOKENS_PER_STEP, load_checkpoint,
)
from aqmlab.pool import (
    ExperiencePool, build_pool_from_records, returns_to_go,
)
from aqmlab.training import TrainConfig, split_pool, train
from aqmlab.simulator import (
    Dualpi2Params, FlowKind, FlowSpec, PROB_SCALE, QueueClass, ScenarioConfig,
    default_scenario, emit_log, run_scenario,
)
from aqmlab import evaluation as ev
from helpers import all_steps


DELAY_IDX = FEATURE_INDEX["current_queue_delay"]


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def threshold_run(tmp_path_factory):
    """Train on a simulator-backed pool relabelled by a delay threshold.

    Budget: <= 50 epochs, < 10 min CPU.
    """
    t0 = time.time()
    record_lists = []
    for seed in range(8):
        world = run_scenario(default_scenario(seed=seed, duration_us=6_000_000))
        record_lists.append(world.records[::4][:150])
    pool = build_pool_from_records(record_lists, gamma=0.95)
    median = np.median([s.state[DELAY_IDX] for s in all_steps(pool)])
    for traj in pool.trajectories:
        traj.actions[:] = np.where(traj.states[:, DELAY_IDX] > median, ACTION_MARK, ACTION_ENQUEUE)
    pool.validate()

    mc = ModelConfig(feature_dim=8, embed_size=32, n_layers=1, n_heads=2,
                     context_window=8)
    tc = TrainConfig(epochs=8, batch_size=32, lr=0.5, window=8, seed=0,
                     eval_split=0.25)
    model = PolicyModel(mc, seed=0)
    ckpt = tmp_path_factory.mktemp("thresh") / "ckpt.npz"
    report = train(model, pool, tc, checkpoint_path=str(ckpt))
    return {"report": report, "elapsed": time.time() - t0, "epochs": tc.epochs}


@pytest.fixture(scope="module")
def clone_run(tmp_path_factory):
    """Full behaviour-cloning pipeline against the rule-based controller.

    Training pool: default scenario seeds 1-3; evaluation: held-out seed 11.
    """
    record_lists = [run_scenario(default_scenario(seed=s)).records
                    for s in (1, 2, 3)]
    pool = build_pool_from_records(record_lists, gamma=0.95)
    mc = ModelConfig(feature_dim=8, embed_size=32, n_layers=1, n_heads=2,
                     context_window=8)
    tc = TrainConfig(epochs=6, batch_size=32, lr=0.5, window=8, seed=0,
                     eval_split=0.25, batches_per_epoch=60, eval_batches=40)
    model = PolicyModel(mc, seed=0)
    ckpt = tmp_path_factory.mktemp("clone") / "ckpt.npz"
    train(model, pool, tc, checkpoint_path=str(ckpt))

    held_out = default_scenario(seed=11)
    base = ev.evaluate(held_out, ev.RuleBased())
    driver = ev.LlmEvery(str(ckpt), every=10)
    t0 = time.time()
    cand = ev.evaluate(held_out, driver)
    return {"ckpt": str(ckpt), "base": base, "cand": cand, "driver": driver,
            "eval_seconds": time.time() - t0}


def tiny_model(dtype="float64", window=2, seed=0):
    cfg = ModelConfig(feature_dim=2, embed_size=8, n_layers=1, n_heads=2,
                      context_window=window, dtype=dtype)
    return PolicyModel(cfg, seed=seed)


def batch_for(model, batch=2, seed=0):
    cfg = model.config
    rng = np.random.default_rng(seed)
    w = cfg.context_window
    R = rng.normal(size=(batch, w))
    S = rng.normal(size=(batch, w, STATE_DIM))
    A = rng.integers(0, ACTION_COUNT, size=(batch, w)).astype(float)
    return R, S, A


# ------------------------------------------- 1. gradient correctness


class TestGradientChecks:
    """Analytic vs central-difference gradients: <1e-3 everywhere,
    <1e-6 for the linear layer, full sweep under one minute."""

    def test_ops_and_full_model_under_a_minute(self):
        t0 = time.time()
        rng = np.random.default_rng(0)

        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        W = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)
        err = grad_check(lambda: T.linear(x, W, b).sum(), [x, W, b], eps=1e-6)
        assert err < 1e-6

        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        assert grad_check(lambda: (a @ c).tanh().sum(), [a, c], eps=1e-6) < 1e-3

        s = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        assert grad_check(lambda: (T.softmax(s) * s).sum(), [s], eps=1e-6) < 1e-3

        g = Tensor(np.ones(4), requires_grad=True)
        be = Tensor(np.zeros(4), requires_grad=True)
        ln_x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        assert grad_check(lambda: T.layer_norm(ln_x, g, be).tanh().sum(),
                          [ln_x, g, be], eps=1e-6) < 1e-3

        cx = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        K = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        cb = Tensor(rng.normal(size=(4,)), requires_grad=True)
        for pad in ("same", "causal"):
            assert grad_check(lambda: T.conv1d(cx, K, cb, padding=pad).tanh().sum(),
                              [cx, K, cb], eps=1e-6) < 1e-3

        q = Tensor(rng.normal(size=(1, 2, 4, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(1, 2, 4, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=(1, 2, 4, 3)), requires_grad=True)
        bias = T.causal_mask_bias(4, dtype=np.float64)
        assert grad_check(lambda: T.attention(q, k, v, mask_bias=bias).tanh().sum(),
                          [q, k, v], eps=1e-6) < 1e-3

        logits = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        targets = rng.integers(0, 3, size=6)
        weights = rng.uniform(0.2, 1.0, size=6)
        assert grad_check(lambda: T.cross_entropy(logits, targets, weights=weights),
                          [logits], eps=1e-6) < 1e-3

        table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        idx = rng.integers(0, 7, size=(2, 5))
        assert grad_check(lambda: T.select_positions(table, idx, axis=0).tanh().sum(),
                          [table], eps=1e-6) < 1e-3

        sel_x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
        assert grad_check(lambda: T.select_positions(sel_x, [1, 4]).relu().mean(),
                          [sel_x], eps=1e-6) < 1e-3

        model = tiny_model()
        R, S, A = batch_for(model)
        targets = np.array([[0, 2], [1, 1]])

        def full_loss():
            logits = model.forward(R, S, A)
            flat = logits.reshape(4, ACTION_COUNT)
            return T.cross_entropy(flat, targets.reshape(-1))

        params = list(model.params.values())
        # eps must be small here: the composed model has strong curvature and
        # larger steps corrupt the *numeric* side of the comparison
        err = grad_check(full_loss, params, eps=1e-6, max_coords=4)
        assert err < 1e-3
        assert time.time() - t0 < 60


# ------------------------------------------------------- 2. LoRA


class TestLora:
    def make(self, rank=2):
        model = tiny_model(seed=3)
        model.enable_lora(rank=rank, seed=5)
        return model

    def test_fresh_adapters_match_base_exactly(self):
        base = tiny_model(seed=3)
        lora = self.make()
        R, S, A = batch_for(base)
        np.testing.assert_array_equal(base.forward(R, S, A).data,
                                      lora.forward(R, S, A).data)

    def test_frozen_bases_bit_identical_after_training(self):
        model = self.make()
        frozen = {n: p.data.copy() for n, p in model.params.items()
                  if not p.requires_grad}
        assert frozen  # the whole transformer backbone is frozen
        R, S, A = batch_for(model)
        trainable = model.trainable_params()
        for _ in range(3):
            logits = model.forward(R, S, A)
            loss = T.cross_entropy(logits.reshape(4, 3), np.array([0, 1, 2, 0]))
            T.zero_grads(trainable)
            loss.backward()
            T.sgd_step(trainable, lr=0.1)
        for name, data in frozen.items():
            assert np.array_equal(model.params[name].data, data), name

    def test_merged_matches_factored(self):
        model = self.make()
        rng = np.random.default_rng(9)
        for name in model.lora_param_names():
            model.params[name].data += rng.normal(0, 0.1, model.params[name].shape)
        merged = model.merged_model()
        R, S, A = batch_for(model)
        np.testing.assert_allclose(merged.forward(R, S, A).data,
                                   model.forward(R, S, A).data,
                                   rtol=0, atol=1e-6)

    def test_trainable_count_formula(self):
        rank = 2
        model = self.make(rank=rank)
        lora_total = sum(model.params[n].data.size
                         for n in model.lora_param_names())
        d = model.config.embed_size
        n_adapted = model.config.n_layers * len(LORA_TARGETS)
        assert lora_total == n_adapted * rank * (d + d)


# -------------------------------------------------- 3. causality


class TestCausality:
    """Future inputs must not leak into past predictions, and closed-loop
    inference must cost exactly one forward pass per model decision."""

    def test_future_perturbations_change_nothing(self):
        model = tiny_model(window=4)
        R, S, A = batch_for(model)
        base = model.forward(R, S, A).data.copy()
        for t_cut in (1, 2, 3):
            R2, S2, A2 = R.copy(), S.copy(), A.copy()
            R2[:, t_cut:] += 5.0
            S2[:, t_cut:] += 5.0
            A2[:, t_cut:] = (A2[:, t_cut:] + 1) % 3
            out = model.forward(R2, S2, A2).data
            diff = np.abs(out[:, :t_cut] - base[:, :t_cut]).max()
            assert diff == 0.0

    def test_one_forward_per_decision(self, clone_run):
        driver = clone_run["driver"]
        stats = clone_run["cand"]["driver"]
        assert driver.model.forward_count == stats["model_decisions"]


# ----------------------------------- 4. token layout and encoders


class TestTokenLayout:
    def test_ten_tokens_per_step_and_encoder_shapes(self):
        model = tiny_model(window=3)
        R, S, A = batch_for(model)
        assert TOKENS_PER_STEP == 10
        normed, raw = model.build_sequence(R, S, A)
        assert raw.shape == (2, 10 * 3, model.config.embed_size)
        assert normed.shape == raw.shape
        emb = model.encode_state(S).data          # feature i on axis 2
        outs = [emb[:, :, i] for i in range(emb.shape[2])]
        assert len(outs) == 8
        for o in outs:
            assert o.shape == (2, 3, model.config.embed_size)

    def test_tokens_are_pure_modality_projections(self):
        """With no position input, each token is its modality's projection
        alone."""
        model = tiny_model(window=3)
        R, S, A = batch_for(model)
        _, raw = model.build_sequence(R, S, A)
        tok = raw.data.reshape(2, 3, 10, model.config.embed_size)

        r_proj = T.linear(Tensor(R[:, :, None]), model.params["W_return"],
                          model.params["b_return"]).data
        a_proj = T.linear(Tensor(A[:, :, None]), model.params["W_action"],
                          model.params["b_action"]).data
        np.testing.assert_array_equal(tok[:, :, 0], r_proj)
        np.testing.assert_array_equal(tok[:, :, 9], a_proj)
        s_emb = model.encode_state(S).data
        assert s_emb.shape[2] == 8
        for i in range(8):
            np.testing.assert_array_equal(tok[:, :, 1 + i], s_emb[:, :, i])


# ----------------------------------------- 5. return conditioning


class TestReturns:
    def test_thousand_random_trajectories_match_forward_sum(self):
        rng = np.random.default_rng(42)
        gamma = 0.95
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            rewards = rng.uniform(0, 1500, size=n)
            rets = returns_to_go(rewards, gamma)
            for t in range(n):
                oracle = sum(gamma ** (i - t) * rewards[i] for i in range(t, n))
                assert abs(rets[t] - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_pool_validate_accepts_simulator_pool(self):
        world = run_scenario(default_scenario(seed=4, duration_us=3_000_000))
        pool = build_pool_from_records([world.records], gamma=0.95)
        assert pool.validate()


# ---------------------------------------- 6. threshold-rule cloning


class TestThresholdRule:
    def test_learned_to_95_percent_within_budget(self, threshold_run):
        assert threshold_run["epochs"] <= 50
        assert threshold_run["report"].best_eval_accuracy >= 0.95
        assert threshold_run["elapsed"] < 600


# ------------------------------------------- 7. clone fidelity


class TestCloneFidelity:
    def test_median_delay_within_20_percent(self, clone_run):
        base = clone_run["base"]["summary"]["delay_ms"]["median"]
        cand = clone_run["cand"]["summary"]["delay_ms"]["median"]
        assert abs(cand - base) / base <= 0.20

    def test_delay_cdf_ks_within_015(self, clone_run):
        ks = ev.ks_statistic(np.array(clone_run["base"]["cdf"]["delay_ms"]["x"]),
                             np.array(clone_run["cand"]["cdf"]["delay_ms"]["x"]))
        assert ks <= 0.15

    def test_eval_runtime_under_five_minutes_per_seed(self, clone_run):
        assert clone_run["eval_seconds"] < 300


    def test_inference_policy_decides_as_the_tensor_model(self, clone_run):
        """The closed loop runs a model.InferencePolicy snapshot on each
        window's real steps; replayed left-padded, in batches, through the
        Tensor PolicyModel, every window of the episode gets the same action,
        with logits within 1e-5."""
        driver = ev.LlmEvery(clone_run["ckpt"], every=1)
        assert isinstance(driver.model, InferencePolicy)
        windows = []   # (returns, states, actions, logits) per decision
        logits = driver.model.logits

        def recording_logits(returns, states, actions):
            out = logits(returns, states, actions)
            windows.append((returns, states, actions, out))
            return out

        driver.model.logits = recording_logits
        world = run_scenario(default_scenario(seed=3, duration_us=3_000_000),
                             decision_hook=driver.hook)
        assert len(world.records) > 1000
        assert driver.model.forward_count == driver.model_decisions == len(world.records) \
            == len(windows)

        tensor_model = load_checkpoint(clone_run["ckpt"])[0]
        w = tensor_model.config.context_window
        R, A, pad = (np.zeros((len(windows), w)) for _ in range(3))
        S = np.zeros((len(windows), w, STATE_DIM))
        for i, (returns, states, actions, _) in enumerate(windows):
            n = len(states)
            R[i, w - n:], S[i, w - n:], A[i, w - n:w - 1] = returns, states, actions
            pad[i, w - n:] = 1.0
        got = np.stack([out for *_, out in windows])
        for lo in range(0, len(R), 512):
            rows = slice(lo, lo + 512)
            logits = tensor_model.predict(R[rows], S[rows], A[rows], pad_mask=pad[rows])
            np.testing.assert_allclose(logits, got[rows], rtol=0, atol=1e-5)
            assert logits.argmax(axis=1).tolist() == np.argmax(got[rows], axis=1).tolist()


# ------------------------------------------ 8. simulator invariants


def random_scenario(rng):
    kinds = list(FlowKind)
    flows = []
    for fid in range(int(rng.integers(1, 5))):
        kind = kinds[int(rng.integers(len(kinds)))]
        flows.append(FlowSpec(
            kind=kind,
            mss=int(rng.integers(200, 1501)),
            rtt_us=int(rng.integers(2_000, 80_000)),
            ecn_capable=bool(rng.integers(2)),
            start_us=int(rng.integers(0, 500_000)),
            cbr_rate_bps=int(rng.integers(500_000, 12_000_000)),
        ))
    aqm = Dualpi2Params(
        link_rate_bps=int(rng.integers(1_000_000, 20_000_000)),
        link_delay=int(rng.integers(1_000, 40_000)),
        qdelay_target=int(rng.integers(5_000, 40_000)),
        buffer_limit_bytes=int(rng.integers(50_000, 400_000)),
    )
    return ScenarioConfig(name="fuzz", seed=int(rng.integers(1, 10_000)),
                          duration_us=2_000_000, aqm=aqm, flows=flows)


class TestSimulatorInvariants:
    def test_twenty_random_scenarios(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            config = random_scenario(rng)
            seen = []

            def hook(world, q, pkt, decision):
                seen.append((pkt.ecn_capable, decision.action))
                return decision.action

            world = run_scenario(config, decision_hook=hook)
            world.check_conservation()
            for rec in world.records:
                assert 0 <= rec.drop_probability <= PROB_SCALE
                assert 0 <= rec.accumulated_probability
            for ecn_capable, action in seen:
                if not ecn_capable:
                    assert action != ACTION_MARK
            replay = run_scenario(config)
            assert [emit_log(r) for r in replay.records] == \
                   [emit_log(r) for r in world.records]


# ------------------------------------------------ 9. diagnostics


class TestDiagnostics:
    def test_lyapunov_converging_trace_all_negative(self):
        target = 15.0
        trace = [target + 25.0 * (0.9 ** n) for n in range(50)]
        out = ev.lyapunov_drift(trace, target)
        assert out["negative_fraction"] == 1.0

    def test_lipschitz_identity_and_half_scaling(self):
        rng = np.random.default_rng(3)
        pairs = [(rng.normal(size=5), rng.normal(size=5)) for _ in range(25)]
        assert ev.lipschitz_estimate(lambda x: x, pairs)["constant"] == 1.0
        assert ev.lipschitz_estimate(lambda x: 0.5 * x, pairs)["constant"] == 0.5


# ---------------------------------------- 10. inference interval cost


class TestIntervalCost:
    @pytest.mark.parametrize("every", [10, 100])
    def test_model_decides_every_nth_decision(self, clone_run, every):
        """The model makes exactly one in `every` of an episode's decisions."""
        driver = ev.LlmEvery(clone_run["ckpt"], every=every)
        doc = ev.evaluate(default_scenario(seed=5, duration_us=20_000_000), driver)
        assert driver.model_decisions == doc["actions"]["total"] // every > 0
