"""Span tracing around the public calls of each aqmlab layer.

`Tracer.install()` replaces each traced function at the name its caller looks
it up by (a module attribute or a class attribute), so a call made from
inside the package is traced as well as one made by the benchmark.  Spans
(name, start, end, parent) stay in memory and are written out when the run
ends.  Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from aqmlab import evaluation, model, pool, simulator, tensor, training

# (layer, span name, [(owner, attribute), ...]): every owner through which a
# caller reaches the function gets the same wrapper.
SPANS = [
    ("simulator", "run_scenario", [(simulator, "run_scenario"), (evaluation, "run_scenario")]),
    ("simulator", "write_klog", [(simulator, "write_klog")]),
    ("simulator", "read_klog", [(simulator, "read_klog"), (pool, "read_klog")]),
    ("pool", "build_pool", [(pool, "build_pool")]),
    ("pool", "compute_feature_stats", [(pool, "compute_feature_stats")]),
    ("pool", "normalize_states", [(pool, "normalize_states"), (training, "normalize_states")]),
    ("pool", "ExperiencePool.validate", [(pool.ExperiencePool, "validate")]),
    ("pool", "ExperiencePool.save", [(pool.ExperiencePool, "save")]),
    ("pool", "ExperiencePool.load", [(pool.ExperiencePool, "load")]),
    ("training", "train", [(training, "train")]),
    ("training", "train_epoch", [(training, "train_epoch")]),
    ("training", "WindowDataset.init", [(training.WindowDataset, "__init__")]),
    ("training", "WindowDataset.sample", [(training.WindowDataset, "sample")]),
    ("training", "evaluate_accuracy", [(training, "evaluate_accuracy")]),
    ("model", "PolicyModel.forward", [(model.PolicyModel, "forward")]),
    ("model", "PolicyModel.predict", [(model.PolicyModel, "predict")]),
    ("model", "PolicyModel.encode_state", [(model.PolicyModel, "encode_state")]),
    ("model", "PolicyModel.build_sequence", [(model.PolicyModel, "build_sequence")]),
    ("model", "save_checkpoint", [(model, "save_checkpoint"), (training, "save_checkpoint")]),
    ("model", "load_checkpoint", [(model, "load_checkpoint"), (evaluation, "load_checkpoint")]),
    ("tensor", "conv1d", [(tensor, "conv1d")]),
    ("tensor", "attention", [(tensor, "attention")]),
    ("tensor", "layer_norm", [(tensor, "layer_norm")]),
    ("tensor", "cross_entropy", [(tensor, "cross_entropy")]),
    ("tensor", "Tensor.backward", [(tensor.Tensor, "backward")]),
    ("tensor", "sgd_step", [(tensor, "sgd_step")]),
    ("evaluation", "evaluate", [(evaluation, "evaluate")]),
    ("evaluation", "LlmEvery.hook", [(evaluation.LlmEvery, "hook")]),
    ("evaluation", "collect_stats", [(evaluation, "collect_stats")]),
]

SPAN_NAMES = [f"{layer}.{name}" for layer, name, _ in SPANS]

COUNTS = [
    "simulator.decisions", "simulator.klog_bytes", "pool.steps", "training.steps",
    "model.forward_calls_b1", "model.forward_calls_b32", "model.forward_calls_other",
    "tensor.nodes_per_forward_b1", "tensor.nodes_per_forward_b32",
    "evaluation.model_decisions",
]


class Tracer:
    def __init__(self):
        self.records = []        # [name index, start, end, parent record index]
        self._stack = []
        self._saved = []
        self.tensors_built = 0
        self.nodes_per_forward = {}   # batch size -> Tensor objects built per forward
        self.counts = dict.fromkeys(COUNTS, 0)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, idx, fn):
        records, stack = self.records, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [idx, 0.0, 0.0, stack[-1] if stack else -1]
            records.append(rec)
            stack.append(len(records) - 1)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return traced

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for idx, (_, _, sites) in enumerate(SPANS):
            for owner, attr in sites:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, classmethod(self._wrap(idx, raw.__func__)))
                else:
                    self._patch(owner, attr, self._wrap(idx, raw))
        self._install_counters()

    def _install_counters(self):
        counts = self.counts
        tracer = self
        tensor_init = tensor.Tensor.__dict__["__init__"]

        def counting_init(obj, *args, **kwargs):
            tracer.tensors_built += 1
            tensor_init(obj, *args, **kwargs)
        self._patch(tensor.Tensor, "__init__", counting_init)

        forward = model.PolicyModel.__dict__["forward"]

        def counting_forward(obj, returns, states, *args, **kwargs):
            before = tracer.tensors_built
            out = forward(obj, returns, states, *args, **kwargs)
            b = np.shape(states)[0]
            key = f"model.forward_calls_b{b}" if b in (1, 32) else "model.forward_calls_other"
            counts[key] += 1
            tracer.nodes_per_forward.setdefault(b, tracer.tensors_built - before)
            return out
        self._patch(model.PolicyModel, "forward", counting_forward)

        run = simulator.run_scenario          # already the traced wrapper

        def counting_run(config, decision_hook=None):
            world = run(config, decision_hook=decision_hook)
            counts["simulator.decisions"] += len(world.records)
            return world
        self._patch(simulator, "run_scenario", counting_run)
        self._patch(evaluation, "run_scenario", counting_run)

        write = simulator.write_klog

        def counting_write(records, path):
            write(records, path)
            with open(path, "rb") as fh:
                counts["simulator.klog_bytes"] += len(fh.read())
        self._patch(simulator, "write_klog", counting_write)

        build = pool.build_pool

        def counting_build(log_files, gamma=0.95):
            p = build(log_files, gamma=gamma)
            counts["pool.steps"] += p.num_steps()
            return p
        self._patch(pool, "build_pool", counting_build)

        step = tensor.sgd_step

        def counting_step(*args, **kwargs):
            counts["training.steps"] += 1
            return step(*args, **kwargs)
        self._patch(tensor, "sgd_step", counting_step)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -------------------------------------------------------------- report

    def span_table(self):
        """Per span name: calls, total host seconds and self host seconds."""
        n = len(SPANS)
        calls = np.zeros(n, dtype=np.int64)
        total = np.zeros(n)
        child = np.zeros(len(self.records))
        for i, (idx, start, end, parent) in enumerate(self.records):
            calls[idx] += 1
            total[idx] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = np.zeros(n)
        for i, (idx, start, end, _) in enumerate(self.records):
            self_s[idx] += (end - start) - child[i]
        return {SPAN_NAMES[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                                "self_s": float(self_s[i])} for i in range(n)}

    def final_counts(self):
        counts = dict(self.counts)
        for b in (1, 32):
            counts[f"tensor.nodes_per_forward_b{b}"] = self.nodes_per_forward.get(b, 0)
        hook, predict = SPAN_NAMES.index("evaluation.LlmEvery.hook"), SPAN_NAMES.index(
            "model.PolicyModel.predict")
        counts["evaluation.model_decisions"] = sum(
            1 for idx, _, _, parent in self.records
            if idx == predict and parent >= 0 and self.records[parent][0] == hook)
        return counts

    def write(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"span_names": SPAN_NAMES,
                       "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": self.records, **extra}, fh)
