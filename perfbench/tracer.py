"""Call tracer for the benchmark's traced run.

The tracer times calls into the public callables of each fedassoc module from
outside the package. `agents` and `baselines` import `forward`, `backward`,
`sgd_apply` and friends by name, so patching `fedassoc.nn` alone would record
nothing: every module-level name bound to a traced function is replaced, in
every loaded fedassoc module, and traced methods are replaced on their class.
Everything is restored when the `installed()` context exits.

Each call is a span with a parent (the innermost traced call around it). Spans
are aggregated in memory per callable and per (parent, callable) edge; a
callable's self time is its span minus the spans of its traced children. The
counts some callables record (flops, bytes, values) are computed from the call's
arguments and result after its span ends, and that work is charged to no span.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (metric name, unit) for every per-layer metric, in report order.
LAYER_METRICS = [
    *[
        (f"nn.{fn}.{kind}.{q}", unit)
        for fn in ("forward", "backward")
        for kind in ("local", "wide")
        for q, unit in (("calls", "count"), ("self_ms", "ms"), ("mflop", "MFLOP"))
    ],
    ("nn.wide.useful_fraction", "ratio"),
    ("nn.sgd_apply.calls", "count"),
    ("nn.sgd_apply.self_ms", "ms"),
    ("nn.clip_global_norm.calls", "count"),
    ("nn.clip_global_norm.self_ms", "ms"),
    ("nn.clip_global_norm.clipped", "count"),
    ("nn.copy_into_target.calls", "count"),
    ("nn.save_net.calls", "count"),
    ("nn.save_net.self_ms", "ms"),
    ("nn.save_net.bytes", "B"),
    ("nn.load_net.calls", "count"),
    ("nn.load_net.self_ms", "ms"),
    ("env.step.calls", "count"),
    ("env.step.self_ms", "ms"),
    ("env.reset.calls", "count"),
    ("env.reset.self_ms", "ms"),
    ("replay.add.calls", "count"),
    ("replay.add.self_ms", "ms"),
    ("replay.sample.calls", "count"),
    ("replay.sample.self_ms", "ms"),
    ("replay.sample.bytes", "B"),
    *[
        (f"agents.{fn}.{q}", unit)
        for fn in ("select_actions", "compute_targets", "train_step_lead", "train_step_follow")
        for q, unit in (("calls", "count"), ("self_ms", "ms"))
    ],
    ("agents.sync_targets.calls", "count"),
    ("agents.encrypt_q.calls", "count"),
    ("agents.encrypt_q.values", "count"),
    ("agents.save.self_ms", "ms"),
    ("agents.save.replay_fill", "ratio"),
    ("agents.load.self_ms", "ms"),
    ("baselines.update.calls", "count"),
    ("baselines.update.self_ms", "ms"),
    ("baselines.ddqn_target.calls", "count"),
    ("baselines.ddqn_target.self_ms", "ms"),
    ("baselines.fedavg.calls", "count"),
    ("baselines.fedavg.self_ms", "ms"),
    ("baselines.fedavg.bytes", "B"),
    ("metrics.add.calls", "count"),
    ("metrics.add.self_ms", "ms"),
    ("metrics.write_metrics_csv.self_ms", "ms"),
    ("metrics.write_metrics_csv.bytes", "B"),
    ("metrics.write_ts_log_csv.self_ms", "ms"),
    ("metrics.write_ts_log_csv.bytes", "B"),
    ("harness.run_experiment.self_ms", "ms"),
    ("harness.run_single.self_ms", "ms"),
    ("harness.write_summary.self_ms", "ms"),
    ("cli.main.calls", "count"),
    ("cli.main.self_ms", "ms"),
]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    return x.shape[0] if getattr(x, "ndim", None) == 2 else 1


def _matmul_size(net) -> int:
    """Multiply-adds of one sample through the net's affine layers."""
    return sum(w.size for w in net.weights)


class Tracer:
    """Aggregated spans and counts of the traced callables of one run."""

    def __init__(self, wide_width: int):
        self.wide_width = wide_width
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, self seconds
        self.counts: dict[str, float] = defaultdict(int)
        self.edges: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def _wrap(self, key, fn, measure):
        """Return fn timed as a span; `key` is a name or a function of the net."""
        stack = self._stack
        stats = self.stats
        edges = self.edges
        clock = time.perf_counter
        fixed = key if isinstance(key, str) else None

        def traced(*args, **kwargs):
            name = fixed or key(args[0] if args else kwargs["net"])
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                record = stats[name]
                record[0] += 1
                record[1] += span - frame[1]
                parent = stack[-1] if stack else None
                edge = edges[(parent[0] if parent else None, name)]
                edge[0] += 1
                edge[1] += span
            if measure is not None:
                measure(self, name, args, kwargs, result)
            if parent is not None:
                # The parent's self time excludes this span and the measuring.
                parent[1] += clock() - start
            return result

        traced.__wrapped__ = fn
        return traced

    def _width_key(self, prefix):
        wide, wide_name, local_name = self.wide_width, f"{prefix}.wide", f"{prefix}.local"
        return lambda net: wide_name if net.weights[-1].shape[0] == wide else local_name

    # -- counts ------------------------------------------------------------------

    def _forward(self, name, args, kwargs, result):
        net, x = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "x")
        self.counts[name + ".mflop"] += 2e-6 * _rows(x) * _matmul_size(net)

    def _backward(self, name, args, kwargs, result):
        net = _arg(args, kwargs, 0, "net")
        dout = np.asarray(_arg(args, kwargs, 2, "output_gradient"))
        # Weight gradient and input gradient: two products per layer.
        self.counts[name + ".mflop"] += 4e-6 * _rows(dout) * _matmul_size(net)
        if name.endswith(".wide"):
            self.counts["nn.wide.useful"] += np.count_nonzero(dout)
            self.counts["nn.wide.computed"] += dout.size

    def _clip(self, name, args, kwargs, result):
        max_norm = _arg(args, kwargs, 1, "max_norm")
        if np.isfinite(max_norm) and result > max_norm:
            self.counts[f"{name}.clipped"] += 1

    def _batch_bytes(self, name, args, kwargs, result):
        self.counts[f"{name}.bytes"] += sum(v.nbytes for v in vars(result).values())

    def _q_values(self, name, args, kwargs, result):
        self.counts[f"{name}.values"] += np.size(_arg(args, kwargs, 0, "q"))

    def _replay_fill(self, name, args, kwargs, result):
        buffer = args[0].buffer
        self.counts[f"{name}.replay_fill"] = len(buffer) / buffer.capacity

    def _file_bytes(self, name, args, kwargs, result):
        self.counts[f"{name}.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _param_bytes(self, name, args, kwargs, result):
        nets = _arg(args, kwargs, 0, "nets")
        self.counts[f"{name}.bytes"] += sum(
            w.nbytes + b.nbytes for n in nets for w, b in zip(n.weights, n.biases)
        )

    # -- installation -------------------------------------------------------------

    def _targets(self):
        """(key, module, owner class or None, attribute, measure) to trace."""
        fwd, bwd = self._width_key("nn.forward"), self._width_key("nn.backward")
        return [
            (fwd, "nn", None, "forward", Tracer._forward),
            (bwd, "nn", None, "backward", Tracer._backward),
            ("nn.sgd_apply", "nn", None, "sgd_apply", None),
            ("nn.clip_global_norm", "nn", None, "clip_global_norm", Tracer._clip),
            ("nn.copy_into_target", "nn", None, "copy_into_target", None),
            ("nn.save_net", "nn", None, "save_net", Tracer._file_bytes),
            ("nn.load_net", "nn", None, "load_net", None),
            ("env.step", "env", "EdgeAssocEnv", "step", None),
            ("env.reset", "env", "EdgeAssocEnv", "reset", None),
            ("replay.add", "replay", "ReplayBuffer", "add", None),
            ("replay.sample", "replay", "ReplayBuffer", "sample", Tracer._batch_bytes),
            ("agents.select_actions", "agents", "FederatedTrainer", "select_actions", None),
            ("agents.compute_targets", "agents", "FederatedTrainer", "compute_targets", None),
            ("agents.train_step_lead", "agents", "FederatedTrainer", "train_step_lead", None),
            ("agents.train_step_follow", "agents", "FederatedTrainer", "train_step_follow", None),
            ("agents.sync_targets", "agents", "FederatedTrainer", "sync_targets", None),
            ("agents.save", "agents", "FederatedTrainer", "save", Tracer._replay_fill),
            ("agents.load", "agents", "FederatedTrainer", "load", None),
            ("agents.encrypt_q", "agents", None, "encrypt_q", Tracer._q_values),
            ("baselines.update", "baselines", "_DdqnHead", "update", None),
            ("baselines.ddqn_target", "baselines", None, "ddqn_target", None),
            ("baselines.fedavg", "baselines", None, "fedavg", Tracer._param_bytes),
            ("metrics.add", "metrics", "MetricAccumulator", "add", None),
            ("metrics.write_metrics_csv", "metrics", None, "write_metrics_csv", Tracer._file_bytes),
            ("metrics.write_ts_log_csv", "metrics", None, "write_ts_log_csv", Tracer._file_bytes),
            ("harness.run_experiment", "harness", None, "run_experiment", None),
            ("harness.run_single", "harness", None, "run_single", None),
            ("harness.write_summary", "harness", None, "write_summary", None),
            ("cli.main", "cli", None, "main", None),
        ]

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import fedassoc  # noqa: F401  (loads every module that binds a traced name)

        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fedassoc"]
        for key, module, cls_name, attr, measure in self._targets():
            mod = sys.modules[f"fedassoc.{module}"]
            if cls_name is None:
                original = getattr(mod, attr)
                traced = self._wrap(key, original, measure)
                for m in loaded:
                    for bound, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, bound, traced)
            else:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(key, raw.__func__, measure)))
                else:
                    self._patch(cls, attr, self._wrap(key, raw, measure))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------------

    def value(self, metric: str) -> float:
        key, quantity = metric.rsplit(".", 1)
        if metric == "nn.wide.useful_fraction":
            computed = self.counts["nn.wide.computed"]
            return float(self.counts["nn.wide.useful"] / computed) if computed else 0.0
        calls, self_s = self.stats.get(key, (0, 0.0))
        if quantity == "calls":
            return calls
        if quantity == "self_ms":
            return self_s * 1e3
        return self.counts.get(metric, 0)

    def layer_metrics(self) -> dict:
        return {name: {"value": self.value(name), "unit": unit} for name, unit in LAYER_METRICS}

    def spans(self) -> list[dict]:
        """Aggregated (parent, callable) edges, for the trace file."""
        return [
            {"parent": parent, "name": name, "calls": calls, "total_ms": total * 1e3}
            for (parent, name), (calls, total) in sorted(
                self.edges.items(), key=lambda kv: -kv[1][1]
            )
        ]
