"""Outside-in span recorder for mclkit's public functions and methods.

The recorder wraps library functions and methods from the benchmark's side;
no library file changes.  Every wrapped call made while the tracer is active
becomes one span: name, start, end and parent span, appended to flat arrays
kept in memory and written out when the run ends.  A span's self time is its
duration minus the time its direct children cover.

A name bound by ``from ... import`` is a second reference to the same
function object, so after wrapping ``module.f`` every ``mclkit`` module
attribute that *is* the original ``f`` is rebound to the wrapper.  Lazy
imports inside function bodies (as in ``mclkit.cli``) read the module
attribute at call time and therefore pick up the wrapper on their own.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
import zlib
from array import array

import numpy as np

# Module functions traced by name, per layer module.
FUNCTIONS = {
    "tensor": ["mode_k_product", "multi_mode_product", "hosvd_factors"],
    "losses": ["cross_entropy", "symmetric_kl", "l1_loss"],
    "models": ["build_mcl", "build_prior", "hosvd_init"],
    "optimize": ["train", "max_norm_project", "augment"],
    "distill": [
        "train_prior_supervised", "train_prior_semisup", "stage1_transfer",
        "stage2_transfer", "stage3_transfer", "train_mclwp", "train_mclwp_semisup",
        "train_mcl_baseline", "train_mclwop", "self_label_select", "copy_stack_params",
    ],
    "evaluate": ["accuracy", "knn_compressive", "run_ablation", "compare_prior_effect"],
    "datasets": ["read_split", "write_split", "load_dataset", "save_dataset", "split_semisup"],
    "checkpoint": [
        "dumps", "loads", "save_checkpoint", "load_checkpoint", "restore_parameters",
        "content_crc", "checkpoint_crc",
    ],
    "cli": ["main"],
}

# Span names shortened to the metric names used in reports.
SPAN_ALIASES = {
    "optimize.max_norm_project": "optimize.max_norm",
    "optimize.AdamState.step": "optimize.adam_step",
}


class Tracer:
    """Flat span store plus per-iteration counters filled by call hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self.active = False
        self.reset_counters()

    def reset_counters(self):
        self.counts: dict[str, float] = {}
        self.teacher_stacks: frozenset = frozenset()
        self.teacher_rows: set = set()
        self.stage_keys: set = set()
        self.ablation_depth = 0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def __len__(self):
        return len(self.start)

    def write(self, path) -> None:
        """Write every recorded span (name, start, end, parent) to ``path``."""
        np.savez_compressed(
            path,
            names=np.asarray(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _wrap(tracer: Tracer, name: str, fn, hook=None):
    """Wrap ``fn`` in a span named ``name``.

    ``hook(args, kwargs)`` runs before the call and may return
    ``post(result, seconds)``, which runs after it; hooks fill counters.
    """
    nid = tracer.intern(SPAN_ALIASES.get(name, name))

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        post = hook(args, kwargs) if hook is not None else None
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if post is not None:
            post(result, tracer.end[idx] - tracer.start[idx])
        return result

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


def _rebind(original, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "mclkit" or mod_name.startswith("mclkit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


# --- hooks: counters measured at the layer boundary --------------------------

def _conv_fwd_hook(tracer):
    def hook(args, kwargs):
        layer, x = args[0], args[1]
        b, h, w, cin = x.shape
        k, cout = layer.kernel_size, layer.out_channels
        tracer.add("layers.conv2d.flop", 2.0 * b * h * w * k * k * cin * cout)
        tracer.add("layers.conv2d.bytes",
                   (x.size + b * h * w * cout + layer.w.value.size) * x.itemsize)
        return None
    return hook


def _conv_bwd_hook(tracer):
    def hook(args, kwargs):
        layer, grad = args[0], args[1]
        b, h, w, cout = grad.shape
        k, cin = layer.kernel_size, layer.in_channels
        # weight gradient plus input gradient: two products of forward size
        tracer.add("layers.conv2d.flop", 4.0 * b * h * w * k * k * cin * cout)
        tracer.add("layers.conv2d.bytes",
                   (grad.size + 2 * b * h * w * cin + 2 * layer.w.value.size) * grad.itemsize)
        return None
    return hook


def _mode_product_hook(tracer):
    def hook(args, kwargs):
        t, w = np.asarray(args[0]), np.asarray(args[1])
        rows = w.shape[0] if w.ndim == 2 else 0
        tracer.add("tensor.mode_k_product.flop", 2.0 * t.size * rows)
        out_size = t.size // max(w.shape[-1], 1) * rows if w.ndim == 2 else 0
        tracer.add("tensor.mode_k_product.bytes", (t.size + w.size + out_size) * t.itemsize)
        return None
    return hook


def _stack_fwd_hook(tracer):
    def hook(args, kwargs):
        stack, x = args[0], np.asarray(args[1])
        if id(stack) not in tracer.teacher_stacks:
            return None
        rows = np.ascontiguousarray(x).reshape(len(x), -1)
        tracer.add("distill.teacher_fwd_samples", len(rows))
        sid = id(stack)
        for r in rows:
            tracer.teacher_rows.add((sid, hash(r.tobytes())))

        def post(result, seconds):
            tracer.add("distill.teacher_fwd_s", seconds)
        return post
    return hook


def _objective_hook(tracer):
    def hook(args, kwargs):
        outer = tracer.teacher_stacks
        tracer.teacher_stacks = frozenset(id(s) for s in getattr(args[0], "teacher_path", ()))

        def post(result, seconds):
            tracer.teacher_stacks = outer
        return post
    return hook


def _crc_arrays(arrays) -> int:
    crc = 0
    for a in arrays:
        if a is not None:
            crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
    return crc


def _train_hook(tracer):
    def hook(args, kwargs):
        if tracer.ablation_depth <= 0:
            return None
        objective, train_x, train_y = args[:3]
        cfg = args[5] if len(args) > 5 else kwargs["cfg"]
        # A stage run's result is fixed by what it starts from: the objective
        # kind, the frozen reference stacks, the trainable values, the data
        # and the config.  Equal keys mean repeated work.
        key = (
            type(objective).__name__,
            tuple(id(s) for s in getattr(objective, "teacher_path", ())),
            _crc_arrays(p.value for s in objective.trainable for p in s.params),
            _crc_arrays((train_x, train_y)),
            repr(cfg),
        )
        tracer.add("evaluate.ablation.stage_runs", 1)
        tracer.stage_keys.add(key)
        return None
    return hook


def _ablation_hook(tracer):
    def hook(args, kwargs):
        tracer.ablation_depth += 1

        def post(result, seconds):
            tracer.ablation_depth -= 1
        return post
    return hook


def _resident_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _knn_hook(tracer):
    # Resident-memory growth during the call, sampled every 2 ms by a helper
    # thread; tracemalloc would trace every small allocation and triple the
    # call's time.
    def hook(args, kwargs):
        base = _resident_bytes()
        peak = [base]
        done = threading.Event()

        def sample():
            while not done.wait(0.002):
                peak[0] = max(peak[0], _resident_bytes())

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()

        def post(result, seconds):
            done.set()
            sampler.join()
            peak[0] = max(peak[0], _resident_bytes())
            tracer.counts["evaluate.knn_peak_mb"] = max(
                tracer.counts.get("evaluate.knn_peak_mb", 0.0), (peak[0] - base) / 2**20)
        return post
    return hook


def _read_split_hook(tracer):
    def hook(args, kwargs):
        tracer.add("datasets.read_split_mb", os.path.getsize(args[0]) / 2**20)
        return None
    return hook


def _dumps_hook(tracer):
    def hook(args, kwargs):
        def post(result, seconds):
            tracer.add("checkpoint.bytes", len(result))
        return post
    return hook


def _loads_hook(tracer):
    def hook(args, kwargs):
        tracer.add("checkpoint.bytes", len(args[0]))
        return None
    return hook


FUNCTION_HOOKS = {
    "tensor.mode_k_product": _mode_product_hook,
    "optimize.train": _train_hook,
    "evaluate.run_ablation": _ablation_hook,
    "evaluate.knn_compressive": _knn_hook,
    "datasets.read_split": _read_split_hook,
    "checkpoint.dumps": _dumps_hook,
    "checkpoint.loads": _loads_hook,
}


def instrument(tracer: Tracer, mclkit) -> None:
    """Wrap the traced functions and methods of an imported ``mclkit``."""
    for mod_name, fn_names in FUNCTIONS.items():
        mod = importlib.import_module(f"mclkit.{mod_name}")
        for fn_name in fn_names:
            original = getattr(mod, fn_name)
            span = f"{mod_name}.{fn_name}"
            make_hook = FUNCTION_HOOKS.get(span)
            wrapper = _wrap(tracer, span, original, make_hook(tracer) if make_hook else None)
            setattr(mod, fn_name, wrapper)
            _rebind(original, wrapper)

    layers = mclkit.layers
    for cls in vars(layers).values():
        if isinstance(cls, type) and issubclass(cls, layers.Layer) and cls is not layers.Layer:
            for method, suffix in (("forward", "fwd"), ("backward", "bwd")):
                if method not in vars(cls):
                    continue
                hook = None
                if cls.kind == "conv2d":
                    hook = (_conv_fwd_hook if suffix == "fwd" else _conv_bwd_hook)(tracer)
                setattr(cls, method, _wrap(tracer, f"layers.{cls.kind}.{suffix}",
                                           vars(cls)[method], hook))
    stack = layers.LayerStack
    stack.forward = _wrap(tracer, "layers.stack.fwd", vars(stack)["forward"],
                          _stack_fwd_hook(tracer))
    stack.backward = _wrap(tracer, "layers.stack.bwd", vars(stack)["backward"])

    optimize = mclkit.optimize
    optimize.AdamState.step = _wrap(tracer, "optimize.AdamState.step",
                                    vars(optimize.AdamState)["step"])
    for cls in vars(optimize).values():
        if isinstance(cls, type) and issubclass(cls, optimize.Objective) \
                and cls is not optimize.Objective:
            for method in ("batch_loss", "val_metric"):
                if method in vars(cls):
                    setattr(cls, method, _wrap(tracer, f"optimize.{method}",
                                               vars(cls)[method], _objective_hook(tracer)))


# --- per-iteration aggregation -------------------------------------------------

def _span_table(tracer: Tracer, lo: int, hi: int):
    """Per-name total duration, self time and call count of spans [lo, hi)."""
    n_names = len(tracer.names)
    if hi <= lo:
        zeros = np.zeros(n_names)
        return zeros, zeros, zeros, 0.0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)[lo:hi].astype(np.int64)
    start = np.frombuffer(tracer.start, dtype=np.float64)[lo:hi]
    end = np.frombuffer(tracer.end, dtype=np.float64)[lo:hi]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi].astype(np.int64)
    dur = end - start
    local_parent = np.where(parent >= 0, parent - lo, -1)
    child = np.zeros(hi - lo)
    has_parent = local_parent >= 0
    np.add.at(child, local_parent[has_parent], dur[has_parent])
    self_time = dur - child
    total = np.bincount(nid, weights=dur, minlength=n_names)
    selft = np.bincount(nid, weights=self_time, minlength=n_names)
    calls = np.bincount(nid, minlength=n_names).astype(float)
    top = float(dur[~has_parent].sum())
    return total, selft, calls, top, nid, local_parent


def iteration_metrics(tracer: Tracer, lo: int, hi: int, wall_s: float) -> dict:
    """Per-layer figures of one traced iteration (spans ``[lo, hi)``)."""
    total, selft, calls, top, nid, local_parent = _span_table(tracer, lo, hi)
    ids = tracer._ids

    def t(name):
        return float(total[ids[name]]) if name in ids else 0.0

    def s(name):
        return float(selft[ids[name]]) if name in ids else 0.0

    def c(name):
        return float(calls[ids[name]]) if name in ids else 0.0

    counts = tracer.counts
    m = {}
    m["tensor.mode_k_product.calls"] = c("tensor.mode_k_product")
    m["tensor.mode_k_product.self_s"] = s("tensor.mode_k_product")
    m["tensor.mode_k_product.gflop"] = counts.get("tensor.mode_k_product.flop", 0.0) / 1e9
    m["tensor.mode_k_product.gbytes"] = counts.get("tensor.mode_k_product.bytes", 0.0) / 1e9
    m["tensor.multi_mode_product.self_s"] = s("tensor.multi_mode_product")
    m["tensor.hosvd_factors_s"] = t("tensor.hosvd_factors")

    for kind in ("mode_projection", "conv2d", "maxpool2", "relu", "upsample2", "dense",
                 "global_avg_pool", "flatten"):
        fwd, bwd = f"layers.{kind}.fwd", f"layers.{kind}.bwd"
        m[f"layers.{kind}.fwd_s"] = t(fwd)
        m[f"layers.{kind}.bwd_s"] = t(bwd)
        m[f"layers.{kind}.time_s"] = t(fwd) + t(bwd)
        m[f"layers.{kind}.self_s"] = s(fwd) + s(bwd)
        m[f"layers.{kind}.fwd_calls"] = c(fwd)
        m[f"layers.{kind}.bwd_calls"] = c(bwd)
    conv_time = m["layers.conv2d.time_s"]
    m["layers.conv2d.gflop"] = counts.get("layers.conv2d.flop", 0.0) / 1e9
    m["layers.conv2d.gbytes"] = counts.get("layers.conv2d.bytes", 0.0) / 1e9
    m["layers.conv2d.gflop_per_s"] = m["layers.conv2d.gflop"] / conv_time if conv_time else 0.0
    m["layers.stack.self_s"] = s("layers.stack.fwd") + s("layers.stack.bwd")

    for fn in ("cross_entropy", "symmetric_kl", "l1_loss"):
        m[f"losses.{fn}.self_s"] = s(f"losses.{fn}")

    m["models.build_s"] = t("models.build_mcl") + t("models.build_prior")
    m["models.hosvd_init_s"] = t("models.hosvd_init")

    m["optimize.steps"] = c("optimize.adam_step")
    m["optimize.train_s"] = t("optimize.train")
    m["optimize.batch_loss_s"] = t("optimize.batch_loss")
    m["optimize.adam_step.self_s"] = s("optimize.adam_step")
    m["optimize.max_norm.self_s"] = s("optimize.max_norm")
    m["optimize.augment.self_s"] = s("optimize.augment")
    m["optimize.val_metric_s"] = t("optimize.val_metric")

    m["distill.procedures"] = float(_procedures_under_distill(tracer, nid, local_parent))
    samples = counts.get("distill.teacher_fwd_samples", 0.0)
    m["distill.teacher_fwd_samples"] = samples
    m["distill.teacher_fwd_s"] = counts.get("distill.teacher_fwd_s", 0.0)
    m["distill.teacher_fwd_useful_ratio"] = len(tracer.teacher_rows) / samples if samples else 0.0
    m["distill.self_label_select_s"] = t("distill.self_label_select")

    runs = counts.get("evaluate.ablation.stage_runs", 0.0)
    m["evaluate.ablation.stage_runs"] = runs
    m["evaluate.ablation.distinct_stage_ratio"] = len(tracer.stage_keys) / runs if runs else 0.0
    m["evaluate.accuracy_s"] = t("evaluate.accuracy")
    m["evaluate.knn_s"] = t("evaluate.knn_compressive")
    m["evaluate.knn_peak_mb"] = counts.get("evaluate.knn_peak_mb", 0.0)

    m["datasets.read_split_s"] = t("datasets.read_split")
    m["datasets.read_split_mb"] = counts.get("datasets.read_split_mb", 0.0)

    m["checkpoint.dumps_s"] = t("checkpoint.dumps")
    m["checkpoint.loads_s"] = t("checkpoint.loads")
    m["checkpoint.bytes"] = counts.get("checkpoint.bytes", 0.0)
    m["checkpoint.content_crc.calls"] = c("checkpoint.content_crc")

    m["cli.main.calls"] = c("cli.main")
    m["cli.main.self_s"] = s("cli.main")

    m["trace.spans"] = float(hi - lo)
    m["trace.top_coverage"] = top / wall_s if wall_s > 0 else 0.0
    return m


def _procedures_under_distill(tracer: Tracer, nid, local_parent) -> int:
    """Number of ``optimize.train`` spans nested under any ``distill.*`` span."""
    ids = tracer._ids
    if "optimize.train" not in ids:
        return 0
    distill_ids = {i for name, i in ids.items() if name.startswith("distill.")}
    count = 0
    for idx in np.flatnonzero(nid == ids["optimize.train"]):
        p = local_parent[idx]
        while p >= 0:
            if nid[p] in distill_ids:
                count += 1
                break
            p = local_parent[p]
    return count
