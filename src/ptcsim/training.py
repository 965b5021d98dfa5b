"""Sparse quantized training on the modeled hardware, end to end.

``train`` runs the prune/grow loop over a small network: masks are
initialized per sparse layer, weights are re-masked in place after every
optimizer step, and once per epoch the column masks are updated from the
epoch-mean dense gradients (pruning by weight norm, growing by gradient
norm, both refined by modeled power).  The final 20% of epochs run with
frozen masks so accuracy can settle.

``evaluate_with_variation`` replays a trained model through the noisy
hardware path: every conv/linear product runs as one mapped layer, every
core with crosstalk and phase noise, every output with detector noise,
under a chosen execution mode.  The last linear layer is mapped
crosstalk-free (its columns are assumed spread out on chip), matching how
a deployment would protect the classifier head.
"""

from __future__ import annotations

import json
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .arch import ArchConfig, energy
# simulate_mvm_batch: bound for bench/test_bench.py::test_tracer_wraps_every_binding_and_restores_them
from .core import (ExecutionMode, check_threads, derive_rng, nmae, simulate_layer,
                   simulate_mvm_batch)
from .devices import DeviceModelError, DeviceParams, GammaFit
from .layout import LayoutParams
from .nn import (
    Adam,
    Sequential,
    _MatmulLayer,
    build_desk_convnet,
    build_toy_mlp,
    softmax_cross_entropy,
)
from .sparsity import (
    DstSchedule,
    SparsityMask,
    grow_step,
    init_masks,
    mask_power,
    partition,
    prune_step,
    weight_scale,
)

CHECKPOINT_FORMAT = "ptcsim-checkpoint-1"

# Architecture the desk-scale models are mapped on: small cores so that an
# 8x8 chunk grid produces several chunks per layer.
DESK_ARCH = ArchConfig(R=2, C=2, k1=4, k2=4, r=2, c=2)


class Workspace:
    """One float64 scratch array for the backends of one evaluation.

    :meth:`take` hands out its first ``n`` elements, growing it when ``n``
    is larger than any size asked for so far, so the backends of every
    layer and trial reuse the pages of the largest layer's input instead
    of each call writing fresh ones.  What :meth:`take` returns is valid
    until the next call; one caller at a time.
    """

    def __init__(self):
        self._buf = np.empty(0)

    def take(self, n: int) -> np.ndarray:
        if self._buf.size < n:
            self._buf = np.empty(n)
        return self._buf[:n]


class PhotonicBackend:
    """Routes one layer's 2-D matrix product through the hardware model.

    Weights are normalized per tensor to [-1, 1] and activations to [0, 1]
    (both rescaled back after detection), partitioned into (r*k1) x (c*k2)
    chunks and run as one :func:`~ptcsim.core.simulate_layer` call.  Each
    call scores the product's N-MAE against the exact masked reference
    (unless that reference is all zero); ``nmae_log`` lists the scores in
    call order.

    The normalized, zero-padded input is written into ``workspace`` (a
    :class:`Workspace` that backends may share, or by default one of the
    backend's own); the caller's ``x2d`` is never written.

    With ``pool`` (an executor, as :func:`evaluate_with_variation` opens
    one), the work the light path does not need at once runs on it, as
    three jobs per call in this order: the exact reference product,
    submitted before the light path so that it reads ``x2d`` while the
    layer still holds it; the light path's detector normals (see
    :func:`~ptcsim.core.simulate_layer`); and, after the light path, the
    N-MAE against the reference.  The caller must not write ``x2d``
    before reading ``nmae_log``, which waits for the jobs and raises the
    first error of one.  The generator draws the same numbers in the same
    order, and the scoring runs the same operations on the same operands,
    so neither the products nor the log depend on ``pool``.  Without one,
    every job runs inline when it is due.  The scoring reads the product,
    so the product comes back read-only.
    """

    def __init__(self, mask: SparsityMask, arch: ArchConfig,
                 device: DeviceParams, layout: LayoutParams, fit: GammaFit,
                 mode: ExecutionMode, rng: np.random.Generator,
                 output_gating: bool = True, coupling_free: bool = False,
                 workspace: Workspace | None = None,
                 pool: Executor | None = None):
        self.mask = mask
        self.arch = arch
        self.device = device
        self.layout = layout
        self.fit = fit
        self.mode = mode
        self.rng = rng
        self.output_gating = output_gating
        self.coupling_free = coupling_free
        self.workspace = Workspace() if workspace is None else workspace
        self.pool = pool
        self._log: list[float] = []
        self._scoring: list[Future] = []

    @property
    def nmae_log(self) -> list[float]:
        """The N-MAE of each call whose reference is not all zero, in call
        order, once every scoring job submitted so far has finished."""
        while self._scoring:
            score = self._scoring[0].result()
            del self._scoring[0]
            if score is not None:
                self._log.append(score)
        return self._log

    def __call__(self, w2d: np.ndarray, x2d: np.ndarray) -> np.ndarray:
        arch = self.arch
        w = np.asarray(w2d, dtype=float)
        x = np.asarray(x2d, dtype=float)
        c_out, fan_in = w.shape
        w_scale = weight_scale(w)
        x_max = float(x.max()) if x.size else 0.0
        x_scale = x_max if x_max > 0 else 1.0
        w6 = partition(w / w_scale, arch)
        q, m = w6.shape[1], x.shape[1]
        padded = q * arch.chunk_cols
        xp = self.workspace.take(padded * m).reshape(padded, m)
        np.divide(x, x_scale, out=xp[:fan_in])
        xp[fan_in:] = 0.0
        # The exact reference is submitted first, so that it has read x
        # before the layer's forward lets go of it; its N-MAE follows the
        # light path.
        ref = np.empty((c_out, m))
        referenced = _start(self.pool, partial(
            np.matmul, w * self.mask.to_dense(c_out, fan_in), x, out=ref))
        y = simulate_layer(
            xp.reshape(q, arch.c, arch.k2, m), w6, self.mask.row,
            self.mask.col, self.mode, self.layout, self.device, self.fit,
            self.rng, self.output_gating, self.coupling_free, self.pool)
        y2d = y[:c_out] * (w_scale * x_scale)
        y2d.flags.writeable = False
        self._scoring.append(_start(self.pool, partial(
            _score, y2d, ref, np.empty_like(ref), referenced)))
        return y2d


def _start(pool: Executor | None, job) -> Future:
    """``job`` submitted to ``pool``; without one, run at once (its error
    raises here) and handed back as a finished future."""
    if pool is not None:
        return pool.submit(job)
    done = Future()
    done.set_result(job())
    return done


def _score(y: np.ndarray, ref: np.ndarray, scratch: np.ndarray,
           referenced: Future) -> float | None:
    """``nmae(y, ref)``, with ``scratch`` (``ref``'s shape) for its
    intermediates, once ``referenced`` has filled ``ref``; None where the
    N-MAE is undefined (an all-zero reference)."""
    referenced.result()
    try:
        return nmae(y, ref, scratch)
    except DeviceModelError:
        return None


def _dense_mask(layer: _MatmulLayer, arch: ArchConfig, device: DeviceParams,
                layout: LayoutParams, fit: GammaFit) -> SparsityMask:
    """All-on mask for an unsparsified layer (padding columns stay off)."""
    return init_masks(1.0, layer.w.shape[0], layer.w.shape[1], arch,
                      layer.w, device, layout, fit)


def evaluate_accuracy(model: Sequential, x: np.ndarray, y: np.ndarray,
                      batch_size: int = 512) -> float:
    hits = 0
    for start in range(0, len(x), batch_size):
        logits = model.forward(x[start:start + batch_size], train=False)
        hits += int((logits.argmax(axis=1) == y[start:start + batch_size]).sum())
    return hits / len(x)


def model_power_w(model: Sequential, masks: dict[int, SparsityMask],
                  arch: ArchConfig, device: DeviceParams,
                  layout: LayoutParams, fit: GammaFit,
                  x_probe: np.ndarray) -> float:
    """Modeled average power (W) of running the network's mapped layers.

    A probe forward records how many im2col vectors each layer consumes
    per sample; each layer then contributes (its layer power averaged over
    chunk mappings, its cycle count) to an energy accumulation.  Covers
    the hardware slice serving one chunk at a time — the workload's
    marginal power, which is the quantity mask selection optimizes.
    """
    model.forward(x_probe[:1], train=False)
    schedule = []
    for idx, layer in enumerate(model.layers):
        if not isinstance(layer, _MatmulLayer):
            continue
        mask = masks.get(idx) or _dense_mask(layer, arch, device, layout, fit)
        w6 = partition(layer.w, arch)
        p, q = w6.shape[:2]
        avg_mw = mask_power(mask, w6, arch, device, layout, fit) / (p * q)
        cycles = p * q * layer.vectors_per_sample
        schedule.append((avg_mw, cycles))
    _, p_avg_w = energy(arch.f_ghz, schedule)
    return p_avg_w


@dataclass
class TrainResult:
    model: Sequential
    sparse_layers: list[int]
    masks: dict[int, SparsityMask]
    history: list[dict]
    meta: dict


def train(model: Sequential, sparse_layers: list[int], data: tuple,
          s: float, schedule: DstSchedule, arch: ArchConfig,
          device: DeviceParams, layout: LayoutParams,
          fit: GammaFit = GammaFit(), epochs: int = 40, lr: float = 2e-3,
          batch_size: int = 64, seed: int = 0,
          meta: dict | None = None, threads: int = 1) -> TrainResult:
    """Quantization-aware dynamic sparse training (density target ``s``).

    ``data`` is (x_train, y_train, x_test, y_test).  Masks update after
    every epoch before ``schedule.t_end``; with s >= 0.5 the column masks
    are full and there is nothing to explore, so training reduces to
    fixed-row-mask quantization-aware training.  Aborts with a diagnostic
    if the loss stops being finite.

    With ``threads`` >= 2, one worker thread computes the weight gradients
    while the calling thread runs the input-gradient chain
    (:meth:`Sequential.backward`); one chain of weight products has no
    more parallelism in it.  The result does not depend on ``threads``.
    """
    check_threads(threads)
    x_train, y_train, x_test, y_test = data
    masks: dict[int, SparsityMask] = {}
    dense_m: dict[int, np.ndarray] = {}
    explore: dict[int, bool] = {}
    for idx in sparse_layers:
        layer = model.layers[idx]
        mask = init_masks(s, layer.w.shape[0], layer.w.shape[1], arch,
                          layer.w, device, layout, fit)
        masks[idx] = mask
        dense_m[idx] = mask.to_dense(*layer.w.shape)
        layer.w *= dense_m[idx]
        explore[idx] = int(mask.col.sum()) < int(mask.usable.sum())

    opt = Adam(model.params(), lr=lr)
    history: list[dict] = []
    n = len(x_train)
    with (ThreadPoolExecutor(max_workers=1) if threads > 1
          else nullcontext()) as pool:
        for t in range(epochs):
            perm = derive_rng(seed, 100, t).permutation(n)
            grad_acc = {idx: np.zeros_like(model.layers[idx].w)
                        for idx in sparse_layers}
            loss_sum, n_batches = 0.0, 0
            for start in range(0, n, batch_size):
                batch = perm[start:start + batch_size]
                logits = model.forward(x_train[batch], train=True)
                loss, dlogits = softmax_cross_entropy(logits, y_train[batch])
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"training diverged at epoch {t} (loss={loss}); "
                        "lower the learning rate or check the data scaling")
                model.backward(dlogits, pool)
                for idx in sparse_layers:
                    grad_acc[idx] += model.layers[idx].dw
                    model.layers[idx].dw *= dense_m[idx]
                opt.step()
                for idx in sparse_layers:
                    model.layers[idx].w *= dense_m[idx]
                loss_sum += loss
                n_batches += 1

            if t < schedule.t_end:
                for idx in sparse_layers:
                    if not explore[idx]:
                        continue
                    layer = model.layers[idx]
                    w6 = partition(layer.w, arch)
                    g6 = partition(grad_acc[idx] / n_batches, arch)
                    pruned, _ = prune_step(masks[idx], w6, schedule, t, arch,
                                           device, layout, fit)
                    grown, _ = grow_step(pruned, g6, w6, s, schedule, arch,
                                         device, layout, fit)
                    masks[idx] = grown
                    dense_m[idx] = grown.to_dense(*layer.w.shape)
                    layer.w *= dense_m[idx]

            acc = evaluate_accuracy(model, x_test, y_test)
            density = (float(np.mean([m.density() for m in masks.values()]))
                       if masks else 1.0)
            p_avg = model_power_w(model, masks, arch, device, layout, fit, x_test)
            history.append({"epoch": t, "loss": loss_sum / n_batches,
                            "accuracy": acc, "density": density,
                            "power_w": p_avg})

    return TrainResult(model, list(sparse_layers), masks, history,
                       dict(meta or {}, density_target=s, seed=seed,
                            epochs=epochs))


def evaluate_with_variation(model: Sequential, masks: dict[int, SparsityMask],
                            arch: ArchConfig, device: DeviceParams,
                            layout: LayoutParams, fit: GammaFit,
                            mode: ExecutionMode | str, n_trials: int,
                            seed: int, x: np.ndarray, y: np.ndarray,
                            output_gating: bool = True, threads: int = 1) -> dict:
    """Accuracy and per-layer N-MAE through the noisy hardware path.

    Every conv/linear layer runs on the simulated cores; the final linear
    layer is mapped crosstalk-free.  The backends of every layer and trial
    share one :class:`Workspace` for their inputs.  Returns clean accuracy
    (exact arithmetic), the per-trial noisy accuracies with their mean and
    sample std (None for one trial), and mean N-MAE per layer.

    With ``threads`` >= 2, one worker thread, open for the whole
    evaluation, serves every backend (:class:`PhotonicBackend`'s ``pool``):
    it computes each product's exact reference and draws its detector
    normals while the calling thread realizes and contracts, and scores
    the product's N-MAE while the calling thread goes on through the
    network.  The calls of one generator run one after another on the
    calling thread, and each waits for its own draw before it returns, so
    every generator yields the same numbers in the same order as without
    the worker.  One worker already keeps pace with the calling thread,
    so a larger ``threads`` adds none.  The result does not depend on
    ``threads``.
    """
    check_threads(threads)
    if n_trials < 1:
        raise DeviceModelError("n_trials must be >= 1")
    if not isinstance(mode, ExecutionMode):
        mode = ExecutionMode.parse(str(mode))
    clean = evaluate_accuracy(model, x, y)

    mapped = [(idx, layer) for idx, layer in enumerate(model.layers)
              if isinstance(layer, _MatmulLayer)]
    last_idx = mapped[-1][0]
    layer_masks = {idx: masks.get(idx)
                   or _dense_mask(layer, arch, device, layout, fit)
                   for idx, layer in mapped}

    trial_accs: list[float] = []
    layer_nmae: dict[str, list[float]] = {layer.name: [] for _, layer in mapped}
    workspace = Workspace()
    with (ThreadPoolExecutor(max_workers=1) if threads > 1
          else nullcontext()) as pool:
        for trial in range(n_trials):
            backends = {}
            for idx, layer in mapped:
                backends[idx] = PhotonicBackend(
                    layer_masks[idx], arch, device, layout, fit, mode,
                    rng=derive_rng(seed, 300, trial, idx),
                    output_gating=output_gating,
                    coupling_free=(idx == last_idx), workspace=workspace,
                    pool=pool)
                layer.photonic = backends[idx]
            try:
                trial_accs.append(evaluate_accuracy(model, x, y))
            finally:
                for _, layer in mapped:
                    layer.photonic = None
            for idx, layer in mapped:
                if backends[idx].nmae_log:
                    layer_nmae[layer.name].append(
                        float(np.mean(backends[idx].nmae_log)))

    accs = np.asarray(trial_accs)
    return {
        "mode": mode.value,
        "output_gating": output_gating,
        "clean_accuracy": clean,
        "noisy_accuracy_mean": float(accs.mean()),
        "noisy_accuracy_std": float(accs.std(ddof=1)) if n_trials > 1 else None,
        "trial_accuracies": [float(a) for a in trial_accs],
        "layer_nmae": {name: (float(np.mean(v)) if v else None)
                       for name, v in layer_nmae.items()},
    }


def _mask_to_json(mask: SparsityMask) -> dict:
    return {"row": mask.row.astype(int).tolist(),
            "col": mask.col.astype(int).tolist(),
            "padded_col": mask.padded_col.astype(int).tolist()}


def _mask_from_json(obj: dict) -> SparsityMask:
    return SparsityMask(np.asarray(obj["row"], dtype=bool),
                        np.asarray(obj["col"], dtype=bool),
                        np.asarray(obj["padded_col"], dtype=bool))


def save_checkpoint(path: str | Path, result: TrainResult,
                    arch: ArchConfig, schedule: DstSchedule) -> None:
    """Persist weights, masks and training history as deterministic JSON."""
    layers = [{"name": layer.name, "w": layer.w.tolist(), "b": layer.b.tolist()}
              for layer in result.model.matmul_layers()]
    obj = {
        "format": CHECKPOINT_FORMAT,
        "meta": result.meta,
        "arch": asdict(arch),
        "schedule": asdict(schedule),
        "layers": layers,
        "sparse_layers": result.sparse_layers,
        "masks": {str(k): _mask_to_json(m) for k, m in result.masks.items()},
        "history": result.history,
    }
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1,
                                     allow_nan=False) + "\n")


def load_checkpoint(path: str | Path
                    ) -> tuple[Sequential, list[int], dict[int, SparsityMask],
                               ArchConfig, dict]:
    """Rebuild a trained model (and its masks) from a checkpoint file."""
    obj = json.loads(Path(path).read_text())
    if obj.get("format") != CHECKPOINT_FORMAT:
        raise DeviceModelError(f"unsupported checkpoint format: {obj.get('format')!r}")
    meta = obj["meta"]
    quant = tuple(meta.get("quant", (8, 6)))
    kind = meta.get("model_kind", "desk_convnet")
    rng = derive_rng(0)
    if kind == "desk_convnet":
        model, _ = build_desk_convnet(rng, quant)
    elif kind == "toy_mlp":
        args = meta["model_args"]
        model, _ = build_toy_mlp(rng, args["d_in"], args["hidden"],
                                 args["classes"], quant)
    else:
        raise DeviceModelError(f"unknown model kind in checkpoint: {kind!r}")
    stored = {entry["name"]: entry for entry in obj["layers"]}
    for layer in model.matmul_layers():
        entry = stored[layer.name]
        layer.w[...] = np.asarray(entry["w"], dtype=float)
        layer.b[...] = np.asarray(entry["b"], dtype=float)
    masks = {int(k): _mask_from_json(v) for k, v in obj["masks"].items()}
    arch = ArchConfig(**{k: tuple(v) if isinstance(v, list) else v
                         for k, v in obj["arch"].items()})
    return model, list(obj["sparse_layers"]), masks, arch, obj
