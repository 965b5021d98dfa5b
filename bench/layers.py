"""What the traced run wraps in ptcsim, and the per-layer metrics it derives.

Span names are ``<module>.<function>`` (``<module>.<Class>.<method>`` for
methods).  Times are reported per traced round; counts repeat exactly for
a given workload and seed.  Sizes marked "computed" are derived from the
argument shapes and the device noise settings, not measured.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tracer import F64, Target, Tracer, ArgReader, self_times


def _calls(key):
    def build(tr: Tracer, fn):
        def hook(args, kwargs):
            tr.counts[key] += 1
        return hook
    return build


def _mzi_power(tr: Tracer, fn):
    a = ArgReader(fn)

    def hook(args, kwargs):
        tr.counts["devices.mzi_power.calls"] += 1
        tr.counts["devices.mzi_power.elements"] += int(
            np.size(a.get(args, kwargs, "delta_phi_rad")))
    return hook


def _perturbed_phases(tr: Tracer, fn):
    a = ArgReader(fn)

    def hook(args, kwargs):
        shape = np.shape(a.get(args, kwargs, "target_phases"))
        tr.counts["layout.perturbed_phases.calls"] += 1
        tr.counts["layout.perturbed_phases.cores"] += int(np.prod(shape[:-2]))
    return hook


def _coupling_matrices(tr: Tracer, fn):
    a = ArgReader(fn)
    info = getattr(fn, "cache_info", None)

    def hook(args, kwargs):
        misses = info().misses if info else None
        k1 = int(a.get(args, kwargs, "k1"))
        k2 = int(a.get(args, kwargs, "k2"))

        def after(result):
            if info is None or info().misses > misses:
                n = k1 * k2
                tr.counts["layout.coupling_matrices.builds"] += 1
                tr.counts["layout.coupling_table_mb"] += 2 * n * n * F64 / 1e6
        return after
    return hook


def _simulate_mvm_batch(tr: Tracer, fn):
    a = ArgReader(fn)

    def hook(args, kwargs):
        x_shape = np.shape(a.get(args, kwargs, "x"))
        w_shape = np.shape(a.get(args, kwargs, "w"))
        row_shape = np.shape(a.get(args, kwargs, "row_mask"))
        col_shape = np.shape(a.get(args, kwargs, "col_mask"))
        params = a.get(args, kwargs, "params")
        k1, k2 = w_shape[-2:]
        n_vec = x_shape[-1]
        mapped = int(np.prod(np.broadcast_shapes(
            w_shape[:-2], row_shape[:-1], col_shape[:-1])))
        cores = int(np.prod(np.broadcast_shapes(
            w_shape[:-2], x_shape[:-2], row_shape[:-1], col_shape[:-1])))
        c = tr.counts
        c["core.simulate_mvm_batch.calls"] += 1
        c["core.simulate_mvm_batch.cores"] += cores
        c["core.simulate_mvm_batch.core_vectors"] += cores * n_vec
        if params.pd_noise_sigma > 0:
            block = cores * k1 * k2 * n_vec
            c["core.normals_drawn"] += block
            tr.record_max("core.noise_block_mb", block * F64 / 1e6)
        if params.phase_noise_sigma_rad > 0:
            c["core.normals_drawn"] += mapped * k1 * k2
    return hook


def _select_columns(tr: Tracer, fn):
    def hook(args, kwargs):
        tr.counts["sparsity.select_columns_min_power.calls"] += 1

        def after(result):
            tr.counts["sparsity.combinations_scored"] += int(result.n_evaluated)
        return after
    return hook


def _mask_update(tr: Tracer, fn):
    def hook(args, kwargs):
        def after(result):
            info = result[1]
            tr.counts["sparsity.update_scored"] += int(info.n_evaluated)
            tr.counts["sparsity.update_changed"] += int(info.n_changed)
        return after
    return hook


def _column_power(tr: Tracer, fn):
    a = ArgReader(fn)

    def hook(args, kwargs):
        shape = np.shape(a.get(args, kwargs, "col_mask"))
        tr.counts["sparsity.column_power.calls"] += 1
        # One rerouter lookup per (p, q, c) input module of the mask.
        tr.counts["sparsity.rerouter_lookups"] += int(np.prod(shape[:-1]))
    return hook


def _samples_forward(tr: Tracer, fn):
    a = ArgReader(fn)

    def hook(args, kwargs):
        tr.counts["nn.samples_forward"] += len(a.get(args, kwargs, "x"))
    return hook


TARGETS = (
    Target("ptcsim.cli", "main", "cli.main"),
    Target("ptcsim.config", "load_config", "config.load_config"),
    Target("ptcsim.data", "load_dataset", "data.load_dataset"),
    Target("ptcsim.devices", "weight_to_phase", "devices.weight_to_phase"),
    Target("ptcsim.devices", "phase_to_weight", "devices.phase_to_weight"),
    Target("ptcsim.devices", "mzi_power", "devices.mzi_power", _mzi_power),
    Target("ptcsim.devices", "gamma", "devices.gamma"),
    Target("ptcsim.layout", "perturbed_phases", "layout.perturbed_phases",
           _perturbed_phases),
    Target("ptcsim.layout", "coupling_matrices", "layout.coupling_matrices",
           _coupling_matrices),
    Target("ptcsim.core", "simulate_mvm_batch", "core.simulate_mvm_batch",
           _simulate_mvm_batch),
    Target("ptcsim.core", "rerouter_configure", "core.rerouter_configure",
           _calls("core.rerouter_configure.calls")),
    Target("ptcsim.arch", "power", "arch.power"),
    Target("ptcsim.arch", "area", "arch.area"),
    Target("ptcsim.arch", "chunk_power", "arch.chunk_power",
           _calls("arch.chunk_power.calls")),
    Target("ptcsim.arch", "energy", "arch.energy"),
    Target("ptcsim.sparsity", "init_masks", "sparsity.init_masks"),
    Target("ptcsim.sparsity", "prune_step", "sparsity.prune_step", _mask_update),
    Target("ptcsim.sparsity", "grow_step", "sparsity.grow_step", _mask_update),
    Target("ptcsim.sparsity", "select_columns_min_power",
           "sparsity.select_columns_min_power", _select_columns),
    Target("ptcsim.sparsity", "combinations_capped",
           "sparsity.combinations_capped"),
    Target("ptcsim.sparsity", "ColumnPowerModel.power", "sparsity.column_power",
           _column_power),
    Target("ptcsim.nn", "im2col", "nn.im2col"),
    Target("ptcsim.nn", "col2im", "nn.col2im"),
    Target("ptcsim.nn", "Conv2d.forward", "nn.Conv2d.forward"),
    Target("ptcsim.nn", "Conv2d.backward", "nn.Conv2d.backward"),
    Target("ptcsim.nn", "Linear.forward", "nn.Linear.forward"),
    Target("ptcsim.nn", "Linear.backward", "nn.Linear.backward"),
    Target("ptcsim.nn", "Adam.step", "nn.Adam.step"),
    Target("ptcsim.nn", "Sequential.forward", "nn.Sequential.forward",
           _samples_forward),
    Target("ptcsim.training", "train", "training.train"),
    Target("ptcsim.training", "evaluate_accuracy", "training.evaluate_accuracy"),
    Target("ptcsim.training", "model_power_w", "training.model_power_w"),
    Target("ptcsim.training", "PhotonicBackend.__call__",
           "training.PhotonicBackend", _calls("training.PhotonicBackend.calls")),
    Target("ptcsim.training", "evaluate_with_variation",
           "training.evaluate_with_variation"),
    Target("ptcsim.training", "save_checkpoint", "training.save_checkpoint"),
    Target("ptcsim.training", "load_checkpoint", "training.load_checkpoint"),
    Target("ptcsim.sweeps", "run_nmae_study", "sweeps.run_nmae_study"),
    Target("ptcsim.sweeps", "run_progressive", "sweeps.run_progressive"),
    Target("ptcsim.sweeps", "run_sweep", "sweeps.run_sweep"),
    Target("ptcsim.sweeps", "run_report", "sweeps.run_report"),
    Target("ptcsim.sweeps", "write_json", "sweeps.write_json"),
    Target("ptcsim.sweeps", "write_csv", "sweeps.write_csv"),
)

# Spans whose time is data, config or file I/O, reported as one layer.
IO_SPANS = ("config.load_config", "data.load_dataset",
            "training.save_checkpoint", "training.load_checkpoint",
            "sweeps.write_json", "sweeps.write_csv")

DEVICE_SPANS = ("devices.weight_to_phase", "devices.phase_to_weight",
                "devices.mzi_power", "devices.gamma")


def layer_of(span: str) -> str:
    """The layer a span's self time is charged to."""
    return "io" if span in IO_SPANS else span.split(".", 1)[0]


@dataclass(frozen=True)
class Totals:
    """Per-span sums over all traced rounds, plus the boundary counters."""

    self_s: dict
    incl_s: dict
    counts: dict
    maxima: dict
    memo_builds: int


def totals(tracer: Tracer) -> Totals:
    cols = tracer.arrays()
    st = self_times(cols["parent"], cols["start"], cols["end"])
    dur = cols["end"] - cols["start"]
    self_s: dict = defaultdict(float)
    incl_s: dict = defaultdict(float)
    for nid, name in enumerate(tracer.names):
        sel = cols["name"] == nid
        self_s[name] = float(st[sel].sum())
        incl_s[name] = float(dur[sel].sum())
    # Rerouter builds made by the column power model are its memo misses.
    memo_builds = 0
    if {"core.rerouter_configure", "sparsity.column_power"} <= tracer.installed:
        rr = cols["name"] == tracer.name_id("core.rerouter_configure")
        cp = tracer.name_id("sparsity.column_power")
        parents = cols["parent"][rr]
        parents = parents[parents >= 0]
        memo_builds = int((cols["name"][parents] == cp).sum())
    return Totals(self_s, incl_s, dict(tracer.counts),
                  dict(tracer.maxima), memo_builds)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]
    value: Callable[[Totals], float] | None
    per_round: bool = True
    any_of: bool = False    # present while any one of ``needs`` is


def _self(span):
    return Metric(f"{span}.self_s", "s", "lower", (span,),
                  lambda t: t.self_s[span])


def _incl(span):
    return Metric(f"{span}.s", "s", "lower", (span,),
                  lambda t: t.incl_s[span])


def _count(name, span, unit="count"):
    return Metric(name, unit, "lower", (span,), lambda t: t.counts.get(name, 0))


def _ratio(num, den):
    return num / den if den else 0.0


PER_LAYER = (
    *(_incl(s) for s in IO_SPANS),
    Metric("devices.self_s", "s", "lower", DEVICE_SPANS,
           lambda t: sum(t.self_s[s] for s in DEVICE_SPANS), any_of=True),
    _count("devices.mzi_power.calls", "devices.mzi_power"),
    _count("devices.mzi_power.elements", "devices.mzi_power"),
    _self("layout.perturbed_phases"),
    _count("layout.perturbed_phases.calls", "layout.perturbed_phases"),
    _count("layout.perturbed_phases.cores", "layout.perturbed_phases"),
    _self("layout.coupling_matrices"),
    _count("layout.coupling_matrices.builds", "layout.coupling_matrices"),
    _count("layout.coupling_table_mb", "layout.coupling_matrices", "MB"),
    _self("core.simulate_mvm_batch"),
    _count("core.simulate_mvm_batch.calls", "core.simulate_mvm_batch"),
    _count("core.simulate_mvm_batch.cores", "core.simulate_mvm_batch"),
    _count("core.simulate_mvm_batch.core_vectors", "core.simulate_mvm_batch"),
    _count("core.normals_drawn", "core.simulate_mvm_batch"),
    Metric("core.noise_block_mb", "MB", "lower", ("core.simulate_mvm_batch",),
           lambda t: t.maxima.get("core.noise_block_mb", 0.0), per_round=False),
    _self("core.rerouter_configure"),
    _count("core.rerouter_configure.calls", "core.rerouter_configure"),
    _self("arch.power"),
    _self("arch.area"),
    _self("arch.chunk_power"),
    _count("arch.chunk_power.calls", "arch.chunk_power"),
    _self("arch.energy"),
    _self("sparsity.init_masks"),
    _self("sparsity.prune_step"),
    _self("sparsity.grow_step"),
    _self("sparsity.select_columns_min_power"),
    _count("sparsity.select_columns_min_power.calls",
           "sparsity.select_columns_min_power"),
    _count("sparsity.combinations_scored", "sparsity.select_columns_min_power"),
    _self("sparsity.combinations_capped"),
    _count("sparsity.column_power.calls", "sparsity.column_power"),
    _self("sparsity.column_power"),
    Metric("sparsity.rerouter_memo_hit_ratio", "1", "higher",
           ("sparsity.column_power", "core.rerouter_configure"),
           lambda t: 1.0 - _ratio(t.memo_builds,
                                  t.counts.get("sparsity.rerouter_lookups", 0))
           if t.counts.get("sparsity.rerouter_lookups") else 0.0,
           per_round=False),
    Metric("sparsity.scored_per_changed_column", "1", "lower",
           ("sparsity.prune_step", "sparsity.grow_step"),
           lambda t: _ratio(t.counts.get("sparsity.update_scored", 0),
                            t.counts.get("sparsity.update_changed", 0)),
           per_round=False),
    _self("nn.Conv2d.forward"),
    _self("nn.Conv2d.backward"),
    _self("nn.Linear.forward"),
    _self("nn.Linear.backward"),
    _self("nn.im2col"),
    _self("nn.col2im"),
    _self("nn.Adam.step"),
    _count("nn.samples_forward", "nn.Sequential.forward"),
    _self("training.train"),
    _self("training.evaluate_accuracy"),
    _self("training.model_power_w"),
    _self("training.PhotonicBackend"),
    _count("training.PhotonicBackend.calls", "training.PhotonicBackend"),
    _self("training.evaluate_with_variation"),
    _self("sweeps.run_nmae_study"),
    _self("sweeps.run_progressive"),
    _self("sweeps.run_sweep"),
    _self("sweeps.run_report"),
)

# The traced run adds this one; it is not derived from spans.
OVERHEAD = Metric("trace.overhead_s", "s", "lower", (), None)


def per_layer_metrics(t: Totals, installed, n_rounds: int):
    """Metrics as {name: (value, unit)} per traced round, and the absent names.

    A metric is absent when a span it needs could not be installed (for
    a sum over spans, when none of them could).
    """
    out, absent = {}, []
    for m in PER_LAYER:
        have = [s in installed for s in m.needs]
        if not (any(have) if m.any_of else all(have)):
            absent.append(m.name)
            continue
        value = m.value(t)
        out[m.name] = (value / n_rounds if m.per_round else value, m.unit)
    return out, absent


def layer_shares(t: Totals) -> dict[str, float]:
    """Each layer's share of the traced command time (self time / cli.main)."""
    total = t.incl_s.get("cli.main", 0.0)
    shares: dict[str, float] = defaultdict(float)
    for span, s in t.self_s.items():
        shares[layer_of(span)] += s
    return {k: (v / total if total else 0.0) for k, v in sorted(shares.items())}
