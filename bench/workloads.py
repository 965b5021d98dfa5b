"""The benchmark's four workloads: the ptcsim commands of one round, the
checks on their outputs, and the figures each round yields.

A round runs its commands through ``ptcsim.cli.main`` exactly as the
``ptcsim`` command does.  Checks read the files the commands wrote and run
after the round, outside the timed sections.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks

L_G_VALUES = (1.0, 3.0, 5.0)   # run_nmae_study's default gaps (um)
SPARSE_DENSITY = 0.3           # below 0.5: the column masks explore
REPLAY_DENSITY = 0.5           # column masks full: no column search
REPLAY_L_G_UM = 1.0
# The desk CNN converges in a few epochs at this rate on blobs; the default
# 2e-3 needs tens of epochs before every seed is well above chance.
TRAIN_LR = 0.01


@dataclass(frozen=True)
class Size:
    """How much work one round does."""

    nmae_trials: int      # study seeds of the fidelity study
    nmae_vectors: int     # activation vectors per study seed
    sigma_vectors: int    # vectors of the detector-noise check
    sparse_epochs: int
    replay_epochs: int
    eval_trials: int


FULL = Size(nmae_trials=40, nmae_vectors=8, sigma_vectors=4000,
            sparse_epochs=4, replay_epochs=4, eval_trials=5)
# For the benchmark's own tests: every command and check, less work.
TINY = Size(nmae_trials=20, nmae_vectors=8, sigma_vectors=1000,
            sparse_epochs=3, replay_epochs=2, eval_trials=1)


@dataclass
class Op:
    """One CLI command of a round and the check of its output."""

    name: str
    argv: list[str]
    check: Callable[[], None]


@dataclass
class Plan:
    """A workload's inputs for one run: the commands of a round, the
    directories they write, and the figures a finished round yields."""

    ops: list[Op]
    dirs: list[Path]
    figures: Callable[[dict], dict]
    cache: dict = field(default_factory=dict)

    def reset(self) -> None:
        """Empty the output directories, so no round reads another's files."""
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _read_history(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def _global(seed: int, out: Path, threads: int, config: Path | None = None) -> list[str]:
    argv = ["--seed", str(seed), "--out", str(out), "--threads", str(threads)]
    if config is not None:
        argv += ["--config", str(config)]
    return argv


def _write_config(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return path


# -- fidelity_study --------------------------------------------------------

def core_properties(ptc: SimpleNamespace, seed: int, n_vectors: int) -> None:
    """Noiseless exactness and the detector-noise scale of one 16x16 core."""
    core, devices = ptc.core, ptc.devices
    mode = core.ExecutionMode
    k1 = k2 = 16
    rng = np.random.default_rng([seed, 7001])
    w = rng.uniform(-1.0, 1.0, size=(k1, k2))
    x = rng.uniform(0.0, 1.0, size=(k2, n_vectors))
    quiet = devices.DeviceParams(pd_noise_sigma=0.0, phase_noise_sigma_rad=0.0)
    y = core.simulate_mvm(x, w, mode=mode.PRUNE_ONLY, params=quiet,
                          rng_seed=seed, coupling_free=True)
    checks.check_quiet_product(y, w, x)

    detector = devices.DeviceParams(phase_noise_sigma_rad=0.0)
    y = core.simulate_mvm(x, w, mode=mode.PRUNE_ONLY, params=detector,
                          rng_seed=seed, coupling_free=True)
    checks.check_detector_sigma(y - w @ x, detector.pd_noise_sigma, k2, k2, False)

    k2_alive = k2 // 4
    col = np.zeros(k2, dtype=bool)
    col[rng.permutation(k2)[:k2_alive]] = True
    y = core.simulate_mvm(x, w, col_mask=col, mode=mode.INPUT_GATING_LR,
                          params=detector, rng_seed=seed, coupling_free=True)
    checks.check_detector_sigma(y - (w * col) @ x, detector.pd_noise_sigma,
                                k2, k2_alive, True)


def fidelity_study(ptc, root: Path, seed: int, size: Size, threads: int) -> Plan:
    out = root / "nmae"

    def check():
        checks.check_nmae_study(_read_json(out / "nmae.json"), L_G_VALUES)
        core_properties(ptc, seed, size.sigma_vectors)

    def figures(times):
        rows = _read_json(out / "nmae.json")["rows"]
        lr = next(r for r in rows if r["study"] == "col_mode"
                  and r["mode"] == "input_gating_lr"
                  and r["l_g_um"] == L_G_VALUES[0] and r["col_density"] == 0.25)
        return {"nmae_seeds_per_s": (size.nmae_trials / times["nmae"], "1/s", "host"),
                "lr_nmae": (lr["mean_nmae"], "1", "simulated")}

    argv = _global(seed, out, threads) + [
        "nmae", "--trials", str(size.nmae_trials),
        "--vectors", str(size.nmae_vectors)]
    return Plan([Op("nmae", argv, check)], [out], figures)


# -- sparse_training and train_replay --------------------------------------

def _blobs(ptc, plan: Plan, seed: int):
    """The blobs split the commands train on, loaded once for the checks."""
    if "data" not in plan.cache:
        plan.cache["data"] = ptc.data.load_dataset("blobs", seed)
    return plan.cache["data"]


def _full_column_power(ptc, out: Path, config: Path, x_test) -> float:
    """Modeled power of the checkpoint's weights with every usable column on."""
    model, _, masks, arch, _ = ptc.training.load_checkpoint(out / "checkpoint.json")
    full = {idx: m.with_col(~np.broadcast_to(m.padded_col[None], m.col.shape))
            for idx, m in masks.items()}
    cfg = ptc.config.load_config(config)
    return ptc.training.model_power_w(model, full, arch, cfg.device, cfg.layout,
                                      ptc.devices.GammaFit(), x_test)


def _train_argv(seed, out, threads, config, density, epochs):
    return _global(seed, out, threads, config) + [
        "train", "--dataset", "blobs", "--density", str(density),
        "--epochs", str(epochs)]


def sparse_training(ptc, root: Path, seed: int, size: Size, threads: int) -> Plan:
    out = root / "train"
    config = _write_config(root / "sparse_training.json", {"dst": {"lr": TRAIN_LR}})

    def check():
        history = _read_history(out / "metrics.csv")
        checks.check_sparse_checkpoint(_read_json(out / "checkpoint.json"),
                                       history, SPARSE_DENSITY)
        x_test = _blobs(ptc, plan, seed)[2]
        checks.check_power_below_full(
            history[-1]["power_w"], _full_column_power(ptc, out, config, x_test))

    def figures(times):
        last = _read_history(out / "metrics.csv")[-1]
        n_train = len(_blobs(ptc, plan, seed)[0])
        return {"train_samples_per_s":
                    (size.sparse_epochs * n_train / times["train"], "1/s", "host"),
                "modeled_power_w": (last["power_w"], "W", "simulated"),
                "test_accuracy": (last["accuracy"], "1", "simulated")}

    argv = _train_argv(seed, out, threads, config, SPARSE_DENSITY, size.sparse_epochs)
    plan = Plan([Op("train", argv, check)], [out], figures)
    return plan


def train_replay(ptc, root: Path, seed: int, size: Size, threads: int) -> Plan:
    out = root / "train"
    gated_out, ungated_out = root / "eval_lr", root / "eval_prune_only"
    config = _write_config(root / "train_replay.json",
                           {"dst": {"lr": TRAIN_LR},
                            "layout": {"l_g_um": REPLAY_L_G_UM}})
    ckpt = out / "checkpoint.json"

    def check_train():
        checks.check_full_columns(_read_json(ckpt))

    def check_gated():
        checks.check_evaluation(_read_history(out / "metrics.csv"),
                                _read_json(gated_out / "evaluate.json"))

    def check_ungated():
        ungated = _read_json(ungated_out / "evaluate.json")
        checks.check_evaluation(_read_history(out / "metrics.csv"), ungated)
        checks.check_gating_payoff(_read_json(gated_out / "evaluate.json"), ungated)

    def figures(times):
        last = _read_history(out / "metrics.csv")[-1]
        x_train, _, x_test, _ = _blobs(ptc, plan, seed)
        eval_s = times["evaluate_lr"] + times["evaluate_prune_only"]
        gated = _read_json(gated_out / "evaluate.json")
        return {"train_samples_per_s":
                    (size.replay_epochs * len(x_train) / times["train"], "1/s", "host"),
                "eval_samples_per_s":
                    (len(x_test) * size.eval_trials * 2 / eval_s, "1/s", "host"),
                "modeled_power_w": (last["power_w"], "W", "simulated"),
                "test_accuracy": (last["accuracy"], "1", "simulated"),
                "noisy_accuracy": (gated["noisy_accuracy_mean"], "1", "simulated")}

    def evaluate(out_dir, mode, *extra):
        return _global(seed, out_dir, threads, config) + [
            "evaluate", "--checkpoint", str(ckpt), "--mode", mode,
            "--trials", str(size.eval_trials), *extra]

    ops = [
        Op("train", _train_argv(seed, out, threads, config, REPLAY_DENSITY,
                                size.replay_epochs), check_train),
        Op("evaluate_lr", evaluate(gated_out, "input_gating_lr"), check_gated),
        Op("evaluate_prune_only",
           evaluate(ungated_out, "prune_only", "--no-output-gating"), check_ungated),
    ]
    plan = Plan(ops, [out, gated_out, ungated_out], figures)
    return plan


# -- design_walk -----------------------------------------------------------

def design_walk(ptc, root: Path, seed: int, size: Size, threads: int) -> Plan:
    out = root / "walk"
    argv = _global(seed, out, threads)

    def figures(times):
        rows = _read_json(out / "progressive.json")["rows"]
        first, last = rows[0], rows[-1]
        walk_s = times["report"] + times["sweep"] + times["progressive"]
        return {"walks_per_s": (1.0 / walk_s, "1/s", "host"),
                "power_saving_x": (first["p_avg_w"] / last["p_avg_w"], "x", "simulated"),
                "area_reduction_x": (first["area_mm2"] / last["area_mm2"], "x",
                                     "simulated")}

    ops = [
        Op("report", argv + ["report"],
           lambda: checks.check_report(_read_json(out / "report.json"))),
        Op("sweep", argv + ["sweep"],
           lambda: checks.check_sweep(_read_json(out / "sweep.json"))),
        Op("progressive", argv + ["progressive"],
           lambda: checks.check_walk(_read_json(out / "progressive.json"))),
    ]
    return Plan(ops, [out], figures)


WORKLOADS = {
    "fidelity_study": fidelity_study,
    "sparse_training": sparse_training,
    "train_replay": train_replay,
    "design_walk": design_walk,
}
