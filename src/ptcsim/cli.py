"""Command-line entry point.

Usage::

    ptcsim [--config cfg.json] [--seed N] [--out DIR]
           [--format csv|json] [--threads N] <command> [options]

Commands: ``validate``, ``report``, ``sweep``, ``progressive``, ``nmae``,
``simulate``, ``train``, ``evaluate``.  Exit codes: 0 success, 1 bad
configuration, 2 runtime failure (argparse usage errors also exit 2).
All outputs are deterministic for a given config and seed — no
timestamps, no machine state.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import Config, ConfigError, load_config, resolve_seed
from .core import ExecutionMode, derive_rng
from .data import load_dataset, resolve_dataset
from .devices import GammaFit
from .layout import coupling_matrices
from .nn import build_desk_convnet
from .sweeps import (
    TABLE_COLUMNS,
    run_nmae_study,
    run_progressive,
    run_report,
    run_simulate,
    run_sweep,
    write_csv,
    write_json,
)
from .training import (
    DESK_ARCH,
    evaluate_with_variation,
    load_checkpoint,
    save_checkpoint,
    train,
)


def build_parser() -> argparse.ArgumentParser:
    def count(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        return value

    parser = argparse.ArgumentParser(
        prog="ptcsim",
        description="Design studies for sparse photonic tensor-core "
                    "accelerators: power/area reports, parameter sweeps, "
                    "noise studies, and sparse on-hardware training.")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config with sections device, layout, "
                             "arch, dst, sweep (default: all built-ins)")
    parser.add_argument("--seed", type=int, default=None,
                        help="root RNG seed; beats the config's top-level seed")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="directory for output files (default: .)")
    parser.add_argument("--format", choices=("csv", "json"), default="json",
                        dest="fmt", help="output file format (default: json)")
    parser.add_argument("--threads", type=count, default=1,
                        help="worker threads that split each seed block of "
                             "nmae; from 2 on, train computes its weight "
                             "gradients on one worker and evaluate draws its "
                             "detector noise and scores its N-MAE on one; "
                             "report, sweep and progressive ignore it. Outputs do "
                             "not depend on it. Pair it with one BLAS thread "
                             "(OPENBLAS_NUM_THREADS=1) so the two do not "
                             "oversubscribe the cores (default: 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate",
                   help="check the config and echo its effective values")
    p_report = sub.add_parser("report", help="dense power/area/PAP snapshot")
    p_report.add_argument("--dump-coupling", action="store_true",
                          help="also write the per-core thermal coupling "
                               "matrices as CSV")
    sub.add_parser("sweep", help="grid sweep over the configured axes")
    sub.add_parser("progressive", help="stage-by-stage design walk from a "
                                       "dense foundry baseline")
    p_nmae = sub.add_parser("nmae", help="noise/fidelity study on a "
                                         "synthetic 64-channel conv layer")
    p_nmae.add_argument("--trials", type=int, default=1000,
                        help="random seeds per variant (default: 1000)")
    p_nmae.add_argument("--vectors", type=int, default=8,
                        help="activation vectors per seed (default: 8)")
    p_sim = sub.add_parser("simulate",
                           help="one random crossbar product in every mode")
    p_sim.add_argument("--vectors", type=int, default=4)
    p_train = sub.add_parser("train", help="quantization-aware sparse "
                                           "training on a small dataset")
    p_train.add_argument("--dataset", choices=("digits", "blobs"),
                         default="digits")
    p_train.add_argument("--epochs", type=int, default=None,
                         help="override dst.epochs")
    p_train.add_argument("--density", type=float, default=None,
                         help="override dst.density")
    p_eval = sub.add_parser("evaluate", help="replay a training checkpoint "
                                             "through the noisy hardware")
    p_eval.add_argument("--checkpoint", required=True, metavar="PATH")
    p_eval.add_argument("--mode", default="input_gating_lr",
                        help="execution mode (default: input_gating_lr)")
    p_eval.add_argument("--trials", type=int, default=5,
                        help="noise trials (default: 5)")
    p_eval.add_argument("--no-output-gating", action="store_true")
    return parser


def _effective_config(cfg: Config) -> dict:
    out: dict = {"seed": cfg.seed}
    for section in ("device", "layout", "arch", "dst", "sweep"):
        obj = getattr(cfg, section)
        data = dataclasses.asdict(obj)
        if section == "layout":
            data["l_h_um"] = obj.l_h_um
        out[section] = data
    return out


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_validate(args, cfg: Config, seed: int) -> int:
    obj = {"schema": "ptcsim-config-1", "effective_seed": seed,
           "config": _effective_config(cfg)}
    text = json.dumps(obj, sort_keys=True, indent=2)
    print(text)
    write_json(_out_dir(args) / "validate.json", obj)
    return 0


def _cmd_report(args, cfg: Config, seed: int) -> int:
    rep = run_report(cfg)
    out = _out_dir(args)
    if args.fmt == "csv":
        write_csv(out / "report.csv", TABLE_COLUMNS, [rep["row"]])
    else:
        write_json(out / "report.json", rep)
    row = rep["row"]
    print(f"P_avg = {row['p_avg_w']:.3f} W, area = {row['area_mm2']:.3f} mm^2, "
          f"PAP = {row['pap_w_mm2']:.1f} W*mm^2 "
          f"(l_s = {row['l_s_um']} um, l_g = {row['l_g_um']} um)")
    if args.dump_coupling:
        g_pos, g_neg = coupling_matrices(cfg.arch.k1, cfg.arch.k2,
                                         cfg.layout, GammaFit())
        rows = [{"victim": i, "aggressor": j,
                 "g_pos": float(g_pos[i, j]), "g_neg": float(g_neg[i, j])}
                for i in range(g_pos.shape[0]) for j in range(g_pos.shape[1])]
        write_csv(out / "coupling.csv",
                  ("victim", "aggressor", "g_pos", "g_neg"), rows)
        print(f"coupling matrices ({g_pos.shape[0]}x{g_pos.shape[1]}) -> "
              f"{out / 'coupling.csv'}")
    return 0


def _cmd_sweep(args, cfg: Config, seed: int) -> int:
    res = run_sweep(cfg)
    out = _out_dir(args)
    if args.fmt == "csv":
        write_csv(out / "sweep.csv", res["columns"], res["rows"])
    else:
        write_json(out / "sweep.json", res)
    n_err = sum(1 for r in res["rows"] if r["error"] is not None)
    print(f"swept {len(res['rows'])} points ({n_err} failed)")
    if res["min_pap_index"] is not None:
        best = res["rows"][res["min_pap_index"]]
        axes = ", ".join(f"{p}={best[p]}" for p, _ in cfg.sweep.axes)
        print(f"minimum PAP {best['pap_w_mm2']:.1f} W*mm^2 at {axes}")
    return 0


def _cmd_progressive(args, cfg: Config, seed: int) -> int:
    res = run_progressive(cfg, seed)
    out = _out_dir(args)
    if args.fmt == "csv":
        write_csv(out / "progressive.csv", res["columns"], res["rows"])
    else:
        write_json(out / "progressive.json", res)
    for row in res["rows"]:
        print(f"stage {row['stage']} {row['name']:<22} "
              f"P = {row['p_avg_w']:8.3f} W  A = {row['area_mm2']:8.3f} mm^2  "
              f"PAP = {row['pap_w_mm2']:10.3f}")
    return 0


def _cmd_nmae(args, cfg: Config, seed: int) -> int:
    res = run_nmae_study(cfg, seed, n_seeds=args.trials,
                         n_vectors=args.vectors, threads=args.threads)
    out = _out_dir(args)
    if args.fmt == "csv":
        write_csv(out / "nmae.csv", res["columns"], res["rows"])
    else:
        write_json(out / "nmae.json", res)
    for comp in res["comparisons"]:
        extra = (f" density={comp['col_density']}"
                 if "col_density" in comp else "")
        z = "n/a" if comp["z"] is None else f"{comp['z']:.2f}"
        print(f"l_g={comp['l_g_um']}{extra}: {comp['claim']}: z = {z}")
    return 0


def _cmd_simulate(args, cfg: Config, seed: int) -> int:
    res = run_simulate(cfg, seed, n_vectors=args.vectors)
    write_json(_out_dir(args) / "simulate.json", res)
    for mode, entry in res["modes"].items():
        print(f"{mode:<18} N-MAE = {entry['nmae']:.5f}")
    return 0


def _load_dataset(name: str, seed: int):
    """(name actually loaded, data); says so on stderr when it differs."""
    loaded = resolve_dataset(name)
    if loaded != name:
        print(f"note: dataset '{name}' needs scikit-learn, which is not "
              f"installed; using '{loaded}' instead", file=sys.stderr)
    return loaded, load_dataset(loaded, seed)


def _cmd_train(args, cfg: Config, seed: int) -> int:
    overrides = {"density": args.density, "epochs": args.epochs}
    dst = dataclasses.replace(
        cfg.dst, **{k: v for k, v in overrides.items() if v is not None})
    schedule = dst.schedule()
    dataset, data = _load_dataset(args.dataset, seed)
    model, sparse_ids = build_desk_convnet(
        derive_rng(seed, 10), quant=(DESK_ARCH.b_w, DESK_ARCH.b_in))
    result = train(model, sparse_ids, data, s=dst.density, schedule=schedule,
                   arch=DESK_ARCH, device=cfg.device, layout=cfg.layout,
                   epochs=dst.epochs, lr=dst.lr,
                   batch_size=dst.batch_size, seed=seed,
                   meta={"model_kind": "desk_convnet",
                         "quant": [DESK_ARCH.b_w, DESK_ARCH.b_in],
                         "dataset": dataset},
                   threads=args.threads)
    out = _out_dir(args)
    save_checkpoint(out / "checkpoint.json", result, DESK_ARCH, schedule)
    write_csv(out / "metrics.csv",
              ("epoch", "loss", "accuracy", "density", "power_w"),
              result.history)
    last = result.history[-1]
    print(f"trained {dst.epochs} epochs on '{dataset}': "
          f"accuracy = {last['accuracy']:.4f}, density = {last['density']:.4f}, "
          f"modeled P = {last['power_w']:.4f} W")
    print(f"checkpoint -> {out / 'checkpoint.json'}")
    return 0


def _cmd_evaluate(args, cfg: Config, seed: int) -> int:
    model, sparse_ids, masks, arch, obj = load_checkpoint(args.checkpoint)
    meta = obj["meta"]
    _, (_, _, x_test, y_test) = _load_dataset(meta.get("dataset", "digits"),
                                              int(meta["seed"]))
    res = evaluate_with_variation(
        model, masks, arch, cfg.device, cfg.layout, GammaFit(),
        mode=ExecutionMode.parse(args.mode), n_trials=args.trials, seed=seed,
        x=x_test, y=y_test, output_gating=not args.no_output_gating,
        threads=args.threads)
    write_json(_out_dir(args) / "evaluate.json", res)
    print(f"clean accuracy  = {res['clean_accuracy']:.4f}")
    std = res["noisy_accuracy_std"]
    spread = "" if std is None else f"+/- {std:.4f} "
    print(f"noisy accuracy  = {res['noisy_accuracy_mean']:.4f} {spread}"
          f"({args.trials} trials, mode = {res['mode']})")
    for name, value in res["layer_nmae"].items():
        if value is not None:
            print(f"  {name:<8} N-MAE = {value:.5f}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "progressive": _cmd_progressive,
    "nmae": _cmd_nmae,
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = resolve_seed(args.seed, cfg)
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args, cfg, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 -- CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
