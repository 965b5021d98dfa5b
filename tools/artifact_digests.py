"""Digest the artifacts of a fixed set of ptcsim commands.

Usage::

    python tools/artifact_digests.py OUT_DIR

Runs, through ``ptcsim.cli.main`` and each into its own directory under
``OUT_DIR`` (which must be new or empty):

* ``report`` and ``sweep``;
* ``nmae --trials 10 --vectors 4`` twice, on two threads (``--threads
  2``, into ``nmae``) and on one (``--threads 1``, into
  ``nmae_threads_1``): a split of the seeds into two slices and the
  one-slice case of the same split;
* ``progressive`` at seeds 0-5;
* ``train --dataset blobs --epochs 4`` with ``dst.lr`` 0.01 at seeds 1-3
  and densities 0.3 and 0.5, and once more at seed 1 and density 0.3
  with ``--threads 2`` (into ``train_threads_2``): its weight gradients
  computed on a worker thread, so its ``checkpoint.json`` and
  ``metrics.csv`` must carry ``train_1_0.3``'s digests;
* ``evaluate --trials 2`` on the seed-1, density-0.3 checkpoint, once
  more with ``--threads 2`` (into ``evaluate_threads_2``): its noise drawn
  and its N-MAE scored on a worker thread, so its ``evaluate.json`` must
  carry ``evaluate``'s digest; and ``evaluate --mode prune_only
  --no-output-gating --trials 2`` on the seed-1, density-0.5 one.

Then prints one ``sha256  path`` line per file in ``OUT_DIR`` (the
artifacts and the training config it writes), sorted by path.  The
package is imported from this checkout's ``src``, so running the script
in two checkouts and comparing the outputs with ``diff`` shows whether a
change keeps every artifact byte-identical.  Command output goes to
stderr.  Exits 1 if any command fails (the rest still run), 2 if
``OUT_DIR`` is not empty.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ptcsim.cli import main  # noqa: E402


def commands(root: Path, config: Path) -> list[list[str]]:
    """The argv of every command, in run order; each ``evaluate`` comes
    after the ``train`` whose checkpoint it reads."""
    runs = [["--out", str(root / "report"), "report"],
            ["--out", str(root / "sweep"), "sweep"],
            ["--out", str(root / "nmae"), "--threads", "2", "nmae", "--trials",
             "10", "--vectors", "4"],
            ["--out", str(root / "nmae_threads_1"), "--threads", "1", "nmae",
             "--trials", "10", "--vectors", "4"]]
    runs += [["--seed", str(seed), "--out", str(root / f"progressive_{seed}"),
              "progressive"] for seed in range(6)]
    for seed in (1, 2, 3):
        for density in ("0.3", "0.5"):
            runs.append(["--seed", str(seed), "--config", str(config),
                         "--out", str(root / f"train_{seed}_{density}"),
                         "train", "--dataset", "blobs", "--epochs", "4",
                         "--density", density])
    runs.append(["--seed", "1", "--config", str(config), "--out",
                 str(root / "train_threads_2"), "--threads", "2", "train",
                 "--dataset", "blobs", "--epochs", "4", "--density", "0.3"])
    runs.append(["--seed", "1", "--out", str(root / "evaluate"), "evaluate",
                 "--checkpoint", str(root / "train_1_0.3" / "checkpoint.json"),
                 "--trials", "2"])
    runs.append(["--seed", "1", "--out", str(root / "evaluate_threads_2"),
                 "--threads", "2", "evaluate", "--checkpoint",
                 str(root / "train_1_0.3" / "checkpoint.json"), "--trials", "2"])
    runs.append(["--seed", "1", "--out", str(root / "evaluate_prune_only"),
                 "evaluate", "--checkpoint",
                 str(root / "train_1_0.5" / "checkpoint.json"),
                 "--mode", "prune_only", "--no-output-gating", "--trials", "2"])
    return runs


def digests(root: Path) -> list[str]:
    """``sha256  path`` for every file under ``root``, sorted by path."""
    files = sorted(path.relative_to(root).as_posix()
                   for path in root.rglob("*") if path.is_file())
    return [f"{hashlib.sha256((root / name).read_bytes()).hexdigest()}  {name}"
            for name in files]


def run(out_dir: str) -> int:
    root = Path(out_dir).resolve()
    if root.exists() and any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    root.mkdir(parents=True, exist_ok=True)
    config = root / "train_config.json"
    config.write_text(json.dumps({"dst": {"lr": 0.01}}, sort_keys=True) + "\n")
    status = 0
    for argv in commands(root, config):
        with contextlib.redirect_stdout(sys.stderr):
            code = main(argv)
        if code != 0:
            status = 1
            print(f"exit {code}: ptcsim {' '.join(argv)}", file=sys.stderr)
    print("\n".join(digests(root)))
    return status


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(sys.argv[1]))
