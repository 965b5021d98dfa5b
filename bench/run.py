"""ptcsim benchmark: one workload per run, in one fresh process.

Usage, from the root of the repository::

    python3 bench/run.py --workload fidelity_study --seed 0 --seconds 25 --trace 0

The run imports ``ptcsim`` from ``src/`` (timed as set-up), then repeats
rounds of the workload's CLI commands while they fit in ``--seconds``.
Before each round the package's caches are cleared, so every round starts
as a fresh ``ptcsim`` invocation does.  Outputs are checked after each
round, outside the timed sections.  While the commands of an untraced
round run, ``hostspeed`` samples a fixed reference loop; ``wall_ref`` is
the round's time in units of that loop (see ``hostspeed.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate, and the JSON holds the per-layer metrics of the traced rounds.
The lines before it print every figure by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, set before numpy loads: on a few shared CPUs a second
# BLAS thread waits on whichever core a neighbour holds, so round times
# would follow the host's load more than the program's cost.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hostspeed import (  # noqa: E402
    NOMINAL_S, HostSpeed, mean_sample_s, started_within, spent_within)
from layers import OVERHEAD, TARGETS, layer_shares, per_layer_metrics, totals  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FULL, WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# End-to-end metrics and their units, in the order BENCHMARK.json lists them.
E2E = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}
# Set-up (fresh import of ptcsim plus building the inputs) is repeated and
# its median reported.  Each repeat is bracketed by two host-speed samples
# and divided by their mean, as the commands of a round are, then scaled
# back to seconds at the reference loop's nominal speed.
SETUP_REPEATS = 9
# Traced runs order their rounds untraced, traced, traced, untraced (and
# repeat), so drift and the first round's extra cost cancel in the overhead.
TRACE_ORDER = (False, True, True, False)


@dataclass
class Round:
    times: dict = field(default_factory=dict)    # op name -> host seconds
    failures: list = field(default_factory=list)  # (op name, reason)
    wrong_output: bool = False
    wall_s: float = 0.0
    ref_s: float = 0.0     # mean reference-loop time while the round ran
    wall_ref: float = 0.0  # wall_s in reference-loop times, command by command
    traced: bool = False
    figures: dict = field(default_factory=dict)


def ptcsim_modules() -> SimpleNamespace:
    """The ptcsim modules the workloads call."""
    names = ("cli", "config", "core", "data", "devices", "training")
    return SimpleNamespace(**{n: importlib.import_module(f"ptcsim.{n}") for n in names})


def fresh_import() -> SimpleNamespace:
    """Import ptcsim from src/ as a new process would."""
    for name in [n for n in sys.modules if n == "ptcsim" or n.startswith("ptcsim.")]:
        del sys.modules[name]
    return ptcsim_modules()


def package_caches() -> list:
    """Every memoizing cache in the loaded ptcsim modules."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "ptcsim" or name.startswith("ptcsim."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def call_cli(cli, argv) -> tuple[int, str]:
    """Run ``ptcsim <argv>`` in-process; return the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, err.getvalue()


def run_round(ptc, plan, caches, tracer=None, speed=None) -> Round:
    """One round of the plan's commands, then their checks.  With ``speed``
    the host speed is sampled before, during and after the commands, and
    the samples' own time is taken out of the command times."""
    plan.reset()
    for cache in caches:
        cache.cache_clear()
    rnd = Round(traced=tracer is not None)
    codes, spans = {}, {}
    if speed is not None:
        speed.sample()
    for op in plan.ops:
        if tracer is not None:
            tracer.active = True
        if speed is not None:
            speed.arm()
        start = time.perf_counter()
        codes[op.name] = call_cli(ptc.cli, op.argv)
        spans[op.name] = (start, time.perf_counter())
        if speed is not None:
            speed.disarm()
        if tracer is not None:
            tracer.active = False
    samples = []
    if speed is not None:
        speed.sample()
        samples = speed.take()
        rnd.ref_s = mean_sample_s(samples)
    for name, (start, end) in spans.items():
        rnd.times[name] = end - start - spent_within(samples, start, end)
        if samples:  # a command too short to be sampled takes the round's mean
            ref = mean_sample_s(started_within(samples, start, end) or samples)
            rnd.wall_ref += rnd.times[name] / ref
    rnd.wall_s = sum(rnd.times.values())
    for op in plan.ops:
        rc, err = codes[op.name]
        if rc != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            rnd.failures.append((op.name, f"exit {rc}: {tail[0]}"))
            continue
        try:
            op.check()
        except Exception as exc:  # noqa: BLE001 -- any check error fails the op
            rnd.wrong_output = True
            rnd.failures.append((op.name, f"{type(exc).__name__}: {exc}"))
    if not rnd.failures:
        rnd.figures = plan.figures(rnd.times)
    return rnd


def median_figure(rounds, name):
    vals = [r.figures[name][0] for r in rounds if name in r.figures]
    return statistics.median(vals) if vals else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ptcsim" / "__init__.py").is_file():
        print(f"error: no ptcsim sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    threads = len(os.sched_getaffinity(0))
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    build = WORKLOADS[args.workload]
    speed = HostSpeed()
    try:
        setups, setups_ref = [], []
        for _ in range(SETUP_REPEATS):
            speed.sample()
            start = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            ptc = fresh_import()
            plan = build(ptc, work, args.seed, FULL, threads)
            setups.append(time.perf_counter() - start)
            speed.sample()
            setups_ref.append(setups[-1] / mean_sample_s(speed.take()))
        result = measure(ptc, plan, args, threads, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = statistics.median(setups_ref) * NOMINAL_S
    result["setup_host_s"] = statistics.median(setups)
    return report(args, result)


def measure(ptc, plan, args, threads, speed) -> dict:
    caches = package_caches()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(TARGETS)
    rounds: list[Round] = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        traced = tracer is not None and TRACE_ORDER[len(rounds) % len(TRACE_ORDER)]
        # Traced rounds go unsampled, so no sample lands in a span's time.
        rounds.append(run_round(ptc, plan, caches, tracer if traced else None,
                                None if traced else speed))
        cost = time.perf_counter() - start
        elapsed = time.perf_counter() - begin
        need_more = tracer is not None and len(rounds) < len(TRACE_ORDER)
        if not need_more and elapsed + cost > args.seconds:
            break
    return {"rounds": rounds, "tracer": tracer, "threads": threads}


def report(args, result) -> int:
    rounds = result["rounds"]
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    attempted = sum(len(r.times) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    correct = not any(r.wrong_output for r in rounds)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  ({len(traced)} traced)  threads {result['threads']}")
    for i, r in enumerate(rounds):
        for op, reason in r.failures:
            print(f"fail round {i} {op}: {reason}")

    wall = statistics.median(r.wall_s for r in untraced)
    values = {"setup_s": result["setup_s"],
              "wall_ref": statistics.median(r.wall_ref for r in untraced),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    e2e = {name: (values[name], unit) for name, unit in E2E.items()}
    for name, (value, unit) in e2e.items():
        print(f"metric {name} {value:.6g} {unit} host")
    print(f"metric setup_host_s {result['setup_host_s']:.6g} s host")
    print(f"metric wall_s {wall:.6g} s host")
    print(f"metric ref_s {statistics.median(r.ref_s for r in untraced):.6g} s host")
    ok = [r for r in untraced if r.figures]
    for name in (ok[-1].figures if ok else {}):
        _, unit, kind = ok[-1].figures[name]
        value = (median_figure(ok, name) if kind == "host"
                 else ok[-1].figures[name][0])
        print(f"metric {name} {value:.6g} {unit} {kind}")

    if result["tracer"] is None:
        metrics = e2e
    else:
        metrics = traced_metrics(args, result["tracer"], traced, wall)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_metrics(args, tracer, traced, untraced_wall) -> dict:
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{args.workload}-{args.seed}.npz")
    tot = totals(tracer)
    metrics, absent = per_layer_metrics(tot, tracer.installed, len(traced))
    traced_wall = statistics.median(r.wall_s for r in traced)
    metrics[OVERHEAD.name] = (traced_wall - untraced_wall, OVERHEAD.unit)
    print(f"trace wall_s {traced_wall:.6g} s, overhead "
          f"{traced_wall - untraced_wall:.6g} s per round")
    for layer, share in layer_shares(tot).items():
        print(f"share {layer} {share:.4f}")
    for name in absent:
        print(f"absent {name}")
    for name, (value, unit) in metrics.items():
        print(f"layer {name} {value:.6g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
