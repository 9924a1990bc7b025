"""End-to-end benchmark of the gravswap CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each round runs the CLI in one child
process, as a user runs it, with the checkout's `src` on PYTHONPATH and no
thread-count variables, then checks the report in a separate process
(checks.py) against the independent references in reference.py.  Rounds
repeat until S seconds have passed.

This process imports only the standard library and never holds a report: on
Linux a child's peak RSS (ru_maxrss) starts from the peak of the process that
spawned it, so a large spawner would show up in the child's peak_rss_mb.

--trace 0 reports the end-to-end metrics as medians over the rounds, and
set-up time as the median of fresh start-ups (interpreter, `gravswap.cli`
import, config parse).  --trace 1 runs pairs of an untraced and a traced
round and reports the per-layer metrics of tracer.py, plus the tracing
overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

ROUND_TIMEOUT_S = 170.0
SETUP_STARTS = 7  # timed fresh start-ups per run, after one untimed warm-up
# Left out of the child's environment: thread counts, so OpenBLAS keeps its
# default of one thread per core as in a user's run, and the bytecode switch,
# so the import cache fills as it does for an installed package.
DROPPED_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "GOTO_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "PYTHONDONTWRITEBYTECODE",
)
STARTUP_PROBE = (
    "import sys, time\n"
    "import gravswap.cli\n"
    "gravswap.cli.parse_config(sys.argv[1])\n"
    "sys.stdout.write(repr(time.monotonic()))\n"
)


class RoundError(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_VARIABLES}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv: list[str], env: dict[str, str], cwd: Path, log: Path):
    """Run one child to completion; returns (exit code, wall s, rusage)."""
    with open(log, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        timer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
    return proc.returncode, wall, usage


def setup_seconds(root: Path, env: dict[str, str], config: Path) -> float:
    """Median time from spawning a fresh interpreter to the end of the
    config parse, over SETUP_STARTS start-ups after one warm-up."""
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, str(config)],
            env=env,
            cwd=root,
            capture_output=True,
            timeout=60,
        )
        if done.returncode != 0:
            raise RoundError(f"start-up probe failed: {done.stderr.decode(errors='replace')[-2000:]}")
        if i:
            times.append(float(done.stdout) - t0)
    return statistics.median(times)


def run_round(w, root: Path, env, work: Path, seed: int, traced: bool) -> dict:
    tag = "traced" if traced else "plain"
    out = work / f"report_{tag}"
    shutil.rmtree(out, ignore_errors=True)
    cli_args = [w.command, "--config", str(work / "config.txt"), "--out", str(out), "--seed", str(seed)]
    spans = work / "spans.json"
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans)] + cli_args
    else:
        argv = [sys.executable, "-m", "gravswap.cli"] + cli_args
    log = work / f"cli_{tag}.log"
    rc, wall, usage = run_child(argv, env, root, log)
    if rc not in (0, 1):
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RoundError(f"{w.name}: gravswap exited with {rc}:\n{tail}")
    checker = [sys.executable, str(HERE / "checks.py"), w.name, str(out), str(seed)]
    done = subprocess.run(checker + ([str(spans)] if traced else []), capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RoundError(f"{w.name}: checking the report failed:\n{done.stderr[-2000:]}")
    checked = json.loads(done.stdout.splitlines()[-1])
    ops = [tuple(op) for op in checked["ops"]]
    if (rc == 1) != any(not ok for name, ok in ops if name.startswith("verdict:")):
        raise RoundError(f"{w.name}: exit code {rc} disagrees with the verdicts in summary.txt")
    result = {
        "ops": ops,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }
    if traced:
        result["layers"] = checked["layers"]
    shutil.rmtree(out)
    sys.stderr.write(
        f"{w.name} {tag} round: wall {wall:.3f} s, cpu {result['cpu_s']:.3f} s, "
        f"peak rss {result['peak_rss_mb']:.1f} MB\n"
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gravswap" / "cli.py").is_file():
        sys.stderr.write(f"error: {root} is not a gravswap checkout (src/gravswap/cli.py missing)\n")
        return 2
    w = WORKLOADS[args.workload]
    work = root / "perfbench" / "_runs" / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.txt").write_text(w.config, encoding="utf-8")
    env = child_env(root)

    try:
        setup_s = None if args.trace else setup_seconds(root, env, work / "config.txt")
        rounds = []
        t0 = time.monotonic()
        while not rounds or time.monotonic() - t0 < args.seconds:
            if args.trace:
                plain = run_round(w, root, env, work, args.seed, traced=False)
                traced = run_round(w, root, env, work, args.seed, traced=True)
                traced["layers"]["trace.wall_s"] = traced["wall_s"]
                traced["layers"]["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
                traced["ops"] += plain["ops"]
                rounds.append(traced)
            else:
                rounds.append(run_round(w, root, env, work, args.seed, traced=False))
    except (RoundError, OSError, ValueError, KeyError, IndexError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    metrics = {}
    for m in SPEC["per_layer"] if args.trace else SPEC["end_to_end"]:
        name = m["name"]
        if name == "setup_s":
            value = setup_s
        else:
            value = statistics.median(r["layers"][name] if args.trace else r[name] for r in rounds)
        metrics[name] = {"value": value, "unit": m["unit"]}

    ops = [op for r in rounds for op in r["ops"]]
    failed = sorted({name for name, ok in ops if not ok})
    unexpected = [name for name in failed if name not in w.expected_failures]
    if unexpected:
        sys.stderr.write(f"unexpected failures: {unexpected}\n")
    sys.stderr.write(f"{w.name}: {len(rounds)} round(s), failed operations: {failed or 'none'}\n")
    result = {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": sum(1 for _, ok in ops if not ok),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
