"""The eigenshape benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fk|ks|solve_diagnose
                             [--seed 11] [--seconds 20] [--trace 0|1]

Run from the root of a checkout. Every run of the workload is a fresh worker
process (perfbench/worker.py) that executes the workload's commands one after
another, with BLAS pinned to one thread. Untraced (``--trace 0``), workers
are started until ``--seconds`` have passed (at least one) and the
end-to-end metrics are their medians; ``setup_s`` also takes in
SETUP_PROBES workers that stop before the first command. Traced
(``--trace 1``), one untraced and one traced worker run, and the per-layer
metrics come from the traced one. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.

Each command is one attempted operation. It fails when it exits non-zero,
when a check of its output fails, or when its artifact hashes differ from
those recorded by the first run of the same program, inputs and seed in this
checkout (kept under .bench_build/perfbench/hashes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "tta_s": "s", "wall_s": "s",
                    "peak_rss_mb": "MiB", "answer_digits": "digits"}
DETAIL_UNITS = {"optimize_s": "s", "tta_1pct_s": "s", "solve_s": "s", "diagnose_s": "s",
                "peak_rss_mb": "MiB", "objective_F_err": "1", "lambda_err_max": "1",
                "el_median_abs": "1"}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tree_sha256(root: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(root.rglob("*.py")):
        digest.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    """Starts workers for one workload and seed, and keeps their results."""

    def __init__(self, workload: str, seed: int, work: pathlib.Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = {**os.environ, **THREAD_PINS}
        self.count = 0

    def spawn(self, mode: str) -> dict:
        run_dir = self.work / f"{self.workload}-{self.seed}-{os.getpid()}-{self.count}"
        self.count += 1
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        timeout = self.deadline - clock()
        if timeout <= 0:
            raise BenchError("out of time before the next worker")
        spawned = clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed),
                 str(run_dir), repr(spawned), mode],
                env=self.env, stdout=sys.stderr, timeout=timeout,
            )
            if proc.returncode != 0:
                raise BenchError(f"{mode} worker exited with {proc.returncode}")
            return json.loads((run_dir / "result.json").read_text())
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{mode} worker timed out") from err
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


class HashStore:
    """Artifact hashes of the first run of each (program, inputs, command)."""

    def __init__(self, directory: pathlib.Path, program_sha: str):
        self.directory = directory
        self.program_sha = program_sha

    def matches(self, inputs_sha: str, command: str, hashes: dict) -> bool:
        key = hashlib.sha256(
            f"{self.program_sha}/{inputs_sha}/{command}".encode()).hexdigest()
        path = self.directory / f"{key}.json"
        if path.is_file():
            return json.loads(path.read_text()) == hashes
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(hashes, sort_keys=True))
        os.replace(tmp, path)
        return True


def count_failures(results: list[dict], store: HashStore) -> tuple[int, int]:
    attempted = failed = 0
    for res in results:
        for command, outcome in res["commands"].items():
            attempted += 1
            same = store.matches(res["inputs_sha256"], command, outcome["hashes"])
            if not same:
                print(f"artifact hashes of {command} differ from the first run",
                      file=sys.stderr)
            if not (outcome["ok"] and same):
                failed += 1
                print(f"{command} failed: {outcome['checks']}", file=sys.stderr)
    return attempted, failed


def finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eigenshape" / "cli.py").is_file():
        print(f"error: no eigenshape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = clock()
    work = ROOT / ".bench_build" / "perfbench"
    program_sha = tree_sha256(ROOT / "src")
    runner = Runner(args.workload, args.seed, work, start + DEADLINE_S)
    store = HashStore(work / "hashes", program_sha)
    try:
        if args.trace:
            results = [runner.spawn("run"), runner.spawn("trace")]
            setups = []
        else:
            setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
            results, t0, last_s = [], clock(), 0.0
            # repeat for --seconds, but start no worker likely to run past the deadline
            while not results or (clock() - t0 < args.seconds
                                  and clock() + last_s < runner.deadline):
                t = clock()
                results.append(runner.spawn("run"))
                last_s = clock() - t
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted, failed = count_failures(results, store)
    env = {**results[0]["env"], "nproc": len(os.sched_getaffinity(0)),
           "git_commit": git_commit(), "src_sha256": program_sha,
           "workload": args.workload, "seed": args.seed}
    n = len(results)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{n} run(s), {attempted} attempted, {failed} failed")
    if args.trace:
        untraced, traced = results
        values = {**traced["layers"], "trace.overhead_s":
                  traced["metrics"]["wall_s"] - untraced["metrics"]["wall_s"]}
        wall = traced["metrics"]["wall_s"]
        print(f"  wall_s untraced {untraced['metrics']['wall_s']:.6g} s, traced {wall:.6g} s")
        for span in ("spectral.solve_spectrum", "spectral.solve_torsion",
                     "domain.reinitialize", "diagnostics.classify_boundary", "cli.write"):
            print(f"  share of traced wall_s {wall:.3f} s: {span} "
                  f"{values[span + '.s'] / wall:.1%}")
        units = {m["name"]: m["unit"] for m in layers.per_layer_spec()}
        metrics = {k: {"value": finite(values[k]), "unit": units[k]} for k in units}
    else:
        setups += [r["setup_s"] for r in results]
        for k in results[0]["detail"]:
            runs = [r["detail"][k] for r in results]
            print(f"  {k:<16} {statistics.median(runs):.6g} {DETAIL_UNITS[k]}  (median of {n}: "
                  + " ".join(f"{v:.4g}" for v in runs) + ")")
        values = {k: statistics.median(r["metrics"][k] for r in results)
                  for k in END_TO_END_UNITS if k != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        print(f"  {'setup_s':<16} {values['setup_s']:.6g} s  (median of {len(setups)})")
        metrics = {k: {"value": finite(values[k]), "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
