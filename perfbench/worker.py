"""One benchmark worker: a fresh process that sets up one workload, runs its
commands one after another through ``eigenshape.cli.run_single``, and checks
the outputs once the clock has stopped.

    python3 perfbench/worker.py WORKLOAD SEED RUN_DIR SPAWN_CLOCK MODE

MODE is ``setup`` (stop before the first command), ``run`` (untraced; the
only hook is a return-time clock on ``eigenshape.optimizer.step``) or
``trace`` (every layer wrapped). SPAWN_CLOCK is the CLOCK_MONOTONIC reading
taken by the parent just before starting this process. The result goes to
RUN_DIR/result.json.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import os
import pathlib
import resource
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_command(cli, command: str, ini: str, out: str) -> dict:
    t0 = clock()
    try:
        code = cli.run_single(command, ini, out, None, False)
    except Exception:  # a crash is a failed operation, not a lost run
        traceback.print_exc()
        code = -1
    return {"start": t0, "s": clock() - t0, "code": code}


def _manifest(out: pathlib.Path) -> dict:
    with open(out / "manifest.json") as f:
        return json.load(f)


def _check_optimize(spec: dict, cmd: dict, accepted_returns: list, workload: str) -> dict:
    """Checks and accuracy figures of an optimize run (fk, ks)."""
    from eigenshape.cli import _load_diagnose_inputs
    from eigenshape.diagnostics import el_residual
    from eigenshape.domain import connected_components, extract_boundary

    out = pathlib.Path("optimize")
    manifest = _manifest(out)
    opt = spec["optimum"]
    err = abs(manifest["objective_F"] - opt) / opt
    with open(out / "trace.csv") as f:
        rows = list(csv.DictReader(f))
    tta = workloads.time_to_accuracy(rows, accepted_returns, cmd["start"], opt, spec["index"])
    cp = configparser.ConfigParser()
    cp.read_dict({"diagnose": {"domain": str(out / "domain.grid"),
                               "spectrum": str(out / "spectrum.csv"),
                               "xi": str(out / "xi.csv")}})
    d, sp, w = _load_diagnose_inputs(cp)
    checks = {"exit_0": cmd["code"] == 0,
              "objective_F_within_tol": err <= workloads.OPT_TOL[workload],
              "reached_1pct": tta is not None}
    if workload == "ks":
        checks["two_components"] = connected_components(d) == 2
    return {
        "checks": checks,
        "hashes": manifest["artifacts"],
        "tta_s": tta if tta is not None else cmd["s"],
        "answer_rel_err": err,
        "el_median_abs": el_residual(d, sp, w, extract_boundary(d)).median_abs,
    }


def _check_solve(spec: dict, cmd: dict) -> dict:
    manifest = _manifest(pathlib.Path("solve"))
    lams = manifest.get("lambdas", [])
    exact = spec["lambdas"]
    if len(lams) == len(exact):
        err = max(abs(a - b) / b for a, b in zip(lams, exact))
    else:
        err = math.inf
    return {"checks": {"exit_0": cmd["code"] == 0,
                       "lambdas_within_tol": err <= workloads.LAMBDA_TOL},
            "hashes": manifest["artifacts"], "answer_rel_err": err}


def _check_diagnose(cmd: dict) -> dict:
    out = pathlib.Path("diagnose")
    with open(out / "report.json") as f:
        report = json.load(f)
    median_abs = report.get("el_residual", {}).get("median_abs", math.nan)
    return {"checks": {"exit_0": cmd["code"] == 0,
                       "el_median_abs_finite": math.isfinite(median_abs),
                       "torsion_violations_reported": "torsion_violations" in report},
            "hashes": _manifest(out)["artifacts"], "el_median_abs": median_abs}


def _checked(fn, *args) -> dict:
    """Run a check; missing or unreadable outputs fail it."""
    try:
        return fn(*args)
    except (OSError, KeyError, TypeError, ValueError):
        traceback.print_exc()
        return {"checks": {"outputs_readable": False}, "hashes": {}}


def _dir_bytes(paths) -> int:
    return sum(p.stat().st_size for d in paths if d.is_dir() for p in d.rglob("*") if p.is_file())


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv) -> int:
    workload, seed, run_dir, spawned, mode = argv
    import eigenshape.cli as cli
    import eigenshape.optimizer as optimizer

    spec = workloads.make_inputs(workload, int(seed))
    os.chdir(run_dir)
    digest = hashlib.sha256()
    for name, text in sorted(spec["files"].items()):
        pathlib.Path(name).write_text(text)
        digest.update(name.encode() + b"\0" + text.encode() + b"\0")
    result = {"setup_s": clock() - float(spawned), "inputs_sha256": digest.hexdigest()}
    if mode != "setup":
        result.update(_timed(spec, workload, mode, cli, optimizer))
        result["env"] = _environment()
    pathlib.Path("result.json").write_text(json.dumps(result))
    return 0


def _timed(spec, workload, mode, cli, optimizer) -> dict:
    tr = None
    if mode == "trace":
        tr = tracer.Tracer(clock)
        layers.install(tr)
    accepted_returns = []
    traced_step = optimizer.step

    def clocked_step(*args, **kwargs):
        res = traced_step(*args, **kwargs)
        if not res[2]:
            accepted_returns.append(clock())
        return res

    optimizer.step = clocked_step
    try:
        cmds = {c: _run_command(cli, c, ini, out) for c, ini, out in spec["commands"]}
    finally:
        optimizer.step = traced_step
        if tr is not None:
            tr.restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = sum(c["s"] for c in cmds.values())

    if workload in ("fk", "ks"):
        checked = {"optimize": _checked(_check_optimize, spec, cmds["optimize"],
                                        accepted_returns, workload)}
        answer = checked["optimize"]
        tta_s = answer.get("tta_s", cmds["optimize"]["s"])
        el = answer.get("el_median_abs", math.nan)
        detail = {"optimize_s": cmds["optimize"]["s"], "tta_1pct_s": tta_s}
    else:
        checked = {"solve": _checked(_check_solve, spec, cmds["solve"]),
                   "diagnose": _checked(_check_diagnose, cmds["diagnose"])}
        answer = checked["solve"]
        tta_s = cmds["solve"]["s"]
        el = checked["diagnose"].get("el_median_abs", math.nan)
        detail = {"solve_s": cmds["solve"]["s"], "diagnose_s": cmds["diagnose"]["s"]}
    rel_err = answer.get("answer_rel_err", math.inf)
    result = {
        "commands": {c: {"ok": all(checked[c]["checks"].values()),
                         "checks": checked[c]["checks"],
                         "hashes": checked[c]["hashes"]} for c in cmds},
        "metrics": {"tta_s": tta_s, "wall_s": wall_s, "peak_rss_mb": rss_mb,
                    "answer_digits": workloads.digits(rel_err)},
        "detail": {**detail, "peak_rss_mb": rss_mb, "el_median_abs": el,
                   ("objective_F_err" if workload in ("fk", "ks")
                    else "lambda_err_max"): rel_err},
    }
    if tr is not None:
        values = layers.span_values(tr)
        values["diagnostics.el_median_abs"] = el
        values["cli.bytes_written"] = _dir_bytes(
            pathlib.Path(out) for _, _, out in spec["commands"])
        result["layers"] = values
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
