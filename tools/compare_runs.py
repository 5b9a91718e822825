"""Run the benchmark workloads on two trees and compare their artifacts.

    python3 tools/compare_runs.py REV [--workloads fk ks solve_diagnose]
                                      [--seeds 11 29]

REV is a git revision of this repository. It is exported with
``git archive`` into a temporary directory, and the checkout that holds this
script is the other tree. For each workload and seed, each tree runs the
commands of ``perfbench/workloads.make_inputs`` (the inputs of this checkout,
so both trees read the same files) through ``eigenshape.cli.run_single``, in
a fresh process with BLAS pinned to one thread.

It then prints one line per file of the run directories: ``same``,
``changed`` or ``only in`` one tree. ``manifest.json`` is compared without
its ``wall_time_s``, the one field that differs between identical runs. For
``fk`` and ``ks`` it also prints, per tree, the rows of the reporting rule
(ROADMAP.md): ``J - J_p*`` and the ``objective_F`` error (relative, signed),
the EL ``median_abs``, the accepted steps, the stop reason and the exit
codes. ``J`` is the manifest's ``objective`` and ``J_p*`` the closed form of
the ball (``fk``) or of two equal balls (``ks``) at the config's p.

Exit code 0 when every file is the same, 1 when one is not, 2 when REV
cannot be exported. It writes only into a temporary directory (and Python's
bytecode cache); nothing tracked under ``src/`` or ``perfbench/`` changes.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)  # standard library only, like this script

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def j_p_star(workload: str, p: float) -> float:
    """The value of J = F_p + |Omega| at the best ball (fk, n = 1) or pair of
    equal balls (ks, n = 2, index 2)."""
    if workload == "fk":
        return 2.0 * workloads.J01 * math.sqrt(math.pi * (1.0 + 1.0 / p)) + 0.5 / p
    if workload == "ks":
        return (2.0 * workloads.J01 * math.sqrt(2.0 * math.pi * (2.0 ** (1.0 / p) + 3.0 / p))
                + 0.5 / p)
    raise ValueError(f"no closed form for {workload!r}")


def compare_dirs(base: pathlib.Path, new: pathlib.Path) -> list[tuple[str, str]]:
    """(relative path, verdict) for every file under ``base`` or ``new``, in
    path order. The verdict is "same", "changed", "only in base" or "only in
    new"; a ``manifest.json`` is compared without its ``wall_time_s``."""
    def files(root):
        return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}

    a, b = files(base), files(new)
    rows = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b:
            rows.append((name, "only in base"))
        elif name not in a:
            rows.append((name, "only in new"))
        else:
            same = _content(a[name]) == _content(b[name])
            rows.append((name, "same" if same else "changed"))
    return rows


def _content(path: pathlib.Path):
    if path.name != "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_text())
    manifest.pop("wall_time_s", None)
    return manifest


def report_rows(workload: str, run_dir: pathlib.Path, child: dict) -> dict:
    """The reporting-rule figures of one fk or ks run; "n/a" where the run
    left no final state."""
    spec = workloads.make_inputs(workload, workloads.FLAGSHIP_SEED)
    out = run_dir / spec["commands"][0][2]
    manifest = json.loads((out / "manifest.json").read_text())
    with open(out / "trace.csv") as f:
        steps = [int(row["step"]) for row in csv.DictReader(f)]
    star = j_p_star(workload, float(manifest["config"]["regularization"]["p"]))

    def rel(value, ref):
        return "n/a" if value is None else f"{(value - ref) / ref:+.3e}"

    el = child.get("el_median_abs")
    return {
        "J - J_p* (rel.)": rel(manifest.get("objective"), star),
        "objective_F err (rel.)": rel(manifest.get("objective_F"), spec["optimum"]),
        "EL median_abs": "n/a" if el is None else f"{el:.6g}",
        "accepted steps": str(max(steps, default=0)),
        "stop_reason": str(manifest.get("stop_reason")),
        "exit codes": " ".join(map(str, child["codes"])),
    }


def run_tree(tree: pathlib.Path, run_dir: pathlib.Path, workload: str, seed: int) -> dict:
    """One workload and seed through ``tree``'s program, in a fresh process."""
    run_dir.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-B", str(pathlib.Path(__file__).resolve()), "--child",
         str(tree), str(run_dir), workload, str(seed)],
        capture_output=True, text=True, env={**os.environ, **THREAD_PINS})
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _child(tree: str, run_dir: str, workload: str, seed: str) -> int:
    """Write the inputs into ``run_dir`` and run them with ``tree``'s
    eigenshape; the last stdout line is a JSON object of the exit codes and,
    for fk and ks, the EL median_abs of the final state."""
    sys.path.insert(0, str(pathlib.Path(tree) / "src"))
    from eigenshape import cli

    if not pathlib.Path(cli.__file__).resolve().is_relative_to(pathlib.Path(tree).resolve()):
        raise RuntimeError(f"imported {cli.__file__}, not the program of {tree}")
    spec = workloads.make_inputs(workload, int(seed))
    os.chdir(run_dir)
    for name, text in spec["files"].items():
        pathlib.Path(name).write_text(text)
    result = {"codes": [cli.run_single(c, ini, out, None, False)
                        for c, ini, out in spec["commands"]]}
    if workload in ("fk", "ks") and result["codes"] == [0]:
        from eigenshape.diagnostics import el_residual
        from eigenshape.domain import extract_boundary

        out = pathlib.Path(spec["commands"][0][2])
        cp = configparser.ConfigParser()
        cp.read_dict({"diagnose": {"domain": str(out / "domain.grid"),
                                   "spectrum": str(out / "spectrum.csv"),
                                   "xi": str(out / "xi.csv")}})
        d, sp, w = cli._load_diagnose_inputs(cp)
        result["el_median_abs"] = el_residual(d, sp, w, extract_boundary(d)).median_abs
    print(json.dumps(result))
    return 0


def export(rev: str, dest: pathlib.Path) -> None:
    """The files of ``rev`` under ``dest``."""
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          capture_output=True)
    if proc.returncode != 0:
        raise ValueError(proc.stderr.decode().strip() or f"cannot export {rev}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return _child(*argv[1:])
    parser = argparse.ArgumentParser(prog="compare_runs.py", description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="git revision to compare this checkout against")
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=[workloads.FLAGSHIP_SEED, workloads.HELD_OUT_SEED])
    args = parser.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory(prefix="compare-runs-") as tmp:
        tmp = pathlib.Path(tmp)
        try:
            export(args.rev, tmp / "base")
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        for workload in args.workloads:
            for seed in args.seeds:
                runs = {}
                for side, tree in (("base", tmp / "base"), ("new", ROOT)):
                    run_dir = tmp / "runs" / side / f"{workload}-{seed}"
                    runs[side] = (run_dir, run_tree(tree, run_dir, workload, seed))
                print(f"== {workload} seed {seed}: {args.rev} (base) against this checkout (new)")
                for name, verdict in compare_dirs(runs["base"][0], runs["new"][0]):
                    print(f"  {name:<32} {verdict}")
                    differ += verdict != "same"
                if workload in ("fk", "ks"):
                    rows = {side: report_rows(workload, *runs[side]) for side in runs}
                    print(f"  {'':<32} {'base':<20} new")
                    for key in rows["base"]:
                        print(f"  {key:<32} {rows['base'][key]:<20} {rows['new'][key]}")
    print(f"{differ} file(s) differ" if differ else "every file is the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
