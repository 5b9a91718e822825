"""Shared fixtures: the two flagship optimization runs, executed once.

They are the benchmark's ``fk`` and ``ks`` (``shapes.flagship_config``). Both
run through the CLI (config file in, artifacts out) so that the same
fixtures also witness the command-line contract; tests reconstruct the
(domain, spectrum, xi) triple from the artifacts exactly the way the
diagnose subcommand does.
"""

import eigenshape  # noqa: F401  first, so that its BLAS thread pin holds when numpy loads

import configparser
import json
import pathlib
import types

import numpy as np
import pytest

from eigenshape.cli import _load_diagnose_inputs, run_single
from eigenshape.domain import extract_boundary

from shapes import flagship_config, workloads


def write_ini(path: pathlib.Path, sections: dict) -> pathlib.Path:
    path.write_text(workloads.ini_text(sections))
    return path


def smooth_g(x, y):
    """A smooth non-uniform normal motion, 0.5 to 1.5: the finite-difference
    checks move phi -> phi - t g."""
    return 1.0 + 0.5 * np.sin(2.0 * x + 0.3) * np.cos(1.5 * y - 0.2)


def load_run(out: pathlib.Path) -> types.SimpleNamespace:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.add_section("diagnose")
    cp.set("diagnose", "domain", str(out / "domain.grid"))
    cp.set("diagnose", "spectrum", str(out / "spectrum.csv"))
    cp.set("diagnose", "xi", str(out / "xi.csv"))
    d, sp, xi = _load_diagnose_inputs(cp)
    with open(out / "manifest.json") as f:
        manifest = json.load(f)
    return types.SimpleNamespace(
        out=out,
        manifest=manifest,
        domain=d,
        spectrum=sp,
        xi=xi,
        mesh=extract_boundary(d),
    )


def _flagship_run(tmp_path_factory, workload: str) -> types.SimpleNamespace:
    """The benchmark's ``workload`` run through the CLI, and its artifacts."""
    base = tmp_path_factory.mktemp(workload)
    cfg = base / f"{workload}.ini"
    cfg.write_text(flagship_config(workload))
    out = base / "out"
    assert run_single("optimize", str(cfg), str(out), None, False) == 0, f"{workload} failed"
    return load_run(out)


@pytest.fixture(scope="session")
def fk_run(tmp_path_factory):
    """Ground-state problem from a random blob on a 256-cell grid."""
    return _flagship_run(tmp_path_factory, "fk")


@pytest.fixture(scope="session")
def ks_run(tmp_path_factory):
    """Second-eigenvalue problem from a mirror-symmetric two-blob init."""
    return _flagship_run(tmp_path_factory, "ks")
