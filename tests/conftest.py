"""Shared fixtures: the two flagship optimization runs, executed once.

Both run through the CLI (config file in, artifacts out) so that the same
fixtures also witness the command-line contract; tests reconstruct the
(domain, spectrum, xi) triple from the artifacts exactly the way the
diagnose subcommand does.
"""

import configparser
import json
import pathlib
import types

import numpy as np
import pytest

from eigenshape.cli import _load_diagnose_inputs, run_single
from eigenshape.domain import extract_boundary


def write_ini(path: pathlib.Path, sections: dict) -> pathlib.Path:
    lines = []
    for name, kv in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
        lines.append("")
    path.write_text("\n".join(lines))
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


@pytest.fixture(scope="session")
def fk_run(tmp_path_factory):
    """Ground-state problem from a random blob on a 256-cell grid."""
    base = tmp_path_factory.mktemp("fk")
    cfg = write_ini(base / "fk.ini", {
        "run": {"name": "fk-acceptance", "seed": 11},
        "grid": {"x0": -2.0, "y0": -2.0, "x1": 2.0, "y1": 2.0,
                 "nx": 257, "ny": 257},
        "shape": {"kind": "blob", "r0": 0.9, "amp": 0.22, "modes": 5},
        "objective": {"family": "single", "n": 1, "index": 1},
        "regularization": {"p": 32},
        "optimizer": {"dt0": 0.5, "max_steps": 250, "conv_tol": 1e-6},
    })
    out = base / "out"
    code = run_single("optimize", str(cfg), str(out), None, False)
    assert code == 0, "flagship ground-state run failed"
    run = load_run(out)
    run.config = cfg
    return run


@pytest.fixture(scope="session")
def ks_run(tmp_path_factory):
    """Second-eigenvalue problem from a mirror-symmetric two-blob init."""
    base = tmp_path_factory.mktemp("ks")
    cfg = write_ini(base / "ks.ini", {
        "run": {"name": "ks-acceptance", "seed": 11},
        "grid": {"x0": -2.4, "y0": -2.4, "x1": 2.4, "y1": 2.4,
                 "nx": 241, "ny": 241},
        "shape": {"kind": "two_blobs", "sep": 2.1, "r0": 0.8,
                  "amp": 0.18, "modes": 4},
        "objective": {"family": "single", "n": 2, "index": 2},
        "regularization": {"p": 32},
        "optimizer": {"dt0": 0.5, "max_steps": 250, "conv_tol": 1e-6},
    })
    out = base / "out"
    code = run_single("optimize", str(cfg), str(out), None, False)
    assert code == 0, "flagship second-eigenvalue run failed"
    run = load_run(out)
    run.config = cfg
    return run
