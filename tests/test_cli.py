"""Command-line contract: configs in, deterministic artifacts out.

Covers config validation exit codes (2), numerical-failure propagation
(1), artifact layout, manifest hashing with --check, byte-for-byte
determinism of reruns, the p-sweep weight trace, diagnosing saved
artifacts, and multi-config fan-out.
"""

import builtins
import collections
import contextlib
import errno
import io
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st
from scipy.sparse.linalg import ArpackNoConvergence, eigsh as scipy_eigsh

import eigenshape
from eigenshape import (
    Grid,
    GridDomain,
    ObjectiveSpec,
    SpectralError,
    classify_boundary,
    disk,
    extract_boundary,
    probe_radii,
    reinitialize,
    solve_torsion,
    torsion_probe,
    volume,
)
from eigenshape.cli import (
    ConfigError,
    VERSION_STRING,
    _artifact_hashes,
    _float_row,
    _sha256,
    _write_csv,
    build_objective,
    build_shape,
    load_config,
    main,
    run_single,
)
from eigenshape.domain import (
    read_field_dump,
    read_grid_dump,
    write_field_dump,
    write_grid_dump,
)

from conftest import write_ini
from shapes import J01


def solve_sections(**shape):
    shp = {"kind": "disk", "r": 1.0}
    shp.update(shape)
    return {
        "run": {"seed": 3},
        "grid": {"nx": 97, "ny": 97},
        "shape": shp,
        "solve": {"modes": 2},
    }


def optimize_sections():
    return {
        "run": {"seed": 3},
        "grid": {"nx": 97, "ny": 97},
        "shape": {"kind": "disk", "r": 1.4},
        "objective": {"family": "single", "n": 1, "index": 1},
        "regularization": {"p": 32},
        "optimizer": {"dt0": 0.4, "max_steps": 8, "conv_tol": 1e-5},
    }


def sweep_sections(schedule):
    """optimize_sections() under sweep-p: its schedule sets every p, so
    [sweep] takes the place of [regularization]."""
    sections = optimize_sections()
    del sections["regularization"]
    sections["sweep"] = {"schedule": schedule}
    return sections


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-solve")
    cfg = write_ini(base / "solve.ini", solve_sections())
    out = base / "out"
    assert run_single("solve", str(cfg), str(out), None, False) == 0
    return cfg, out


@pytest.fixture(scope="module")
def opt_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-opt")
    cfg = write_ini(base / "opt.ini", optimize_sections())
    out = base / "out"
    assert run_single("optimize", str(cfg), str(out), None, False) == 0
    return cfg, out


# ---- config loading and builders --------------------------------------


def test_load_config_missing(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


def test_load_config_inline_comments_and_case(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[shape]\nkind = disk  # a circle\nr = 1.5 ; big\n")
    cp = load_config(path)
    assert cp.get("shape", "kind") == "disk"
    assert cp.get("shape", "r") == "1.5"


@pytest.mark.parametrize("section, key", [
    ("solve", "modez"), ("solv", "modes"), ("DEFAULT", "seed"), ("diagnose", "probe"),
])
@pytest.mark.parametrize("command", ["solve", "optimize", "sweep-p", "diagnose"])
def test_unknown_config_section_or_key_exit_2(small_run, tmp_path, capsys, command,
                                              section, key):
    sections = (diagnose_sections(small_run) if command == "diagnose"
                else _small_sections(command))
    sections.setdefault(section, {})[key] = 3
    cfg = write_ini(tmp_path / "c.ini", sections)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_single(command, str(cfg), str(out), None, False) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"[{section}]" in err and key in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, kind, family, edits, named", [
    ("solve", "square", "single", {"shape": {"r": 0.5}}, "[shape] r "),
    ("solve", "rectangle", "single", {"shape": {"cx": 5}}, "[shape] cx "),
    ("solve", "two_blobs", "single", {"shape": {"cx": 0.7}}, "[shape] cx "),
    ("solve", "file", "single", {"grid": {"nx": 33}}, "[grid] nx "),
    ("solve", "disk", "single", {"shape": {"R": 1.5}}, "[shape] R "),  # case preserved
    ("solve", "disk", "single", {"optimizer": {"dt0": 9}}, "[optimizer] dt0 "),
    ("solve", "disk", "single", {"solv": {}}, "[solv] "),
    ("optimize", "disk", "single", {"objective": {"beta": 2.0}}, "[objective] beta "),
    ("optimize", "disk", "single", {"sweep": {"schedule": "8 16"}}, "[sweep] schedule "),
], ids=["square_r", "rectangle_cx", "two_blobs_cx", "file_grid", "upper_case_R",
        "optimizer_under_solve", "keyless_section", "single_beta", "sweep_under_optimize"])
def test_unread_key_exit_2(small_run, tmp_path, capsys, command, kind, family, edits, named):
    # a key that the command, the shape kind or the family does not read
    if kind == "file":
        edits = {**edits, "shape": {"path": str(small_run / "domain.grid")}}
    cfg = write_ini(tmp_path / "c.ini", _small_sections(command, kind, family, **edits))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single(command, str(cfg), str(out), None, False) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{named}is not read by {command}" in err
    assert list(out.iterdir()) == []  # no manifest, and solve wrote no domain.grid


#: the keys that _small_sections leaves at their defaults, at those defaults
#: ([penalty] reference names a file)
_DEFAULTED = {
    "grid": {"x0": -2.0, "y0": -2.0, "x1": 2.0, "y1": 2.0},
    "solve": {"torsion": "no"},
    "optimizer": {"conv_tol": 1e-6},
    "penalty": {"s": 0.02},
}


@pytest.mark.parametrize("command, kind, family", [
    *(("solve", kind, "single") for kind in ("disk", "square", "rectangle", "lshape",
                                             "blob", "two_blobs", "file")),
    *(("optimize", "disk", family) for family in ("single", "linear", "softmin")),
    ("sweep-p", "blob", "softmin"),
    ("diagnose", None, None),
])
def test_config_of_every_read_key_exit_0(small_run, tmp_path, monkeypatch, command, kind,
                                         family):
    # every command, shape kind and family runs from a config that sets every
    # key it looks up, and looks up every key that the config sets
    if command == "diagnose":
        sections = diagnose_sections(small_run)
        sections["diagnose"]["radii"] = "0.5 0.75"
        sections["run"] = {"seed": 3}
    else:
        sections = _small_sections(command, kind, family)
    for section, kv in _DEFAULTED.items():
        if section in sections:
            sections[section].update(kv)
    reference = str(small_run / "domain.grid")  # the 33x33 grid of _small_sections
    if kind == "file":
        sections["shape"]["path"] = reference
    if "penalty" in sections:
        sections["penalty"]["reference"] = reference
    cfg = write_ini(tmp_path / "c.ini", sections)
    loaded = []
    monkeypatch.setattr("eigenshape.cli.load_config",
                        lambda path: loaded.append(load_config(path)) or loaded[-1])
    assert run_single(command, str(cfg), str(tmp_path / "out"), None, False) == 0
    (cp,) = loaded
    assert cp.looked_up == {(s, k) for s in cp.sections() for k in cp.options(s)}


class _PastConfigCheck(Exception):
    """Raised by the first step after a command's config check."""


def test_readme_configs_load(tmp_path, monkeypatch):
    # each ini block passes the config check of the command that the README
    # runs it with ("eigenshape <command> --config <its first-line name>")
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    for target in ("write_grid_dump", "_run_flow", "_load_diagnose_inputs"):
        monkeypatch.setattr(f"eigenshape.cli.{target}", _raise(_PastConfigCheck()))
    blocks = [block.split("```")[0] for block in readme.split("```ini\n")[1:]]
    assert len(blocks) >= 2
    for block in blocks:
        name = block.splitlines()[0].lstrip(";").strip()
        command = re.search(rf"eigenshape (\S+) +--config {re.escape(name)} ", readme)[1]
        path = tmp_path / name
        path.write_text(block)
        with pytest.raises(_PastConfigCheck):
            run_single(command, str(path), str(tmp_path / "out"), None, False)


def test_unparsable_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run\nseed = 3\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single("solve", str(cfg), str(out), None, False) == 2
    err = capsys.readouterr().err  # configparser's message spans three lines
    assert err.startswith(f"error: cannot parse {cfg}: ") and err.count("\n") == 1
    assert "no section headers" in err and "'[run\\n'" in err
    assert not out.exists()


def test_config_that_is_not_utf8_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_bytes(b"[run]\nseed = 3\xff\xfe\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single("solve", str(cfg), str(out), None, False) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg} is not UTF-8 text: ") and err.count("\n") == 1
    assert not out.exists()


def test_config_without_shape_kind_exit_2(tmp_path, capsys):
    sections = solve_sections()
    del sections["shape"]["kind"]
    cfg = write_ini(tmp_path / "c.ini", sections)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single("solve", str(cfg), str(out), None, False) == 2
    assert capsys.readouterr().err == "error: missing [shape] kind\n"
    assert list(out.iterdir()) == []


def test_build_shape_unknown_kind(tmp_path):
    cfg = write_ini(tmp_path / "c.ini", {"shape": {"kind": "pentagon"}})
    with pytest.raises(ConfigError, match="unknown shape kind"):
        build_shape(load_config(cfg), seed=0)


def test_build_shape_two_blobs_mirror_symmetry(tmp_path):
    cfg = write_ini(tmp_path / "c.ini", {
        "grid": {"nx": 81, "ny": 81},
        "shape": {"kind": "two_blobs", "sep": 2.0, "r0": 0.7, "amp": 0.15,
                  "modes": 4},
    })
    d = build_shape(load_config(cfg), seed=9)
    assert np.array_equal(d.phi, d.phi[:, ::-1])  # exact mirror about x = 0


@pytest.mark.parametrize("box", [(-1.9, -2.4, 2.9, 2.4), (0.0, -2.0, 4.0, 2.0)])
def test_two_blobs_on_a_grid_not_symmetric_about_x_0_exit_2(tmp_path, capsys, box):
    # the pair is mirrored about x = 0, which the node lattice must straddle
    grid = dict(zip(("x0", "y0", "x1", "y1"), box), nx=121, ny=121)
    cfg = write_ini(tmp_path / "c.ini", {"grid": grid, "shape": {"kind": "two_blobs"}})
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single("solve", str(cfg), str(out), None, False) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "[grid]" in err
    assert list(out.iterdir()) == []


def test_build_objective_bad_family(tmp_path):
    cfg = write_ini(tmp_path / "c.ini", {"objective": {"family": "max", "n": 1}})
    with pytest.raises(ConfigError, match=r"^unknown family 'max', expected one of "
                                          r"single, linear, softmin$"):
        build_objective(load_config(cfg))


def test_build_objective_single_is_linear_with_a_unit_weight(tmp_path):
    # family = single spells F = kappa_index (default index = n) as linear e_index
    for objective, coeffs in (({"n": 3}, (0, 0, 1)), ({"n": 3, "index": 1}, (1, 0, 0))):
        cfg = write_ini(tmp_path / "c.ini", {"objective": {"family": "single", **objective}})
        assert build_objective(load_config(cfg)) == ObjectiveSpec("linear", n=3, coeffs=coeffs)
    for index in (0, 3):
        cfg = write_ini(tmp_path / "c.ini", {"objective": {"family": "single", "n": 2,
                                                           "index": index}})
        with pytest.raises(ConfigError, match=rf"^single index {index} out of range 1\.\.2$"):
            build_objective(load_config(cfg))


@pytest.mark.parametrize("objective", [
    {"family": "linear", "n": 2, "coeffs": "1.0 x"},
    {"family": "linear", "n": 2, "coeffs": "1.0,0.5"},
    {"family": "softmin", "n": 2, "subset": "1 two"},
    {"family": "softmin", "n": 2, "subset": "1.5 2"},
])
def test_objective_list_not_numeric_exit_2(tmp_path, capsys, objective):
    sections = optimize_sections()
    sections["objective"] = objective
    cfg = write_ini(tmp_path / "c.ini", sections)
    capsys.readouterr()
    assert run_single("optimize", str(cfg), str(tmp_path / "out"), None, False) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "[objective]" in err


@pytest.mark.parametrize("section, key, value", [
    ("solve", "torsion", "ture"),
    ("solve", "torsion", ""),
    ("solve", "torsion", "maybe"),
])
def test_unrecognised_boolean_exit_2(tmp_path, capsys, section, key, value):
    sections = solve_sections()
    sections[section][key] = value
    cfg = write_ini(tmp_path / "c.ini", sections)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_single("solve", str(cfg), str(out), None, False) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"[{section}] {key}" in err
    assert not (out / "spectrum.csv").exists()  # rejected before solving


@pytest.mark.parametrize("value, written", [("Off", False), ("YES", True), ("0", False)])
def test_solve_torsion_boolean_words(tmp_path, value, written):
    sections = solve_sections()
    sections["solve"]["torsion"] = value
    cfg = write_ini(tmp_path / "c.ini", sections)
    out = tmp_path / "out"
    assert run_single("solve", str(cfg), str(out), None, False) == 0
    assert (out / "torsion.grid").exists() is written


# ---- solve ------------------------------------------------------------


def test_solve_artifacts_and_manifest(solve_run):
    _, out = solve_run
    names = {p.name for p in out.iterdir()}
    assert {"domain.grid", "spectrum.csv", "mode_1.grid", "mode_2.grid",
            "boundary.csv", "torsion.grid", "manifest.json"} <= names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == VERSION_STRING
    assert manifest["command"] == "solve"
    assert manifest["seed"] == 3
    assert manifest["converged"] is True
    assert manifest["lambdas"][0] == pytest.approx(J01**2, rel=5e-3)
    assert manifest["config"]["shape"]["kind"] == "disk"
    # recorded hashes match the files on disk; manifest itself excluded
    for name, digest in manifest["artifacts"].items():
        assert _sha256(out / name) == digest
    assert "manifest.json" not in manifest["artifacts"]


def test_solve_rerun_is_byte_identical(solve_run, tmp_path):
    cfg, out = solve_run
    out2 = tmp_path / "again"
    assert run_single("solve", str(cfg), str(out2), None, False) == 0
    for name in ("domain.grid", "spectrum.csv", "mode_1.grid", "boundary.csv",
                 "torsion.grid"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


#: --check case -> (command, the module run it reads or None, the sections of
#: its config from that fixture's value, the artifact it tampers with); None
#: sections check a copy of the module run's (config, --out) itself
_CHECKED = {
    "solve": ("solve", "solve_run", None, "spectrum.csv"),
    "solve_file": ("solve", "solve_run", lambda run: {
        "run": {"seed": 3}, "shape": {"kind": "file", "path": str(run[1] / "domain.grid")},
        "solve": {"modes": 2}}, "mode_1.grid"),
    "optimize": ("optimize", "opt_run", None, "trace.csv"),
    "optimize_anchored": ("optimize", "opt_run", lambda run: {
        **optimize_sections(), "optimizer": {"max_steps": 3},
        "penalty": {"s": 0.02, "reference": str(run[1] / "domain.grid")}}, "domain.grid"),
    # s anchors the second stage at the first stage's end
    "sweep_p_anchored": ("sweep-p", None,
                         lambda run: _small_sections("sweep-p", penalty={"s": 0.02}),
                         "trace_p16.csv"),
    "diagnose_without_torsion_grid": ("diagnose", "opt_run",
                                      lambda run: diagnose_sections(run[1]), "report.json"),
    "diagnose_with_torsion_grid": ("diagnose", "torsion_run",
                                   lambda run: diagnose_sections(run, probes=8), "weiss.csv"),
}


@pytest.mark.parametrize("case", _CHECKED)
def test_check_passes_then_catches_tampering(request, tmp_path, capsys, case):
    # --check of a run of every command passes, and exits 1 naming the one
    # artifact in which a byte was flipped
    command, fixture, sections, name = _CHECKED[case]
    run = request.getfixturevalue(fixture) if fixture else None
    out = tmp_path / "out"
    if sections is None:
        cfg, run_out = run
        shutil.copytree(run_out, out)
    else:
        cfg = write_ini(tmp_path / "c.ini", sections(run))
        assert run_single(command, str(cfg), str(out), None, False) == 0
    assert run_single(command, str(cfg), str(out), None, True) == 0
    corrupted = bytearray((out / name).read_bytes())
    corrupted[len(corrupted) // 2] ^= 0x01
    (out / name).write_bytes(bytes(corrupted))
    capsys.readouterr()
    assert run_single(command, str(cfg), str(out), None, True) == 1
    assert capsys.readouterr().err == f"hash mismatch on disk: {name}\n"


def test_check_without_manifest(solve_run, tmp_path):
    cfg, _ = solve_run
    assert run_single("solve", str(cfg), str(tmp_path / "fresh"), None, True) == 2


def test_check_returns_the_exit_code_of_a_failed_rerun(solve_run, monkeypatch, capsys):
    cfg, out = solve_run
    monkeypatch.setattr("eigenshape.cli.solve_spectrum",
                        _raise(SpectralError("no convergence")))
    capsys.readouterr()
    assert run_single("solve", str(cfg), str(out), None, True) == 1
    assert "check rerun failed with exit code 1\n" in capsys.readouterr().err


def test_solve_modes_zero_rejected(tmp_path):
    sections = solve_sections()
    sections["solve"]["modes"] = 0
    cfg = write_ini(tmp_path / "c.ini", sections)
    assert run_single("solve", str(cfg), str(tmp_path / "out"), None, False) == 2


def test_shape_file_missing(tmp_path):
    cfg = write_ini(tmp_path / "c.ini", {
        "shape": {"kind": "file", "path": str(tmp_path / "void.grid")},
        "solve": {"modes": 1},
    })
    assert run_single("solve", str(cfg), str(tmp_path / "out"), None, False) == 2


def test_grid_below_8x8_exit_2(tmp_path, capsys):
    sections = solve_sections()
    sections["grid"]["nx"] = 1
    cfg = write_ini(tmp_path / "c.ini", sections)
    capsys.readouterr()
    assert run_single("solve", str(cfg), str(tmp_path / "out"), None, False) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "8x8" in err


def test_missing_config_exit_code(tmp_path):
    assert run_single("solve", str(tmp_path / "no.ini"),
                      str(tmp_path / "out"), None, False) == 2


def test_seed_override(tmp_path):
    cfg = write_ini(tmp_path / "c.ini", solve_sections())
    out = tmp_path / "out"
    assert run_single("solve", str(cfg), str(out), 42, False) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42


@pytest.mark.parametrize("source", ["[run] seed", "--seed"], ids=["config", "flag"])
@pytest.mark.parametrize("command", ["solve", "optimize", "sweep-p", "diagnose"])
def test_negative_seed_exit_2_naming_its_source(small_run, tmp_path, capsys, command, source):
    # a seed is a non-negative integer, whether the config or --seed sets it;
    # a negative one is rejected before any command runs
    sections = (diagnose_sections(small_run) if command == "diagnose"
                else _small_sections(command, "blob"))
    sections["run"] = {"seed": -1 if source == "[run] seed" else 3}
    cfg = write_ini(tmp_path / "c.ini", sections)
    out = tmp_path / "out"
    override = ["--seed", "-2"] if source == "--seed" else []
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out), *override]) == 2
    seed = -2 if override else -1
    assert capsys.readouterr().err == (
        f"error: {source} = {seed} is negative: a seed is a non-negative integer\n")
    assert not out.exists()


# ---- an output that cannot be written ---------------------------------


@pytest.mark.parametrize("command, check, writer", [
    ("solve", False, "eigenshape.cli.write_spectrum_csv"),
    ("solve", False, "eigenshape.cli.write_manifest"),
    ("optimize", False, "eigenshape.domain.write_field_dump"),
    ("sweep-p", False, "eigenshape.cli.write_trace_csv"),
    ("diagnose", False, "eigenshape.cli.write_weiss_csv"),
    ("solve", True, "tempfile.TemporaryDirectory"),
], ids=["solve", "solve_manifest", "optimize", "sweep-p", "diagnose", "solve_check"])
def test_output_that_cannot_be_written_exit_2(torsion_run, tmp_path, monkeypatch, capsys,
                                              command, check, writer):
    # a full disk raises ENOSPC with no file name: the run exits 2 with one
    # line naming --out, and no manifest is written
    run = tmp_path / "run"
    shutil.copytree(torsion_run, run)
    if check:
        cfg, out = torsion_run.parent / "solve.ini", run
    else:
        sections = (diagnose_sections(run, probes=8) if command == "diagnose"
                    else _small_sections(command))
        cfg, out = write_ini(tmp_path / "c.ini", sections), tmp_path / "out"
    manifests = {p: p.read_bytes() for p in tmp_path.rglob("manifest.json")}
    monkeypatch.setattr(writer, _raise(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))))
    capsys.readouterr()
    code = run_single(command, str(cfg), str(out), None, check)
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    assert {p: p.read_bytes() for p in tmp_path.rglob("manifest.json")} == manifests


def _raise(err):
    def fail(*args, **kwargs):
        raise err
    return fail


@pytest.mark.parametrize("shape, modes, target, err, code", [
    ({}, 2, None, None, 0),
    ({}, 2, "solve_spectrum", SpectralError("no convergence"), 1),
    ({}, 2, "solve_torsion", SpectralError("torsion residual too large"), 1),
    ({}, 2, "factor_laplacian", ConfigError("unusable domain"), 2),
    ({"cx": 10.0}, 2, None, None, 2),  # no node inside the grid
    ({"r": 0.07}, 8, None, None, 2),   # 9 nodes, too few for 8 modes
], ids=["success", "eigensolver_failure", "torsion_failure", "config_error",
        "empty_shape", "too_few_nodes"])
def test_domain_grid_written_on_every_solve_exit_path(tmp_path, monkeypatch, capsys,
                                                      shape, modes, target, err, code):
    # domain.grid is written before the solve, whatever its outcome; an
    # unusable domain is a config error (exit 2, no manifest), as in optimize
    sections = solve_sections(**shape)
    sections["solve"]["modes"] = modes
    cfg = write_ini(tmp_path / "c.ini", sections)
    if target is not None:
        monkeypatch.setattr(f"eigenshape.cli.{target}", _raise(err))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single("solve", str(cfg), str(out), None, False) == code
    assert (out / "domain.grid").is_file()
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "manifest.json").exists()
    if code == 1:  # a failed eigen or torsion solve still lists its domain dump
        assert capsys.readouterr().err.startswith("numerical failure: ")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is False
        assert manifest["artifacts"] == {"domain.grid": _sha256(out / "domain.grid")}


def test_arpack_non_convergence_exit_1(tmp_path, monkeypatch, capsys):
    # one Lanczos restart is too few for 8 modes of a 65x65 disk
    raised = []

    def eigsh(*args, **kwargs):
        try:
            return scipy_eigsh(*args, **kwargs)
        except ArpackNoConvergence as err:
            raised.append(err)
            raise

    monkeypatch.setattr("eigenshape.spectral.eigsh", eigsh)
    monkeypatch.setattr("eigenshape.spectral._MAX_ITER", 1)
    sections = solve_sections()
    sections["grid"] = {"nx": 65, "ny": 65}
    sections["solve"]["modes"] = 8
    cfg = write_ini(tmp_path / "c.ini", sections)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single("solve", str(cfg), str(out), None, False) == 1
    assert len(raised) == 1
    err = capsys.readouterr().err  # the 8 residuals on the one line
    assert re.match(r"numerical failure: ARPACK converged [0-8] of 9 pairs in 1 restarts "
                    r"\(residuals ", err)
    assert err.count("\n") == 1 and len(err.split("(residuals ")[1].split()) == 8
    assert json.loads((out / "manifest.json").read_text())["converged"] is False


def test_write_csv_cell_rule(tmp_path):
    # ints and strs as they are, every other number by repr(float(v))
    path = tmp_path / "t.csv"
    _write_csv(path, "a,b,c,d,e", [(7, "p8", np.float64(0.1), -0.0, 5e-324)])
    assert path.read_text() == "a,b,c,d,e\n7,p8,0.1,-0.0,5e-324\n"


# ---- optimize ---------------------------------------------------------


def test_optimize_artifacts(opt_run):
    _, out = opt_run
    names = {p.name for p in out.iterdir()}
    assert {"trace.csv", "domain.grid", "boundary.csv", "spectrum.csv",
            "xi.csv", "manifest.json"} <= names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "optimize"
    assert isinstance(manifest["converged"], bool)
    assert manifest["E"] == 0.0  # no anchoring penalty
    assert manifest["objective_F"] == pytest.approx(
        manifest["objective"], rel=0.05
    )  # p = 32: regularization gap is a few percent at most
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "step,objective,volume,lambda1,E,dt"
    objs = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.all(np.diff(objs) <= 1e-10)
    xi_lines = (out / "xi.csv").read_text().strip().splitlines()
    assert xi_lines[0] == "k,xi"
    assert float(xi_lines[1].split(",")[1]) == pytest.approx(1 + 1 / 32, abs=1e-12)


def test_optimize_manifest_stop_reason(opt_run, tmp_path):
    _, out = opt_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stop_reason"] in ("converged", "line_search_stall", "max_steps")
    assert manifest["stalled"] is (manifest["stop_reason"] == "line_search_stall")
    sections = optimize_sections()
    sections["optimizer"]["max_steps"] = 1
    cfg = write_ini(tmp_path / "one.ini", sections)
    assert run_single("optimize", str(cfg), str(tmp_path / "one"), None, False) == 0
    manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
    assert manifest["stop_reason"] == "max_steps"
    assert manifest["converged"] is False and manifest["stalled"] is False


def test_flagships_stop_on_a_line_search_stall(fk_run, ks_run):
    for run in (fk_run, ks_run):
        assert run.manifest["stop_reason"] == "line_search_stall"
        assert run.manifest["stalled"] is True and run.manifest["converged"] is True


def assert_manifest_is_the_last_trace_row(out):
    """The manifest's objective, volume and lambdas are the text of the last
    trace.csv row: the written state is the last accepted one."""
    manifest = json.loads((out / "manifest.json").read_text())
    header, *rows = (out / "trace.csv").read_text().splitlines()
    last = dict(zip(header.split(","), rows[-1].split(",")))
    lambdas = [last[f"lambda{k}"] for k in range(1, len(manifest["lambdas"]) + 1)]
    assert repr(manifest["objective"]) == last["objective"]
    assert repr(manifest["volume"]) == last["volume"]
    assert [repr(v) for v in manifest["lambdas"]] == lambdas


@pytest.mark.parametrize("flagship", ["fk_run", "ks_run"])
def test_flagship_manifest_describes_the_written_state(request, flagship):
    # at one BLAS thread both flagships stall on the first step after a
    # reinit; whatever the stop, the state written is that of the last row
    run = request.getfixturevalue(flagship)
    manifest = run.manifest
    n = len(manifest["lambdas"])
    assert manifest["lambdas"] == run.spectrum.lambdas[:n].tolist()
    assert manifest["volume"] == volume(read_grid_dump(run.out / "domain.grid"))
    assert manifest["objective_F"] == manifest["lambdas"][-1] + manifest["volume"]
    assert_manifest_is_the_last_trace_row(run.out)


def _stall_ini(tmp_path):
    # a 65^2 blob whose optimize stalls at step 21, the first step after a reinit
    return write_ini(tmp_path / "stall.ini", {
        "run": {"seed": 3},
        "grid": {"nx": 65, "ny": 65},
        "shape": {"kind": "blob", "amp": 0.22},
        "objective": {"family": "single", "n": 1},
    })


def test_optimize_stall_after_a_reinit_writes_the_last_accepted_state(tmp_path):
    # the reinitialized state that the run stalled in is not written
    out = tmp_path / "out"
    assert run_single("optimize", str(_stall_ini(tmp_path)), str(out), None, False) == 0
    assert json.loads((out / "manifest.json").read_text())["stop_reason"] == "line_search_stall"
    assert (out / "trace.csv").read_text().splitlines()[-1].startswith("20,")
    assert_manifest_is_the_last_trace_row(out)
    assert run_single("optimize", str(_stall_ini(tmp_path)), str(out), None, True) == 0


def test_optimize_bar_is_the_lower_of_the_last_accepted_and_the_start(tmp_path, monkeypatch):
    # every step measures its trials against min(J of the last accepted
    # state, J of the step's start); the two differ only after a reinit.
    # On this run the reinits before steps 11 and 16 raise J, so there the
    # bar is the accepted J and not the start's (the FOUND on this bar in
    # CHANGES.md; ROADMAP item 2 changes it, and this test with it)
    import eigenshape.optimizer as optimizer
    real_step, calls = optimizer.step, []

    def step(state, dt, bar):
        calls.append((state.objective, bar, real_step(state, dt, bar)))
        return calls[-1][2]

    monkeypatch.setattr(optimizer, "step", step)
    assert run_single("optimize", str(_stall_ini(tmp_path)), str(tmp_path / "out"),
                      None, False) == 0
    accepted, raised = calls[0][0], 0  # the first step starts from the initial state
    for start, bar, (new, _, _) in calls:
        assert bar == min(accepted, start)
        raised += start > accepted
        accepted = new.objective  # every call but the last (the stall) was accepted
    assert raised >= 1


def test_optimize_rerun_identical_trace(opt_run, tmp_path):
    cfg, out = opt_run
    out2 = tmp_path / "again"
    assert run_single("optimize", str(cfg), str(out2), None, False) == 0
    assert (out / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out / "domain.grid").read_bytes() == (out2 / "domain.grid").read_bytes()


# ---- sweep-p ----------------------------------------------------------


def test_sweep_p_stages_and_weight_trace(tmp_path):
    sections = sweep_sections("4 8")
    sections["optimizer"]["max_steps"] = 3
    sections["penalty"] = {"s": 0.02}  # without a reference: anchors stage 2 at stage 1's end
    cfg = write_ini(tmp_path / "sweep.ini", sections)
    out = tmp_path / "out"
    assert run_single("sweep-p", str(cfg), str(out), None, False) == 0
    names = {p.name for p in out.iterdir()}
    assert {"trace_p4.csv", "trace_p8.csv", "xi_trace.csv", "domain.grid",
            "boundary.csv", "xi.csv", "manifest.json"} <= names
    # single tracked eigenvalue: the stage weight is exactly 1 + 1/p
    assert (out / "xi_trace.csv").read_text() == (
        "p,k,xi\n4,1,1.25\n8,1,1.125\n"
    )
    manifest = json.loads((out / "manifest.json").read_text())
    stages = manifest["stages"]
    assert [s["p"] for s in stages] == [4.0, 8.0]
    assert all("objective_F" in s and "E" in s and "volume" in s for s in stages)
    assert stages[0]["E"] == 0.0 and stages[1]["E"] > 0.0
    assert all(s["stop_reason"] in ("converged", "line_search_stall", "max_steps")
               for s in stages)


def test_sweep_p_bad_schedule(tmp_path):
    cfg = write_ini(tmp_path / "sweep.ini", sweep_sections("8 4"))
    assert run_single("sweep-p", str(cfg), str(tmp_path / "out"), None, False) == 2


def test_sweep_p_colliding_stage_labels_exit_2(tmp_path, capsys):
    # both stages would write trace_p32.csv and label their xi rows "32"
    cfg = write_ini(tmp_path / "sweep.ini", sweep_sections("32 32.000001"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single("sweep-p", str(cfg), str(out), None, False) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "[sweep] schedule" in err
    assert not any(out.iterdir())  # rejected before any stage ran


def test_sweep_p_non_finite_stage_exit_2_before_any_stage(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("eigenshape.optimizer.optimize",
                        _raise(AssertionError("a stage ran")))
    cfg = write_ini(tmp_path / "sweep.ini",
                    _small_sections("sweep-p", sweep={"schedule": "8 nan"}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single("sweep-p", str(cfg), str(out), None, False) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "[sweep] schedule" in err and "nan" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, edits, named", [
    # every stage of a sweep takes its p from [sweep] schedule
    ("sweep-p", {"regularization": {"p": 32}},
     "error: [regularization] p is not read by sweep-p\n"),
    # at s = 0 a reference anchors nothing, whatever its grid
    ("optimize", {"penalty": {"reference": "ref_17x17.grid"}},
     "error: [penalty] reference is not read by optimize\n"),
    # at s > 0 it must lie on the [shape] grid
    ("optimize", {"penalty": {"s": 0.02, "reference": "ref_17x17.grid"}}, "ref_17x17.grid"),
    ("sweep-p", {"penalty": {"s": 0.02, "reference": "ref_17x17.grid"}}, "ref_17x17.grid"),
    # and without one, s anchors nothing under optimize (sweep-p's later stages
    # anchor the previous minimizer)
    ("optimize", {"penalty": {"s": 0.02}}, "error: [penalty] s = 0.02 anchors nothing"),
], ids=["sweep_p_regularization_p", "reference_at_s_0", "optimize_reference_off_grid",
        "sweep_p_reference_off_grid", "optimize_s_without_reference"])
def test_flow_setting_that_takes_no_effect_exit_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, edits, named):
    monkeypatch.setattr("eigenshape.optimizer.solve_spectrum",
                        _raise(AssertionError("a solve ran")))
    _write_references(tmp_path)
    edits = {section: {k: str(tmp_path / v) if k == "reference" else v for k, v in kv.items()}
             for section, kv in edits.items()}
    cfg = write_ini(tmp_path / "c.ini", _small_sections(command, **edits))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single(command, str(cfg), str(out), None, False) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("family, key", [("single", {"index": 2}), ("softmin", {"beta": 1.0})])
def test_optimize_spelling_out_the_flow_defaults_writes_the_same_bytes(tmp_path, family, key):
    # the library owns every default: leaving a key out is setting it to its default
    omitted = {"run": {"seed": 3}, "grid": {"nx": 33, "ny": 33}, "shape": {"kind": "blob"},
               "objective": {"family": family, "n": 2}}
    spelled = {**omitted, "objective": {**omitted["objective"], **key},
               "regularization": {"p": 32}, "penalty": {"s": 0},
               "optimizer": {"dt0": 0.5, "max_steps": 200, "conv_tol": 1e-6}}
    manifests = []
    for name, sections in (("omitted", omitted), ("spelled", spelled)):
        cfg = write_ini(tmp_path / f"{name}.ini", sections)
        assert run_single("optimize", str(cfg), str(tmp_path / name), None, False) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        manifests.append({k: v for k, v in manifest.items()
                          if k not in ("config", "name", "wall_time_s")})
    assert manifests[0] == manifests[1]
    names = sorted(manifests[0]["artifacts"])
    assert "trace.csv" in names
    for name in names:
        assert (tmp_path / "omitted" / name).read_bytes() == (
            tmp_path / "spelled" / name).read_bytes()


@pytest.mark.parametrize("k", [1, 2])
def test_single_index_writes_the_bytes_of_linear_with_a_unit_weight(tmp_path, k):
    single = {"run": {"seed": 3}, "grid": {"nx": 33, "ny": 33},
              "shape": {"kind": "two_blobs", "sep": 2.0, "r0": 0.7, "amp": 0.15, "modes": 4},
              "objective": {"family": "single", "n": 2, "index": k},
              "optimizer": {"max_steps": 3}}
    linear = {**single, "objective": {"family": "linear", "n": 2,
                                      "coeffs": " ".join("1" if i == k else "0" for i in (1, 2))}}
    for name, sections in (("single", single), ("linear", linear)):
        cfg = write_ini(tmp_path / f"{name}.ini", sections)
        assert run_single("optimize", str(cfg), str(tmp_path / name), None, False) == 0
    names = sorted(p.name for p in (tmp_path / "single").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "linear").iterdir())
    assert "trace.csv" in names and "mode_2.grid" in names
    for name in names:
        if name != "manifest.json":  # its config echo differs
            assert (tmp_path / "single" / name).read_bytes() == (
                tmp_path / "linear" / name).read_bytes(), name


def _step_failing_at_p16(monkeypatch):
    # stage p = 16 aborts in its first flow step, after its initial spectrum
    import eigenshape.optimizer as optimizer
    real_step = optimizer.step

    def step(state, dt, bar):
        if state.cfg.p == 16:
            raise SpectralError("forced failure")
        return real_step(state, dt, bar)

    monkeypatch.setattr(optimizer, "step", step)


def _initial_spectrum_failing(monkeypatch):
    # the first stage aborts before its first record
    monkeypatch.setattr("eigenshape.optimizer.solve_spectrum",
                        _raise(SpectralError("forced failure")))


@pytest.mark.parametrize("patch, label, cause", [
    (_initial_spectrum_failing, "8", "initial spectrum failed: forced failure"),
    (_step_failing_at_p16, "16", "spectrum failed at step 1: forced failure"),
], ids=["first_stage_initial_spectrum", "last_stage_mid_run"])
def test_sweep_p_aborted_stage_exit_1_with_one_line(tmp_path, capsys, monkeypatch,
                                                     patch, label, cause):
    patch(monkeypatch)
    cfg = write_ini(tmp_path / "sweep.ini", _small_sections("sweep-p"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single("sweep-p", str(cfg), str(out), None, False) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "aborted" in err
    assert f"p = {label}: {cause}" in err
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert stages[-1]["stop_reason"] == "aborted"


@pytest.mark.parametrize("edits, patch, cause", [
    ({}, _initial_spectrum_failing, "initial spectrum failed: forced failure"),
    ({"regularization": {"p": 16}}, _step_failing_at_p16,
     "spectrum failed at step 1: forced failure"),
], ids=["initial_spectrum", "mid_run"])
def test_optimize_aborted_exit_1_with_one_line(tmp_path, capsys, monkeypatch,
                                               edits, patch, cause):
    patch(monkeypatch)
    cfg = write_ini(tmp_path / "opt.ini", _small_sections("optimize", **edits))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single("optimize", str(cfg), str(out), None, False) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "optimize aborted" in err and cause in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stop_reason"] == "aborted"


@pytest.mark.parametrize("section, key, value, command", [
    ("penalty", "s", "-1", "optimize"),
    ("penalty", "s", "nan", "optimize"),
    ("penalty", "s", "inf", "sweep-p"),
    # a retired key (its value is a constant of the program) is not read at
    # any value: not at one its old check rejected ...
    ("solve", "tol", "nan", "solve"),
    ("solve", "tol", "0", "solve"),
    ("solve", "tol", "-1e-8", "solve"),
    ("optimizer", "eig_tol", "nan", "optimize"),
    ("optimizer", "eig_tol", "0", "sweep-p"),
    ("optimizer", "eig_tol", "-1e-8", "optimize"),
    ("optimizer", "modes", "1", "optimize"),
    ("regularization", "quad_nodes", "17", "sweep-p"),
    # ... nor at the value it now always has
    ("solve", "tol", "1e-8", "solve"),
    ("optimizer", "eig_tol", "1e-8", "optimize"),
    ("optimizer", "reinit_every", "5", "sweep-p"),
    ("optimizer", "modes", "3", "optimize"),            # [objective] n + 1
    ("regularization", "quad_nodes", "4", "sweep-p"),
    ("shape", "mirror", "no", "solve"),                 # of a blob
    ("run", "name", "every-key", "solve"),              # the manifest names it by --out
])
def test_unusable_solver_value_exit_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                       section, key, value, command):
    for target in ("eigenshape.cli.factor_laplacian", "eigenshape.optimizer.solve_spectrum"):
        monkeypatch.setattr(target, _raise(AssertionError("a solve ran")))
    kind = "blob" if key == "mirror" else "disk"
    cfg = write_ini(tmp_path / "c.ini", _small_sections(command, kind, family="linear",
                                                        **{section: {key: value}}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single(command, str(cfg), str(out), None, False) == 2
    err = capsys.readouterr().err
    must = ("s must be finite" if section == "penalty"
            else f"error: [{section}] {key} is not read by {command}\n")
    assert err.count("\n") == 1 and must in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["solve", "optimize", "sweep-p"])
def test_empty_initial_domain_exit_2_with_one_message(tmp_path, capsys, command):
    cfg = write_ini(tmp_path / "c.ini", _small_sections(command, shape={"cx": 10.0}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single(command, str(cfg), str(out), None, False) == 2
    assert capsys.readouterr().err == "error: domain has no active nodes\n"
    assert not (out / "manifest.json").exists()


# ---- config fuzz ------------------------------------------------------


#: every [shape] key that each kind reads besides kind, at values that fit
#: the 33x33 grid of _small_sections (kind = file reads only its path)
_SHAPES = {
    "disk": {"cx": 0.0, "cy": 0.0, "r": 1.2},
    "square": {"cx": 0.0, "cy": 0.0, "side": 2.0},
    "rectangle": {"x0": -1.0, "y0": -1.0, "x1": 1.0, "y1": 1.0},
    "lshape": {"cx": 0.0, "cy": 0.0, "side": 2.0},
    "blob": {"cx": 0.0, "cy": 0.0, "r0": 0.9, "amp": 0.2, "modes": 5},
    "two_blobs": {"cy": 0.0, "r0": 0.7, "amp": 0.15, "modes": 4, "sep": 2.0},
}
#: every [objective] key that each family reads besides family
_OBJECTIVES = {
    "single": {"n": 1, "index": 1},
    "linear": {"n": 2, "coeffs": "1.0 0.5"},
    "softmin": {"n": 2, "subset": "1 2", "beta": 4.0},
}


def _small_sections(command, kind="disk", family="single", **edits):
    """A 33x33 config of ``command`` (solve, optimize or sweep-p) that runs
    in at most 2 steps per stage: the [shape] keys of ``kind``, the
    [objective] keys of ``family``, then ``edits`` ({section: {key: value}}).
    Before the edits, every section in it is one that ``command`` reads."""
    sections = {"run": {"seed": 3}}
    if kind != "file":
        sections["grid"] = {"nx": 33, "ny": 33}
    sections["shape"] = {"kind": kind, **_SHAPES.get(kind, {})}
    if command == "solve":
        sections["solve"] = {"modes": 2}
    else:
        sections["objective"] = {"family": family, **_OBJECTIVES[family]}
        if command == "optimize":  # sweep-p takes every p from its schedule
            sections["regularization"] = {"p": 32}
        sections.update(optimizer={"dt0": 0.4, "max_steps": 2}, penalty={})
    if command == "sweep-p":
        sections["sweep"] = {"schedule": "8 16"}
    for section, kv in edits.items():
        sections.setdefault(section, {}).update(kv)
    return sections


@pytest.mark.parametrize("shape", [
    {"kind": "disk", "r": "nan"},
    {"kind": "disk", "cx": "inf"},
    {"kind": "blob", "amp": "inf"},
], ids=["disk_r_nan", "disk_cx_inf", "blob_amp_inf"])
@pytest.mark.parametrize("command", ["solve", "optimize", "sweep-p"])
def test_non_finite_shape_value_exit_2(tmp_path, capsys, command, shape):
    cfg = write_ini(tmp_path / "c.ini", _small_sections(command, shape["kind"], shape=shape))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any numpy arithmetic warns
        assert run_single(command, str(cfg), str(tmp_path / "out"), None, False) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "[shape]" in err


_NUMBER = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308"]),
                    st.floats(-3.0, 3.0).map(repr))
_COUNT = st.integers(-1, 5).map(str)
#: [penalty] reference files that the config fuzz writes next to its config
_REFERENCES = ["ref_v2.grid", "ref_v1.grid", "ref_truncated.grid", "ref_17x17.grid",
               "missing.grid"]


def _write_v1(path, grid, field) -> None:
    """``field`` as a text dump of the retired v1 format: the header line
    "GRIDDUMP v1 nx ny h x0 y0", then ny rows of nx decimal floats."""
    with open(path, "w") as f:
        f.write(f"GRIDDUMP v1 {grid.nx} {grid.ny} {grid.h!r} "
                f"{grid.origin[0]!r} {grid.origin[1]!r}\n")
        np.savetxt(f, field, fmt="%.17g")


def _write_references(base: pathlib.Path) -> None:
    grid = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 33, 33)
    ref = disk(grid, (0.0, 0.0), 1.0)
    write_grid_dump(ref, base / "ref_v2.grid")
    _write_v1(base / "ref_v1.grid", grid, ref.phi)
    (base / "ref_truncated.grid").write_bytes((base / "ref_v2.grid").read_bytes()[:-8])
    write_grid_dump(disk(Grid.from_box(-2.0, -2.0, 2.0, 2.0, 17, 17), (0.0, 0.0), 1.0),
                    base / "ref_17x17.grid")
#: (section, key) -> values; sizes stay bounded: grids of at most 33x33
#: nodes, at most 2 steps and at most 2 stages
_FUZZ_KEYS = {
    **{("grid", k): st.integers(-1, 33).map(str) for k in ("nx", "ny")},
    **{("grid", k): _NUMBER for k in ("x0", "y0", "x1", "y1")},
    **{("shape", k): _NUMBER
       for k in ("cx", "cy", "r", "side", "x0", "y0", "x1", "y1", "r0", "amp", "sep")},
    ("shape", "modes"): _COUNT,
    ("solve", "modes"): _COUNT,
    ("objective", "n"): _COUNT,
    ("objective", "index"): _COUNT,
    ("objective", "beta"): _NUMBER,
    ("objective", "coeffs"): st.lists(_NUMBER, max_size=4).map(" ".join),
    ("objective", "subset"): st.lists(_COUNT, max_size=3).map(" ".join),
    ("regularization", "p"): _NUMBER,
    ("optimizer", "max_steps"): st.integers(-1, 2).map(str),
    **{("optimizer", k): _NUMBER for k in ("dt0", "conv_tol")},
    ("sweep", "schedule"): st.lists(_NUMBER, max_size=2).map(" ".join),
    ("penalty", "s"): _NUMBER,
    ("penalty", "reference"): st.sampled_from(_REFERENCES),
}


@st.composite
def _fuzz_cases(draw):
    """A command, a shape kind and a family, then up to 3 edits of keys
    that they read: every key of a section of their config, but only the
    [shape] keys of the kind and the [objective] keys of the family. An
    edit draws a section, then one of its keys, so that the six [grid] keys
    (one edit of which alone makes the grid anisotropic) take no more
    edits than any other section."""
    command = draw(st.sampled_from(["solve", "optimize", "sweep-p"]))
    kind = draw(st.sampled_from(sorted(_SHAPES)))
    family = draw(st.sampled_from(sorted(_OBJECTIVES)))
    sections = _small_sections(command, kind, family)
    read = sorted((section, key) for section, key in _FUZZ_KEYS if section in sections
                  and (section not in ("shape", "objective") or key in sections[section]))
    by_section = st.sampled_from(sorted({s for s, _ in read})).flatmap(
        lambda section: st.sampled_from([k for k in read if k[0] == section]))
    edit = by_section.flatmap(lambda key: st.tuples(st.just(key), _FUZZ_KEYS[key]))
    return command, kind, family, draw(st.lists(edit, max_size=3))


@example(case=("solve", "disk", "single", [(("shape", "r"), "nan")]))
@example(case=("optimize", "blob", "single", [(("shape", "amp"), "inf")]))
@example(case=("sweep-p", "disk", "single", [(("sweep", "schedule"), "32 32.000001")]))
@example(case=("optimize", "disk", "single", [(("penalty", "s"), "-1")]))
@example(case=("sweep-p", "disk", "single", [(("sweep", "schedule"), "8 nan")]))
@example(case=("optimize", "disk", "single", [(("penalty", "reference"), "ref_v1.grid"),
                                              (("penalty", "s"), "0.02")]))
@example(case=("optimize", "disk", "single", [(("penalty", "reference"), "ref_17x17.grid")]))
@seed(2017)  # a fixed draw: editing the test or its @example rows does not re-seed it
@settings(max_examples=120, deadline=None, derandomize=False, database=None)
@given(case=_fuzz_cases())
def test_fuzzed_configs_exit_0_1_or_2(case):
    command, kind, family, edits = case
    sections = _small_sections(command, kind, family)
    with tempfile.TemporaryDirectory() as tmp:
        _write_references(pathlib.Path(tmp))
        for (section, key), value in edits:
            sections[section][key] = str(pathlib.Path(tmp) / value) if key == "reference" else value
        cfg = write_ini(pathlib.Path(tmp) / "c.ini", sections)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_single(command, str(cfg), str(pathlib.Path(tmp) / "out"), None, False)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_config_fuzz_draws_the_same_examples_on_every_run(monkeypatch):
    # the fuzz runs its examples against a stand-in for run_single that
    # records each config; two runs record the same configs in the same order
    runs = []
    for _ in range(2):
        configs = []

        def record(command, cfg, out, seed, check):
            text = pathlib.Path(cfg).read_text()
            configs.append((command, text.replace(str(pathlib.Path(cfg).parent), "<tmp>")))
            return 0

        monkeypatch.setattr(sys.modules[__name__], "run_single", record)
        test_fuzzed_configs_exit_0_1_or_2()
        runs.append(configs)
    assert len(runs[0]) >= 120
    assert runs[0] == runs[1]


# ---- diagnose ---------------------------------------------------------


def diagnose_sections(out, probes=16):
    return {
        "diagnose": {
            "domain": str(out / "domain.grid"),
            "spectrum": str(out / "spectrum.csv"),
            "xi": str(out / "xi.csv"),
            "probes": probes,
        },
    }


def test_diagnose_roundtrip(opt_run, tmp_path):
    _, out = opt_run
    cfg = write_ini(tmp_path / "diag.ini", diagnose_sections(out))
    dout = tmp_path / "dout"
    assert run_single("diagnose", str(cfg), str(dout), None, False) == 0
    report = json.loads((dout / "report.json").read_text())
    assert report["n_boundary"] > 100
    assert len(report["lambdas"]) == 2 and len(report["xi"]) == 1
    assert abs(report["el_residual"]["median"]) < 0.5
    counts = report["boundary_labels"]
    assert sum(counts.values()) == report["n_boundary"]
    assert counts.get("REDUCED", 0) / report["n_boundary"] >= 0.95
    assert report["torsion_violations"] == 0
    wl = (dout / "weiss.csv").read_text().splitlines()
    assert wl[0] == "x,y,r,W"
    assert len(wl) > 16  # probes * radii samples


def test_diagnose_counts_label_classes_and_violations_of_an_l_shape(tmp_path):
    # the corners of an L-shape give more than one label class, and probes
    # near the re-entrant corner see torsion violations; the report's counts
    # are those of the library calls on the same inputs. [diagnose] probes
    # sets the stride max(1, m // probes) over the m = 308 boundary samples,
    # so 200 probes all 308 of them and 96 probes 103
    solve = write_ini(tmp_path / "solve.ini", {
        "run": {"seed": 11},
        "grid": {"nx": 129, "ny": 129},
        "shape": {"kind": "lshape", "side": 2.4},
        "solve": {"modes": 3},
    })
    out = tmp_path / "solve"
    assert run_single("solve", str(solve), str(out), None, False) == 0
    (tmp_path / "xi.csv").write_text("k,xi\n1,1.0\n")
    d = read_grid_dump(out / "domain.grid")
    h = d.grid.h
    bm = extract_boundary(d)
    assert len(bm) == 308
    radii = probe_radii((4 * h, 6 * h, 8 * h, 12 * h), h)
    label, _, _ = classify_boundary(d, bm, radii)
    tv = solve_torsion(d)
    for probes, probed in ((400, 308), (200, 308), (96, 103)):
        cfg = write_ini(tmp_path / "diag.ini", {"diagnose": {
            "domain": str(out / "domain.grid"),
            "spectrum": str(out / "spectrum.csv"),
            "xi": str(tmp_path / "xi.csv"),
            "probes": probes,
        }})
        dout = tmp_path / f"dout{probes}"
        assert run_single("diagnose", str(cfg), str(dout), None, False) == 0
        report = json.loads((dout / "report.json").read_text())

        counts = report["boundary_labels"]
        assert len(counts) >= 2
        assert counts == dict(collections.Counter(label.tolist()))
        assert sum(counts.values()) == report["n_boundary"] == len(bm)
        weiss_rows = (dout / "weiss.csv").read_text().splitlines()[1:]
        assert len(weiss_rows) == probed * len(radii)
        probe_pts = bm.points[::max(1, len(bm) // probes)]
        assert len(probe_pts) == probed
        violations = torsion_probe(d, tv, probe_pts, radii[0])
        assert report["torsion_violations"] > 0
        assert report["torsion_violations"] == violations.sum()


def test_diagnose_bad_objective_exit_2_before_any_probe(opt_run, tmp_path, capsys,
                                                        monkeypatch):
    # diagnose reads no [objective]: any such section, a valid one, a bad
    # one or an empty one, exits 2 with one line naming it, before the
    # inputs are read or any probe runs
    _, out = opt_run
    for target in ("_load_diagnose_inputs", "el_residual", "weiss_profile",
                   "classify_boundary", "torsion_probe"):
        monkeypatch.setattr(f"eigenshape.cli.{target}", _raise(AssertionError(target)))
    for i, objective in enumerate([{"family": "single", "n": 1, "index": 1},
                                   {"family": "nope"}, {}]):
        sections = {**diagnose_sections(out), "objective": objective}
        cfg = write_ini(tmp_path / f"diag{i}.ini", sections)
        dout = tmp_path / f"dout{i}"
        capsys.readouterr()
        assert run_single("diagnose", str(cfg), str(dout), None, False) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[objective]" in err and "not read by diagnose" in err
        assert list(dout.iterdir()) == []


def test_diagnose_grid_mismatch(opt_run, tmp_path):
    _, out = opt_run
    other = write_ini(tmp_path / "solve65.ini", {
        "grid": {"nx": 65, "ny": 65},
        "shape": {"kind": "disk", "r": 1.0},
        "solve": {"modes": 1, "torsion": "no"},
    })
    oout = tmp_path / "o65"
    assert run_single("solve", str(other), str(oout), None, False) == 0
    sections = diagnose_sections(out)
    sections["diagnose"]["domain"] = str(oout / "domain.grid")
    cfg = write_ini(tmp_path / "diag.ini", sections)
    assert run_single("diagnose", str(cfg), str(tmp_path / "dout"), None, False) == 2


def test_diagnose_missing_inputs(tmp_path):
    cfg = write_ini(tmp_path / "diag.ini", {
        "diagnose": {
            "domain": str(tmp_path / "a.grid"),
            "spectrum": str(tmp_path / "b.csv"),
            "xi": str(tmp_path / "c.csv"),
        },
    })
    assert run_single("diagnose", str(cfg), str(tmp_path / "dout"), None, False) == 2


def test_diagnose_empty_boundary(tmp_path):
    grid = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 33, 33)
    empty = GridDomain(grid, np.ones((33, 33)))
    write_grid_dump(empty, tmp_path / "domain.grid")
    write_field_dump(grid, np.zeros((33, 33)), tmp_path / "mode_1.grid")
    (tmp_path / "spectrum.csv").write_text("k,lambda,resid\n1,1.0,0.0\n")
    (tmp_path / "xi.csv").write_text("k,xi\n1,1.0\n")
    cfg = write_ini(tmp_path / "diag.ini", {
        "diagnose": {
            "domain": str(tmp_path / "domain.grid"),
            "spectrum": str(tmp_path / "spectrum.csv"),
            "xi": str(tmp_path / "xi.csv"),
        },
    })
    dout = tmp_path / "dout"
    assert run_single("diagnose", str(cfg), str(dout), None, False) == 0
    report = json.loads((dout / "report.json").read_text())
    assert report["n_boundary"] == 0
    assert "el_residual" not in report


def _diagnose_corrupted(opt_run, tmp_path, capsys, name, edit):
    """Diagnose a copy of the optimize artifacts with ``name`` rewritten by
    ``edit`` (a function of a CSV's lines, or of a .grid dump's header line
    and payload bytes); returns the exit code and stderr."""
    _, out = opt_run
    copy = tmp_path / "run"
    copy.mkdir()
    for p in out.glob("*.*"):
        if p.suffix in (".csv", ".grid"):
            (copy / p.name).write_bytes(p.read_bytes())
    path = copy / name
    if name.endswith(".grid"):
        head, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(edit(head + b"\n", body))
    else:
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    cfg = write_ini(tmp_path / "diag.ini", diagnose_sections(copy))
    capsys.readouterr()
    code = run_single("diagnose", str(cfg), str(tmp_path / "dout"), None, False)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name, row", [
    ("spectrum.csv", "3,1.0"),          # truncated
    ("spectrum.csv", "3,1.0,0.0,7.0"),  # extra field
    ("xi.csv", "2,abc"),                # not a number
    ("xi.csv", ""),                     # blank
    ("spectrum.csv", "2,1.0,0.0"),      # k repeated
    ("xi.csv", "5,1.0"),                # k skips ahead
    ("xi.csv", "1.5,1.0"),              # k not a whole number
])
def test_diagnose_bad_row(opt_run, tmp_path, capsys, name, row):
    code, err = _diagnose_corrupted(opt_run, tmp_path, capsys, name,
                                    lambda lines: lines + [row])
    assert code == 2
    assert err.count("\n") == 1 and name in err and row in err


@pytest.mark.parametrize("name", ["spectrum.csv", "xi.csv", "domain.grid"])
def test_diagnose_nan(opt_run, tmp_path, capsys, name):
    def put_nan(lines):
        cells = lines[1].split(",")
        cells[1] = "nan"
        return [lines[0], ",".join(cells)] + lines[2:]

    edit = _with_nan if name.endswith(".grid") else put_nan
    code, err = _diagnose_corrupted(opt_run, tmp_path, capsys, name, edit)
    assert code == 2
    assert err.count("\n") == 1 and name in err


@pytest.mark.parametrize("edit", [
    lambda head, body: b"GRIDDUMP v2\n" + body,
    lambda head, body: head + body[:-8 * int(head.split()[2])],
], ids=["header_without_sizes", "last_row_missing"])
def test_diagnose_truncated_grid(opt_run, tmp_path, capsys, edit):
    code, err = _diagnose_corrupted(opt_run, tmp_path, capsys, "domain.grid", edit)
    assert code == 2
    assert err.count("\n") == 1 and "domain.grid" in err


_HUGE_HEADER = "GRIDDUMP v2 1000000 1000000 0.1 0.0 0.0"


def test_diagnose_oversized_header(opt_run, tmp_path, capsys):
    # sizes that no payload backs must not be allocated
    code, err = _diagnose_corrupted(opt_run, tmp_path, capsys, "domain.grid",
                                    lambda head, body: _HUGE_HEADER.encode() + b"\n" + body)
    assert code == 2
    assert err.count("\n") == 1 and "domain.grid" in err


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Diagnose inputs cheap enough to fuzz: a solved 33x33 disk and xi.csv."""
    base = tmp_path_factory.mktemp("cli-small")
    cfg = write_ini(base / "solve.ini", {
        "run": {"seed": 3},
        "grid": {"nx": 33, "ny": 33},
        "shape": {"kind": "disk", "r": 1.2},
        "solve": {"modes": 2, "torsion": "no"},
    })
    out = base / "out"
    assert run_single("solve", str(cfg), str(out), None, False) == 0
    (out / "xi.csv").write_text("k,xi\n1,1.0\n")
    return out


_TOKEN = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 10**6).map(str),
    st.text(alphabet="0123456789.,-+eEinfa x\t", max_size=12),
)
_ROW_EDIT = st.tuples(
    st.integers(0, 3),
    st.sampled_from(["replace", "insert", "delete"]),
    st.lists(_TOKEN, max_size=4).map(",".join),
)
_HEADER = st.one_of(
    st.builds("GRIDDUMP {} {} {} {!r} {!r} {!r}".format,
              st.sampled_from(["v1", "v2"]),
              st.just(33) | st.integers(-2, 10**7),
              st.just(33) | st.integers(-2, 10**7),
              st.just(0.125) | st.floats(),
              st.just(-2.0) | st.floats(),
              st.just(-2.0) | st.floats()),
    st.lists(_TOKEN, max_size=8).map(" ".join),
)


def _edit_rows(path, edits):
    lines = path.read_text().splitlines()
    for i, how, row in edits:
        i = min(i, len(lines))
        if how == "replace":
            lines[i:i + 1] = [row]
        elif how == "insert":
            lines.insert(i, row)
        else:
            del lines[i:i + 1]
    path.write_text("\n".join(lines) + "\n")


_PAYLOAD_EDIT = st.tuples(
    st.sampled_from(["domain.grid", "mode_1.grid", "*.grid"]),
    st.one_of(st.tuples(st.just("truncate"), st.integers(0, 8800)),
              st.tuples(st.just("append"), st.binary(min_size=1, max_size=9)),
              st.tuples(st.just("header"), _HEADER)))


def _edit_bytes(path, how, arg):
    """Truncate a dump at byte ``arg``, append the bytes ``arg``, or replace
    its header line by the text ``arg`` and keep the rest."""
    data = path.read_bytes()
    if how == "truncate":
        data = data[:arg]
    elif how == "append":
        data += arg
    else:
        data = arg.encode() + b"\n" + data.partition(b"\n")[2]
    path.write_bytes(data)


def _put_values(path, j, values):
    """Write ``values`` into row ``j`` of a 33x33 dump's payload, from column 15 on."""
    head, _, body = path.read_bytes().partition(b"\n")
    at = 8 * (33 * j + 15)
    path.write_bytes(head + b"\n" + body[:at] + np.array(values, "<f8").tobytes()
                     + body[at + 8 * len(values):])


@example(spectrum=[], xi=[], header=("domain.grid", _HUGE_HEADER), row=None, payload=None)
@example(spectrum=[], xi=[], header=("*.grid", _HUGE_HEADER), row=None, payload=None)
@example(spectrum=[], xi=[],  # a v1 header with sizes that the payload backs
         header=("*.grid", "GRIDDUMP v1 33 33 0.125 -2.0 1.8014398509481984e+16"),
         row=None, payload=None)
@example(spectrum=[], xi=[], header=None, row=("mode_1.grid", 3, [math.nan, 1.0]),
         payload=None)
@example(spectrum=[], xi=[], header=None, row=("domain.grid", 3, [math.inf]), payload=None)
@example(spectrum=[], xi=[], header=None, row=("mode_1.grid", 3, [-0.0, 5e-324]),
         payload=None)
@example(spectrum=[], xi=[], header=None, row=None,
         payload=("mode_1.grid", ("header", _HUGE_HEADER)))
@example(spectrum=[], xi=[], header=None, row=None,
         payload=("*.grid", ("header", "GRIDDUMP v2 33 33 0.125 -2.0 1.8014398509481984e+16")))
@example(spectrum=[], xi=[], header=None, row=None, payload=("mode_1.grid", ("truncate", 100)))
@example(spectrum=[], xi=[], header=None, row=None, payload=("domain.grid", ("append", b"\0")))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    spectrum=st.lists(_ROW_EDIT, max_size=2),
    xi=st.lists(_ROW_EDIT, max_size=2),
    header=st.none() | st.tuples(
        st.sampled_from(["domain.grid", "mode_1.grid", "*.grid"]), _HEADER),
    row=st.none() | st.tuples(
        st.sampled_from(["domain.grid", "mode_1.grid"]), st.integers(0, 32),
        st.lists(st.floats(), max_size=4)),
    payload=st.none() | _PAYLOAD_EDIT,
)
def test_diagnose_fuzzed_inputs_exit_0_or_2(small_run, spectrum, xi, header, row, payload):
    with tempfile.TemporaryDirectory() as tmp:
        run = pathlib.Path(tmp) / "run"
        shutil.copytree(small_run, run)
        _edit_rows(run / "spectrum.csv", spectrum)
        _edit_rows(run / "xi.csv", xi)
        if row is not None:
            name, j, values = row
            _put_values(run / name, j, values)
        if header is not None:
            pattern, text = header
            for path in run.glob(pattern):
                _edit_bytes(path, "header", text)
        if payload is not None:
            pattern, (how, arg) = payload
            for path in run.glob(pattern):
                _edit_bytes(path, how, arg)
        cfg = write_ini(pathlib.Path(tmp) / "diag.ini", diagnose_sections(run, probes=8))
        code = run_single("diagnose", str(cfg), str(pathlib.Path(tmp) / "dout"), None, False)
    assert code in (0, 2)


def _with_nan(head, body):
    values = np.frombuffer(body, dtype="<f8").copy()
    values[40] = np.nan
    return head + values.tobytes()


@pytest.mark.parametrize("edit", [
    lambda head, body: head + body[:-8],                       # truncated payload
    lambda head, body: head + body + b"\0",                    # one extra byte
    _with_nan,
    lambda head, body: b"GRIDDUMP v2\n" + body,                # header without sizes
    lambda head, body: head.replace(b" v2 ", b" v3 ") + body,  # unknown version
    lambda head, body: _HUGE_HEADER.encode() + b"\n" + body,
    lambda head, body: head[:-1] + body,                        # no newline after the header
], ids=["truncated_payload", "extra_byte", "nan", "header_without_sizes",
        "unknown_version", "oversized_header", "header_runs_into_payload"])
@pytest.mark.parametrize("name", ["domain.grid", "mode_1.grid"])
def test_diagnose_v2_dump_exit_2(small_run, tmp_path, capsys, name, edit):
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    head, _, body = (run / name).read_bytes().partition(b"\n")
    (run / name).write_bytes(edit(head + b"\n", body))
    code, err, _ = _diagnose_small(run, tmp_path, capsys)
    assert code == 2
    assert err.count("\n") == 1 and name in err


def test_dump_without_newline_exit_2_reads_a_bounded_header(tmp_path, capsys):
    # a non-dump file with no newline is rejected after its first 256 bytes
    path = tmp_path / "blob.grid"
    path.write_bytes(b"GRIDDUMP v2 " + b"7" * (4 << 20))
    cfg = write_ini(tmp_path / "file.ini", {"shape": {"kind": "file", "path": str(path)}})
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run_single("solve", str(cfg), str(tmp_path / "out"), None, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20  # the 4 MiB file is not read whole
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "blob.grid" in err


def test_v1_dump_with_oversized_body_exit_2_reads_a_bounded_body(tmp_path, capsys):
    # a v1 dump is rejected from its header line, before its body is read
    path = tmp_path / "blob.grid"
    path.write_bytes(b"GRIDDUMP v1 8 8 0.5 -2.0 -2.0\n" + b"7" * (4 << 20))
    cfg = write_ini(tmp_path / "file.ini", {"shape": {"kind": "file", "path": str(path)}})
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run_single("solve", str(cfg), str(tmp_path / "out"), None, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20  # the 4 MiB body is not read
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "blob.grid" in err and "v1" in err


def _diagnose_small(run, tmp_path, capsys):
    """Diagnose ``run`` with 8 probes; the exit code, stderr and report."""
    tmp_path.mkdir(exist_ok=True)
    cfg = write_ini(tmp_path / "diag.ini", diagnose_sections(run, probes=8))
    dout = tmp_path / "dout"
    capsys.readouterr()
    code = run_single("diagnose", str(cfg), str(dout), None, False)
    report = dout / "report.json"
    return code, capsys.readouterr().err, report.read_bytes() if report.exists() else None


@pytest.mark.parametrize("header", ["GRIDDUMP v2 3_3 33 0.125 -2.0 -2.0",
                                    "GRIDDUMP v2 33 \u06633 0.125 -2.0 -2.0"],
                         ids=["underscore", "non_ascii_digit"])
def test_dump_header_token_rule_exit_2(small_run, tmp_path, capsys, header):
    # int() and float() would read either header as a 33x33 grid
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    head, _, body = (run / "domain.grid").read_bytes().partition(b"\n")
    assert head == b"GRIDDUMP v2 33 33 0.125 -2.0 -2.0"
    (run / "domain.grid").write_bytes(header.encode() + b"\n" + body)
    with pytest.raises(ValueError, match="ASCII"):
        read_field_dump(run / "domain.grid")
    code, err, _ = _diagnose_small(run, tmp_path, capsys)
    assert code == 2
    assert err.count("\n") == 1 and "domain.grid" in err


@pytest.mark.parametrize("section, key, token", [("grid", "nx", "3_3"),
                                                 ("grid", "ny", "\u0663\u0663"),
                                                 ("shape", "r", "1_0e-1")],
                         ids=["underscore_int", "non_ascii_int", "underscore_float"])
def test_config_value_token_rule_exit_2(tmp_path, capsys, section, key, token):
    # int() and float() would read each as 33 or 1.0
    sections = {"grid": {"nx": 33, "ny": 33}, "shape": {"kind": "disk", "r": 1.0}}
    sections[section][key] = token
    cfg = write_ini(tmp_path / "solve.ini", sections)
    capsys.readouterr()
    code = run_single("solve", str(cfg), str(tmp_path / "out"), None, False)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and f"bad value for [{section}] {key}" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_huge_finite_phi_dump_reinitializes_and_optimizes(tmp_path, capsys):
    # phi ~ 1e155 is finite, but its squares are not: reinitialize used to
    # overflow, and optimize then exited 2 with "phi must be finite"
    d = disk(Grid.from_box(-2.0, -2.0, 2.0, 2.0, 33, 33))
    huge = d.with_phi(d.phi * 1e155)
    write_grid_dump(huge, tmp_path / "huge.grid")
    cfg = write_ini(tmp_path / "opt.ini", {
        "shape": {"kind": "file", "path": tmp_path / "huge.grid"},
        "objective": {"family": "single", "n": 1},
        "optimizer": {"max_steps": 2},
    })
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = reinitialize(huge)
        code = run_single("optimize", str(cfg), str(tmp_path / "out"), None, False)
    assert np.isfinite(r.phi).all() and np.array_equal(r.inside, d.inside)
    assert code == 0 and capsys.readouterr().err == ""
    assert run_single("optimize", str(cfg), str(tmp_path / "out"), None, True) == 0


def test_diagnose_xi_without_rows_exit_2(small_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    (run / "xi.csv").write_text("k,xi\n")
    code, err, _ = _diagnose_small(run, tmp_path, capsys)
    assert code == 2
    assert err.count("\n") == 1 and "xi.csv" in err


@pytest.mark.parametrize("name, text, cause", [
    ("spectrum.csv", "k,lambda,resid\n", "lists no eigenpairs"),
    ("xi.csv", "k,xi\n1,1.0\n2,0.5\n3,0.25\n", "lists 3 weights but only 2 modes exist"),
], ids=["spectrum_without_rows", "xi_beyond_the_modes"])
def test_diagnose_inputs_that_do_not_match_exit_2(small_run, tmp_path, capsys, name, text,
                                                  cause):
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    (run / name).write_text(text)
    code, err, report = _diagnose_small(run, tmp_path, capsys)
    assert code == 2 and report is None
    assert err.count("\n") == 1 and f"{name} {cause}" in err


@pytest.mark.parametrize("token", ["1_0", "١.0", "#"],
                         ids=["underscore", "non_ascii_digit", "hash"])
@pytest.mark.parametrize("name", ["spectrum.csv", "xi.csv"])
def test_diagnose_csv_cell_exit_2(small_run, tmp_path, capsys, name, token):
    # only plain decimal floats: no digit separators, other digits or comments
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    cells = (run / name).read_text().splitlines()[1].split(",")
    cells[1] = token
    _edit_rows(run / name, [(1, "replace", ",".join(cells))])
    code, err, _ = _diagnose_small(run, tmp_path, capsys)
    assert code == 2
    assert err.count("\n") == 1 and f"{name}:2:" in err


def _loadtxt_row(line):
    """The row reader that ``_float_row`` replaced: one ``np.loadtxt`` row,
    with a blank line (which loadtxt skips) a ValueError."""
    if not line.strip():
        raise ValueError("blank line")
    return np.loadtxt([line], delimiter=",", comments=None, ndmin=2)[0].tolist()


def _row_bits(read, line):
    """The bits of the row that ``read`` makes of ``line``, or None when it raises."""
    try:
        return np.asarray(read(line), dtype=float).tobytes()
    except ValueError:
        return None


@pytest.mark.parametrize("line", [
    "1_0", "\u0661.0", "#", "", " ", "1,,2", ",", " 1.5 ", "\t-2.5e-3\t", "1.5\x1f",
    "1\xa0", "nan", "-nan", "inf", "-Infinity", "1e400", "1e-400", "-0.0", "0x10", "1 2",
    "1,2", "+1.,.5", "1e", "1d5", "1.5j",
])
def test_float_row_reads_as_the_loadtxt_row(line):
    # accepts and rejects the same lines, and reads the same bits
    assert _row_bits(_float_row, line) == _row_bits(_loadtxt_row, line)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TOKEN, max_size=4).map(",".join))
def test_float_row_reads_fuzzed_rows_as_the_loadtxt_row(line):
    assert _row_bits(_float_row, line) == _row_bits(_loadtxt_row, line)


@pytest.mark.parametrize("name", ["spectrum.csv", "xi.csv"])
def test_diagnose_csv_that_is_not_utf8_exit_2(small_run, tmp_path, capsys, name):
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    with open(run / name, "ab") as f:
        f.write(b"\xff\n")
    code, err, _ = _diagnose_small(run, tmp_path, capsys)
    assert code == 2
    assert err.startswith(f"error: {run / name} is not UTF-8 text: ") and err.count("\n") == 1
    assert list((tmp_path / "dout").iterdir()) == []


@pytest.fixture(scope="module")
def torsion_run(tmp_path_factory):
    """A solved 33x33 off-centre disk with its torsion.grid, and xi.csv."""
    base = tmp_path_factory.mktemp("cli-torsion")
    cfg = write_ini(base / "solve.ini", {
        "run": {"seed": 3},
        "grid": {"nx": 33, "ny": 33},
        "shape": {"kind": "disk", "cx": 0.1, "r": 1.2},
        "solve": {"modes": 2},
    })
    out = base / "out"
    assert run_single("solve", str(cfg), str(out), None, False) == 0
    (out / "xi.csv").write_text("k,xi\n1,1.0\n")
    return out


def test_diagnose_report_same_with_and_without_torsion_grid(torsion_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(torsion_run, run)
    code, _, with_file = _diagnose_small(run, tmp_path / "with", capsys)
    assert code == 0
    (run / "torsion.grid").unlink()
    code, _, solved = _diagnose_small(run, tmp_path / "without", capsys)
    assert code == 0
    assert with_file == solved


def test_diagnose_reads_torsion_grid_without_solving(torsion_run, tmp_path, capsys,
                                                      monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("diagnose solved the torsion equation")

    monkeypatch.setattr("eigenshape.cli.solve_torsion", no_solve)
    code, _, report = _diagnose_small(torsion_run, tmp_path, capsys)
    assert code == 0
    assert "torsion_violations" in json.loads(report)


def _torsion_of_other_disk(path):
    grid, _ = read_field_dump(path)
    write_field_dump(grid, solve_torsion(disk(grid, (-0.1, 0.0), 1.0)), path)


def _torsion_header(path):
    _edit_bytes(path, "header", "GRIDDUMP v2 33 33 0.13 -2.0 -2.0")


def _torsion_off_omega(path):
    grid, v = read_field_dump(path)
    v[0, 0] = 1e-3  # the box corner lies outside the disk
    write_field_dump(grid, v, path)


@pytest.mark.parametrize("edit", [_torsion_of_other_disk, _torsion_header,
                                  _torsion_off_omega],
                         ids=["other_disk", "grid_header", "nonzero_off_omega"])
def test_diagnose_bad_torsion_grid_exit_2(torsion_run, tmp_path, capsys, edit):
    run = tmp_path / "run"
    shutil.copytree(torsion_run, run)
    edit(run / "torsion.grid")
    code, err, _ = _diagnose_small(run, tmp_path, capsys)
    assert code == 2
    assert err.count("\n") == 1 and "torsion.grid" in err


@pytest.mark.parametrize("case", ["solve_spectrum", "solve_torsion", "diagnose_torsion",
                                  "optimize_abort", "sweep_p_abort"])
def test_every_exit_1_path_leaves_one_line_and_its_manifest(torsion_run, tmp_path, capsys,
                                                             monkeypatch, case):
    # a numerical failure ends any command with exit 1, one stderr line and a
    # manifest that lists exactly the files the command wrote before it failed
    failure = _raise(SpectralError("forced failure"))
    if case == "diagnose_torsion":  # no torsion.grid, so diagnose solves it afresh
        run = tmp_path / "run"
        shutil.copytree(torsion_run, run)
        (run / "torsion.grid").unlink()
        command, sections = "diagnose", diagnose_sections(run, probes=8)
        monkeypatch.setattr("eigenshape.cli.solve_torsion", failure)
    elif case.startswith("solve"):
        command, sections = "solve", _small_sections("solve")
        monkeypatch.setattr(f"eigenshape.cli.{case}", failure)
    else:  # the stage p = 16 aborts in its first step, after the sweep's stage p = 8
        edits = {"regularization": {"p": 16}} if case == "optimize_abort" else {}
        command = "optimize" if edits else "sweep-p"
        sections = _small_sections(command, **edits)
        _step_failing_at_p16(monkeypatch)
    cfg = write_ini(tmp_path / "c.ini", sections)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_single(command, str(cfg), str(out), None, False) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == _artifact_hashes(out)
    assert manifest.get("stages", [manifest])[-1]["converged"] is False
    if command in ("solve", "diagnose"):
        assert err == "numerical failure: forced failure\n"
        assert manifest["error"] == "forced failure"
    else:
        assert "aborted in the stage p = 16: " in err and "domain.grid" in manifest["artifacts"]


@pytest.mark.parametrize("site", ["shape", "reference", "domain.grid", "mode_1.grid",
                                  "torsion.grid"])
def test_v1_dump_exit_2_at_every_input_site(torsion_run, tmp_path, capsys, site):
    run = tmp_path / "run"
    shutil.copytree(torsion_run, run)
    path = run / (site if site.endswith(".grid") else "domain.grid")
    _write_v1(path, *read_field_dump(path))
    if site.endswith(".grid"):
        code, err, _ = _diagnose_small(run, tmp_path, capsys)
    else:
        command, kind, edits = {
            "shape": ("solve", "file", {"shape": {"path": str(path)}}),
            "reference": ("optimize", "disk", {"penalty": {"s": 0.02, "reference": str(path)}}),
        }[site]
        cfg = write_ini(tmp_path / "c.ini", _small_sections(command, kind, **edits))
        capsys.readouterr()
        code = run_single(command, str(cfg), str(tmp_path / "out"), None, False)
        err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and str(path) in err and "v1" in err


def _deny_reading(monkeypatch, path) -> None:
    """Every open of ``path`` raises the PermissionError of a file without
    read permission, which a test cannot make with chmod when it runs as root."""
    real_open, target = io.open, os.path.abspath(path)

    def guarded_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.abspath(file) == target:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", guarded_open)  # pathlib opens through io.open
    monkeypatch.setattr(builtins, "open", guarded_open)


#: input -> (command, --check, the file it names in the solved 33x33 run)
_INPUTS = {
    "config": ("solve", False, "c.ini"),
    "shape_path": ("solve", False, "domain.grid"),
    "penalty_reference": ("optimize", False, "domain.grid"),
    "diagnose_domain": ("diagnose", False, "domain.grid"),
    "mode_1": ("diagnose", False, "mode_1.grid"),
    "torsion": ("diagnose", False, "torsion.grid"),
    "spectrum": ("diagnose", False, "spectrum.csv"),
    "xi": ("diagnose", False, "xi.csv"),
    "manifest": ("solve", True, "manifest.json"),
    "artifact": ("solve", True, "spectrum.csv"),
}


@pytest.mark.parametrize("source, fault", [
    *((source, "unreadable") for source in _INPUTS),
    # a directory in place of an artifact is a hash mismatch (exit 1)
    *((source, "directory") for source in _INPUTS if source != "artifact"),
    ("manifest", b"not json"), ("manifest", b"[1]"), ("manifest", b"{}"),
])
def test_every_input_the_cli_cannot_read_exit_2(torsion_run, tmp_path, capsys, monkeypatch,
                                               source, fault):
    # one reader opens every input: a file that cannot be read, a directory
    # in its place or a corrupt manifest exits 2 with one line naming it,
    # and no manifest is written
    run = tmp_path / "run"
    shutil.copytree(torsion_run, run)
    command, check, name = _INPUTS[source]
    path = tmp_path / name if source == "config" else run / name
    sections = {
        "config": _small_sections("solve"),
        "shape_path": _small_sections("solve", "file", shape={"path": str(path)}),
        "penalty_reference": _small_sections(
            "optimize", penalty={"s": 0.02, "reference": str(path)}),
    }.get(source, diagnose_sections(run, probes=8))
    cfg = torsion_run.parent / "solve.ini" if check else write_ini(tmp_path / "c.ini", sections)
    out = run if check else tmp_path / "out"
    if fault == "directory":
        path.unlink()
        path.mkdir()
    elif fault != "unreadable":
        path.write_bytes(fault)
    manifests = {p: p.read_bytes() for p in tmp_path.rglob("manifest.json") if p.is_file()}
    if fault == "unreadable":
        _deny_reading(monkeypatch, path)
    capsys.readouterr()
    code = run_single(command, str(cfg), str(out), None, check)
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and str(path) in err
    assert {p: p.read_bytes() for p in tmp_path.rglob("manifest.json") if p.is_file()} == manifests


@pytest.mark.parametrize("out, stems", [
    ("file", ["c"]),
    ("file/sub", ["c"]),
    ("file", ["a", "b"]),  # each config runs into file/<stem>
], ids=["file", "under_a_file", "several_configs"])
def test_out_that_cannot_be_a_directory_exit_2(tmp_path, capsys, out, stems):
    (tmp_path / "file").write_text("")
    argv = ["solve", "--out", str(tmp_path / out)]
    for stem in stems:
        argv += ["--config", str(write_ini(tmp_path / f"{stem}.ini", _small_sections("solve")))]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(stems)
    assert all(line.startswith("error: cannot write ") for line in err)
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("key, value", [
    ("radii", "0.5 big"),     # not a number
    ("radii", "0.5 nan"),     # not finite
    ("radii", ""),            # no radius
    ("radii", "0.75 0.5"),    # descending
    ("radii", "0.5 0.5"),     # repeated
    ("radii", "0.25 0.5"),    # below 4h = 0.5
    ("probes", "0"),
    ("probes", "-3"),
])
def test_diagnose_bad_radii_or_probes_exit_2(small_run, tmp_path, capsys, key, value):
    sections = diagnose_sections(small_run, probes=8)
    sections["diagnose"][key] = value
    cfg = write_ini(tmp_path / "diag.ini", sections)
    capsys.readouterr()
    assert run_single("diagnose", str(cfg), str(tmp_path / "dout"), None, False) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"[diagnose] {key}" in err


def test_diagnose_explicit_radii(small_run, tmp_path):
    sections = diagnose_sections(small_run, probes=1)
    sections["diagnose"]["radii"] = "0.5 0.75"  # 4h and 6h on the 33x33 grid
    cfg = write_ini(tmp_path / "diag.ini", sections)
    dout = tmp_path / "dout"
    assert run_single("diagnose", str(cfg), str(dout), None, False) == 0
    report = json.loads((dout / "report.json").read_text())
    assert report["weiss"]["radii"] == [0.5, 0.75]
    rows = (dout / "weiss.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[2]) for r in rows] == [0.5, 0.75]  # one probe


# ---- driver -----------------------------------------------------------


def test_main_fans_out_multiple_configs(tmp_path):
    # the configs run in turn, each into <out>/<config stem>, and --check
    # verifies every one of them
    a = write_ini(tmp_path / "a.ini", solve_sections(r=0.9))
    b = write_ini(tmp_path / "b.ini", solve_sections(r=1.1))
    out = tmp_path / "multi"
    argv = ["solve", "--config", str(a), "--config", str(b), "--out", str(out)]
    assert main(argv) == 0
    for stem in ("a", "b"):
        assert (out / stem / "manifest.json").is_file()
    la = json.loads((out / "a" / "manifest.json").read_text())["lambdas"][0]
    lb = json.loads((out / "b" / "manifest.json").read_text())["lambdas"][0]
    assert la > lb  # smaller disk, larger eigenvalue
    assert main([*argv, "--check"]) == 0


def test_main_exit_code_is_the_largest_of_the_runs(tmp_path, capsys):
    # a config error in the first run (exit 2) does not stop the second
    bad = write_ini(tmp_path / "bad.ini", {**solve_sections(), "solve": {"modez": 3}})
    good = write_ini(tmp_path / "good.ini", {**solve_sections(), "grid": {"nx": 33, "ny": 33}})
    out = tmp_path / "multi"
    assert main(["solve", "--config", str(bad), "--config", str(good), "--out", str(out)]) == 2
    assert "modez" in capsys.readouterr().err
    assert (out / "good" / "manifest.json").is_file()
    assert not (out / "bad" / "manifest.json").exists()


def test_main_rejects_jobs(tmp_path, capsys):
    # there is no --jobs option: argparse exits 2 with a usage line before any run
    a = write_ini(tmp_path / "a.ini", solve_sections(r=0.9))
    b = write_ini(tmp_path / "b.ini", solve_sections(r=1.1))
    out = tmp_path / "multi"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(a), "--config", str(b),
              "--out", str(out), "--jobs", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: eigenshape ")
    assert "unrecognized arguments: --jobs 2" in err
    assert not out.exists()


def test_main_rejects_stem_collision(tmp_path):
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    a = write_ini(tmp_path / "x" / "same.ini", solve_sections())
    b = write_ini(tmp_path / "y" / "same.ini", solve_sections())
    code = main(["solve", "--config", str(a), "--config", str(b),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == VERSION_STRING


def test_command_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0


# ---- start-up ---------------------------------------------------------

_STARTUP_PROBE = """
import sys
import eigenshape.cli, eigenshape.optimizer
args = sys.argv[1:]  # (command, config, out) triples, run in turn
codes = [eigenshape.cli.run_single(*args[i:i + 3], None, False) for i in range(0, len(args), 3)]
print(codes, [m for m in ("scipy.ndimage", "scipy.spatial") if m in sys.modules])
"""


def _startup_probe(*runs):
    """The last line of _STARTUP_PROBE over ``runs``, (command, config, out)
    triples, in a fresh interpreter, as every command and the benchmark
    worker start one: the exit codes and the scipy submodules loaded."""
    env = dict(os.environ)
    src = str(pathlib.Path(eigenshape.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, *map(str, sum(runs, ()))],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout.splitlines()[-1]


def test_solve_and_diagnose_load_neither_ndimage_nor_spatial(tmp_path):
    solve_ini = write_ini(tmp_path / "solve.ini", solve_sections())
    (tmp_path / "xi.csv").write_text("k,xi\n1,1.0\n")
    diagnose_ini = write_ini(tmp_path / "diagnose.ini", {"diagnose": {
        "domain": str(tmp_path / "solve" / "domain.grid"),
        "spectrum": str(tmp_path / "solve" / "spectrum.csv"),
        "xi": str(tmp_path / "xi.csv"),
    }})
    assert _startup_probe(("solve", solve_ini, tmp_path / "solve"),
                          ("diagnose", diagnose_ini, tmp_path / "diagnose")) == "[0, 0] []"
    assert (tmp_path / "diagnose" / "report.json").is_file()


def test_flow_commands_load_ndimage_only_for_an_active_penalty(tmp_path):
    # every sweep-p stage after the first anchors a reference, at s = 0
    runs = [(command, write_ini(tmp_path / f"{command}.ini", _small_sections(command)),
             tmp_path / command) for command in ("optimize", "sweep-p")]
    assert _startup_probe(*runs) == "[0, 0] ['scipy.spatial']"
    anchored = write_ini(tmp_path / "anchored.ini", _small_sections("optimize", penalty={
        "s": 0.02, "reference": str(tmp_path / "optimize" / "domain.grid")}))
    assert _startup_probe(("optimize", anchored, tmp_path / "anchored")) == (
        "[0] ['scipy.ndimage', 'scipy.spatial']")
    with open(tmp_path / "anchored" / "manifest.json") as f:
        assert json.load(f)["E"] > 0
