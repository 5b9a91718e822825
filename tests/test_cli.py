"""Command-line contract: configs in, deterministic artifacts out.

Covers artifact layout, manifest hashing with --check, byte-for-byte
determinism of reruns, the p-sweep weight trace, diagnosing saved
artifacts, and multi-config fan-out. Every exit-1 and exit-2 case of a
run is a row of ``_EXITS`` (at the end), checked by ``assert_exit``: its
exit code, its one stderr line and what --out holds.
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
import types
import typing
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


#: the [grid] of the module runs whose tolerances need more than 33x33 nodes
_GRID97 = {"nx": 97, "ny": 97}


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-solve")
    cfg = write_ini(base / "solve.ini", _small_sections("solve", grid=_GRID97, shape={"r": 1.0}))
    out = base / "out"
    assert run_single("solve", str(cfg), str(out), None, False) == 0
    return cfg, out


@pytest.fixture(scope="module")
def opt_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-opt")
    cfg = write_ini(base / "opt.ini", _small_sections(
        "optimize", grid=_GRID97, shape={"r": 1.4}, optimizer={"max_steps": 8, "conv_tol": 1e-5}))
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


@pytest.mark.parametrize("value, written", [("Off", False), ("YES", True), ("0", False)])
def test_solve_torsion_boolean_words(tmp_path, value, written):
    cfg = write_ini(tmp_path / "c.ini", _small_sections("solve", solve={"torsion": value}))
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


#: --check case -> (command, the module run it reads or None, the sections of
#: its config from that fixture's value, the artifact it tampers with); None
#: sections check a copy of the module run's (config, --out) itself
_CHECKED = {
    "solve": ("solve", "solve_run", None, "spectrum.csv"),
    "solve_file": ("solve", "solve_run", lambda run: _small_sections(
        "solve", "file", shape={"path": str(run[1] / "domain.grid")}), "mode_1.grid"),
    "optimize": ("optimize", "opt_run", None, "trace.csv"),
    "optimize_anchored": ("optimize", "opt_run", lambda run: _small_sections(
        "optimize", grid=_GRID97, shape={"r": 1.4}, optimizer={"max_steps": 3},
        penalty={"s": 0.02, "reference": str(run[1] / "domain.grid")}), "domain.grid"),
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
    # --check of a run of every command passes, so a rerun of its config
    # writes the hash of every artifact again (the solve and optimize cases
    # rerun the module runs), and exits 1 naming the one artifact in which a
    # byte was flipped
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


def test_seed_override(tmp_path):
    cfg = write_ini(tmp_path / "c.ini", _small_sections("solve"))
    out = tmp_path / "out"
    assert run_single("solve", str(cfg), str(out), 42, False) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42


def _raise(err):
    def fail(*args, **kwargs):
        raise err
    return fail


def test_arpack_non_convergence_exit_1(tmp_path, capsys, monkeypatch):
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
    cfg = write_ini(tmp_path / "c.ini", _small_sections(
        "solve", grid={"nx": 65, "ny": 65}, shape={"r": 1.0}, solve={"modes": 8}))
    argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]
    err = assert_exit(capsys, monkeypatch, argv, 1, "numerical failure: ARPACK converged ",
                      Out(("domain.grid",), {"converged": False}))
    assert len(raised) == 1
    assert re.match(r"numerical failure: ARPACK converged [0-8] of 9 pairs in 1 restarts "
                    r"\(residuals ", err)
    assert len(err.split("(residuals ")[1].split()) == 8  # the 8 residuals on the one line


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
    cfg = write_ini(tmp_path / "one.ini", _small_sections("optimize", optimizer={"max_steps": 1}))
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


# ---- sweep-p ----------------------------------------------------------


def test_sweep_p_stages_and_weight_trace(tmp_path):
    # s without a reference anchors stage 2 at stage 1's end
    cfg = write_ini(tmp_path / "sweep.ini", _small_sections(
        "sweep-p", optimizer={"max_steps": 3}, sweep={"schedule": "4 8"}, penalty={"s": 0.02}))
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


_HUGE_HEADER = "GRIDDUMP v2 1000000 1000000 0.1 0.0 0.0"


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Diagnose inputs cheap enough to fuzz: a solved 33x33 disk and xi.csv."""
    base = tmp_path_factory.mktemp("cli-small")
    cfg = write_ini(base / "solve.ini", _small_sections("solve", solve={"torsion": "no"}))
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


def _assert_exit_reading_under_1_mib(tmp_path, capsys, monkeypatch, data, cause):
    """solve of a [shape] file of ``data`` (over 4 MiB) exits 2 naming it
    and ``cause``, having allocated less than 1 MiB: the file is not read whole."""
    path = tmp_path / "blob.grid"
    path.write_bytes(data)
    cfg = write_ini(tmp_path / "file.ini", {"shape": {"kind": "file", "path": str(path)}})
    argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert_exit(capsys, monkeypatch, argv, 2, f"error: cannot parse {path}: {cause}", Out())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dump_without_newline_exit_2_reads_a_bounded_header(tmp_path, capsys, monkeypatch):
    # a non-dump file with no newline is rejected after its first 256 bytes
    _assert_exit_reading_under_1_mib(tmp_path, capsys, monkeypatch,
                                     b"GRIDDUMP v2 " + b"7" * (4 << 20),
                                     "not a GRIDDUMP v2 header line: b'GRIDDUMP v2 777")


def test_v1_dump_with_oversized_body_exit_2_reads_a_bounded_body(tmp_path, capsys, monkeypatch):
    # a v1 dump is rejected from its header line, before its body is read
    _assert_exit_reading_under_1_mib(
        tmp_path, capsys, monkeypatch, b"GRIDDUMP v1 8 8 0.5 -2.0 -2.0\n" + b"7" * (4 << 20),
        "not a GRIDDUMP v2 header line: b'GRIDDUMP v1 8 8 0.5 -2.0 -2.0\\n'\n")


def _diagnose_small(run, tmp_path, capsys):
    """Diagnose ``run`` with 8 probes; the exit code, stderr and report."""
    tmp_path.mkdir(exist_ok=True)
    cfg = write_ini(tmp_path / "diag.ini", diagnose_sections(run, probes=8))
    dout = tmp_path / "dout"
    capsys.readouterr()
    code = run_single("diagnose", str(cfg), str(dout), None, False)
    report = dout / "report.json"
    return code, capsys.readouterr().err, report.read_bytes() if report.exists() else None


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


@pytest.fixture(scope="module")
def torsion_run(tmp_path_factory):
    """A solved 33x33 off-centre disk with its torsion.grid, and xi.csv."""
    base = tmp_path_factory.mktemp("cli-torsion")
    cfg = write_ini(base / "solve.ini", _small_sections("solve", shape={"cx": 0.1}))
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
    a = write_ini(tmp_path / "a.ini", _small_sections("solve", shape={"r": 0.9}))
    b = write_ini(tmp_path / "b.ini", _small_sections("solve", shape={"r": 1.1}))
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
    bad = write_ini(tmp_path / "bad.ini", _small_sections("solve", solve={"modez": 3}))
    good = write_ini(tmp_path / "good.ini", _small_sections("solve"))
    out = tmp_path / "multi"
    assert main(["solve", "--config", str(bad), "--config", str(good), "--out", str(out)]) == 2
    assert "modez" in capsys.readouterr().err
    assert (out / "good" / "manifest.json").is_file()
    assert not (out / "bad" / "manifest.json").exists()


def test_main_rejects_jobs(tmp_path, capsys):
    # there is no --jobs option: argparse exits 2 with a usage line before any run
    a = write_ini(tmp_path / "a.ini", _small_sections("solve", shape={"r": 0.9}))
    b = write_ini(tmp_path / "b.ini", _small_sections("solve", shape={"r": 1.1}))
    out = tmp_path / "multi"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(a), "--config", str(b),
              "--out", str(out), "--jobs", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: eigenshape ")
    assert "unrecognized arguments: --jobs 2" in err
    assert not out.exists()


def test_main_rejects_stem_collision(tmp_path, capsys, monkeypatch):
    argv = ["solve", "--out", str(tmp_path / "out")]
    for sub in ("x", "y"):
        (tmp_path / sub).mkdir()
        argv += ["--config", str(write_ini(tmp_path / sub / "same.ini", _small_sections("solve")))]
    assert_exit(capsys, monkeypatch, argv, 2,
                "error: config stems collide; use distinct file names\n", None)


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
    solve_ini = write_ini(tmp_path / "solve.ini", _small_sections("solve"))
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


# ---- exit 1 and exit 2: the contract, one row per case ------------------


class Out(typing.NamedTuple):
    """``--out`` after a failed run: exactly ``files``, and no manifest while
    ``last`` is None; else also a manifest that lists them and whose last
    stage (the manifest itself, but under sweep-p) has the items of ``last``."""
    files: tuple = ()
    last: dict | None = None


#: the --out state of a --check run: every byte it held before
UNCHANGED = "unchanged"


def _bytes_of(out: pathlib.Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}


def assert_exit(capsys, monkeypatch, argv, code, prefix, out_state):
    """``main(argv)`` keeps the exit contract: it exits ``code`` with exactly
    one stderr line, which starts with ``prefix`` (a prefix that ends in a
    newline is the whole line), and leaves ``--out`` in ``out_state``: None
    when it was never made, an :class:`Out`, or the bytes of every file in
    it. The run raises no warning, and its patches end with it, so the
    checks read the files as they are. Returns the stderr line."""
    out = pathlib.Path(argv[argv.index("--out") + 1])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main(argv)
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert got == code, err
    assert err.count("\n") == 1 and err.endswith("\n") and err.startswith(prefix), err
    if out_state is None:
        assert not out.exists()
    elif isinstance(out_state, dict):
        assert _bytes_of(out) == out_state
    elif out_state.last is None:
        assert sorted(p.name for p in out.iterdir()) == sorted(out_state.files)
    else:
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == _artifact_hashes(out)
        assert sorted(manifest["artifacts"]) == sorted(out_state.files)
        last = manifest.get("stages", [manifest])[-1]
        assert {key: last.get(key) for key in out_state.last} == out_state.last
    return err


class Exit(typing.NamedTuple):
    """One case: its id, the command, the stderr prefix, the config, the exit
    code and the --out state; ``{tmp}``, ``{run}``, ``{cfg}`` and ``{out}`` in
    the prefix and in paths are the case's. Set-up, in order: ``run`` names
    the module fixture whose --out is copied to {run}; ``config(c)`` gives
    sections or bytes to write to {cfg}, or the path of a config; each of
    ``damage`` edits inputs on disk; each of ``patch`` patches the program
    for the run alone. ``args`` follow --out."""
    id: str | None
    command: str
    prefix: str
    config: typing.Callable
    code: int = 2
    out: object = Out()
    run: str | None = None
    damage: tuple = ()
    patch: tuple = ()
    args: tuple = ()


def _run_exit(row: Exit, request, tmp_path, capsys, monkeypatch) -> None:
    c = types.SimpleNamespace(tmp=tmp_path, run=tmp_path / "run", cfg=tmp_path / "c.ini",
                              out=tmp_path / "out", mp=monkeypatch)
    if row.run is not None:
        fixture = request.getfixturevalue(row.run)  # solve_run and opt_run: (config, --out)
        c.fixture = fixture[1] if isinstance(fixture, tuple) else fixture
        shutil.copytree(c.fixture, c.run)
    if "--check" in row.args:
        c.out = c.run
    config = row.config(c)
    if isinstance(config, pathlib.Path):
        c.cfg = config
    elif isinstance(config, bytes):
        c.cfg.write_bytes(config)
    else:
        write_ini(c.cfg, config)
    for damage in row.damage:
        damage(c)
    state = _bytes_of(c.out) if row.out is UNCHANGED else row.out
    for patch in row.patch:
        patch(c)
    argv = [row.command, "--config", str(c.cfg), "--out", str(c.out), *row.args]
    assert_exit(capsys, monkeypatch, argv, row.code, _fill(row.prefix, c), state)


def _fill(text: str, c) -> str:
    return text.format(**vars(c))


def _small(command, kind="disk", family="single", **edits):
    """Config: ``_small_sections`` (diagnose: the ``diagnose_sections`` of
    {run}) with ``edits``, whose text values may name the case's paths."""
    def config(c):
        sections = (diagnose_sections(c.run, probes=8) if command == "diagnose"
                    else _small_sections(command, kind, family))
        for section, kv in edits.items():
            sections.setdefault(section, {}).update(kv)
        return {section: {k: _fill(v, c) if isinstance(v, str) else v for k, v in kv.items()}
                for section, kv in sections.items()}
    return config


def _rerun(c) -> pathlib.Path:
    """Config: the fixture run's own, which --check reruns."""
    return c.fixture.parent / "solve.ini"


def _at(path: str, edit):
    """Damage: ``edit`` of the file at ``path``."""
    return lambda c: edit(pathlib.Path(_fill(path, c)))


def _rewrite(path: str, edit):
    """Damage: the file at ``path`` rewritten as ``edit`` of its bytes."""
    return _at(path, lambda p: p.write_bytes(edit(p.read_bytes())))


def _into_directory(path: pathlib.Path) -> None:
    path.unlink()
    path.mkdir()


def _header(line: bytes):
    """Edit: a dump with ``line`` in place of its header line."""
    return lambda data: line + b"\n" + data.partition(b"\n")[2]


def _append(line: bytes):
    """Edit: a file with one more line, ``line``."""
    return lambda data: data + line + b"\n"


def _with_nan(data: bytes) -> bytes:
    head, _, body = data.partition(b"\n")
    values = np.frombuffer(body, dtype="<f8").copy()
    values[40] = np.nan
    return head + b"\n" + values.tobytes()


def _cell(token: str):
    """Edit: a CSV with ``token`` as the second cell of its first row."""
    def edit(data):
        header, row, *rest = data.decode().splitlines()
        cells = row.split(",")
        cells[1] = token
        return "\n".join([header, ",".join(cells), *rest]).encode() + b"\n"
    return edit


def _torsion_of_other_disk(path):
    grid, _ = read_field_dump(path)
    write_field_dump(grid, solve_torsion(disk(grid, (-0.1, 0.0), 1.0)), path)


def _torsion_off_omega(path):
    grid, v = read_field_dump(path)
    v[0, 0] = 1e-3  # the box corner lies outside the disk
    write_field_dump(grid, v, path)


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


def _unreadable(path: str):
    """Patch: the file at ``path`` cannot be opened."""
    return lambda c: _deny_reading(c.mp, _fill(path, c))


def _patch(target: str, err: Exception):
    """Patch: ``target`` raises ``err``."""
    return lambda c: c.mp.setattr(target, _raise(err))


def _step_failing_at_p16(c) -> None:
    """Patch: the stage p = 16 aborts in its first flow step, after its
    initial spectrum."""
    import eigenshape.optimizer as optimizer
    real_step = optimizer.step

    def step(state, dt, bar):
        if state.cfg.p == 16:
            raise SpectralError("forced failure")
        return real_step(state, dt, bar)

    c.mp.setattr(optimizer, "step", step)


_FORCED = SpectralError("forced failure")
_RAN = AssertionError("a solve ran")
_NO_SOLVE = (_patch("eigenshape.cli.factor_laplacian", _RAN),
             _patch("eigenshape.optimizer.solve_spectrum", _RAN))
#: the files of a flow's final state; the last stage of a flow that aborted,
#: and of a run that a SpectralError ended
_FINAL = ("boundary.csv", "domain.grid", "mode_1.grid", "mode_2.grid", "spectrum.csv", "xi.csv")
_ABORTED = {"converged": False, "stop_reason": "aborted"}
_SPECTRAL = {"converged": False, "error": "forced failure"}
_P16 = "aborted in the stage p = 16: spectrum failed at step 1: forced failure\n"
_OPTIMIZE_P16 = Exit("mid_run", "optimize", f"optimize {_P16}",
                     _small("optimize", regularization={"p": 16}), 1,
                     Out((*_FINAL, "trace.csv"), _ABORTED), patch=(_step_failing_at_p16,))
_SWEEP_P16 = Exit("last_stage_mid_run", "sweep-p", f"sweep-p {_P16}", _small("sweep-p"), 1,
                  Out((*_FINAL, "trace_p8.csv", "trace_p16.csv", "xi_trace.csv"), _ABORTED),
                  patch=(_step_failing_at_p16,))
_PAYLOAD = "grid dump payload has {} bytes, expected {} for {} x {} values\n"
#: edit of a 33x33 dump -> (the edit, the end of the line naming domain.grid)
_V2_EDITS = {
    "truncated_payload": (lambda data: data[:-8], _PAYLOAD.format(8704, 8712, 33, 33)),
    "extra_byte": (lambda data: data + b"\0", _PAYLOAD.format(8713, 8712, 33, 33)),
    "nan": (_with_nan, "phi must be finite at every node\n"),
    "header_without_sizes": (_header(b"GRIDDUMP v2"),
                             "not a GRIDDUMP v2 header line: b'GRIDDUMP v2\\n'\n"),
    "unknown_version": (lambda data: data.replace(b" v2 ", b" v3 ", 1),
                        "not a GRIDDUMP v2 header line: b'GRIDDUMP v3 33 33 0.125 -2.0 -2.0\\n'\n"),
    "oversized_header": (_header(_HUGE_HEADER.encode()),
                         _PAYLOAD.format(8712, 8000000000000, 1000000, 1000000)),
    "header_runs_into_payload": (lambda data: data.replace(b"\n", b"", 1), ""),
}
#: input -> (command, its path, the config that names it; None: --check
#: of a copy of torsion_run)
_INPUTS = {
    "config": ("solve", "{cfg}", _small("solve")),
    "shape_path": ("solve", "{run}/domain.grid",
                   _small("solve", "file", shape={"path": "{run}/domain.grid"})),
    "penalty_reference": ("optimize", "{run}/domain.grid", _small(
        "optimize", penalty={"s": 0.02, "reference": "{run}/domain.grid"})),
    **{source: ("diagnose", f"{{run}}/{name}", _small("diagnose")) for source, name in (
        ("diagnose_domain", "domain.grid"), ("mode_1", "mode_1.grid"),
        ("torsion", "torsion.grid"), ("spectrum", "spectrum.csv"), ("xi", "xi.csv"))},
    "manifest": ("solve", "{run}/manifest.json", None),
    "artifact": ("solve", "{run}/spectrum.csv", None),
}


def _input_row(source, fault, prefix, **setup):
    """The case of an input with a fault: a config that cannot be read
    leaves no --out, and --check leaves it as it was."""
    command, path, config = _INPUTS[source]
    return Exit(f"{source}-{fault}", command, prefix.format(path=path), config or _rerun,
                out=None if source == "config" else Out() if config else UNCHANGED,
                run="torsion_run", args=() if config else ("--check",), **setup)


#: test name -> its cases, each listed by the suite under the name and its id
_EXITS = {
    # ---- config files
    "test_unknown_config_section_or_key_exit_2": [
        Exit(f"{command}-{section}-{key}", command,
             "error: {cfg}: [DEFAULT] is not read, yet it sets seed\n" if section == "DEFAULT"
             else f"error: [{section}] {key} is not read by {command}\n",
             _small(command, **{section: {key: 3}}), out=None if section == "DEFAULT" else Out(),
             run="small_run" if command == "diagnose" else None)
        for command in ("solve", "optimize", "sweep-p", "diagnose")
        for section, key in (("solve", "modez"), ("solv", "modes"), ("DEFAULT", "seed"),
                             ("diagnose", "probe"))],
    # a key that the command, the shape kind or the family does not read
    "test_unread_key_exit_2": [
        Exit(id, command, f"error: {named} is not read by {command}\n",
             _small(command, kind, **edits), run="small_run")
        for id, command, kind, named, edits in (
            ("square_r", "solve", "square", "[shape] r", {"shape": {"r": 0.5}}),
            ("rectangle_cx", "solve", "rectangle", "[shape] cx", {"shape": {"cx": 5}}),
            ("two_blobs_cx", "solve", "two_blobs", "[shape] cx", {"shape": {"cx": 0.7}}),
            ("file_grid", "solve", "file", "[grid] nx",
             {"grid": {"nx": 33}, "shape": {"path": "{run}/domain.grid"}}),
            ("upper_case_R", "solve", "disk", "[shape] R", {"shape": {"R": 1.5}}),
            ("optimizer_under_solve", "solve", "disk", "[optimizer] dt0",
             {"optimizer": {"dt0": 9}}),
            ("keyless_section", "solve", "disk", "[solv]", {"solv": {}}),
            ("single_beta", "optimize", "disk", "[objective] beta", {"objective": {"beta": 2.0}}),
            ("sweep_under_optimize", "optimize", "disk", "[sweep] schedule",
             {"sweep": {"schedule": "8 16"}}))],
    "test_unparsable_config_exit_2": [Exit(  # configparser's message spans three lines
        None, "solve", "error: cannot parse {cfg}: File contains no section headers. "
        "file: '{cfg}', line: 1 '[run\\n'\n", lambda c: b"[run\nseed = 3\n", out=None)],
    "test_config_that_is_not_utf8_exit_2": [Exit(
        None, "solve", "error: {cfg} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
        "in position 14: invalid start byte\n", lambda c: b"[run]\nseed = 3\xff\xfe\n", out=None)],
    "test_missing_config_exit_code": [Exit(
        None, "solve", "error: input not found: {tmp}/no.ini\n", lambda c: c.tmp / "no.ini",
        out=None)],
    "test_config_without_shape_kind_exit_2": [Exit(
        None, "solve", "error: missing [shape] kind\n",
        lambda c: {**_small_sections("solve"), "shape": {"r": 1.2}})],
    # the pair is mirrored about x = 0, which the node lattice must straddle
    "test_two_blobs_on_a_grid_not_symmetric_about_x_0_exit_2": [
        Exit(f"box{i}", "solve", f"error: [grid] x0 + x1 = {x0 + x1!r}: two_blobs mirrors about "
             "x = 0\n", _small("solve", "two_blobs", grid={"x0": x0, "y0": y0, "x1": x1,
                                                           "y1": y1, "nx": 121, "ny": 121}))
        for i, (x0, y0, x1, y1) in enumerate([(-1.9, -2.4, 2.9, 2.4), (0.0, -2.0, 4.0, 2.0)])],
    "test_objective_list_not_numeric_exit_2": [
        Exit(f"objective{i}", "optimize", f"error: bad value for [objective] {key}: {value!r}\n",
             _small("optimize", family=family, objective={key: value}))
        for i, (family, key, value) in enumerate([
            ("linear", "coeffs", "1.0 x"),
            ("linear", "coeffs", "1.0,0.5"),
            ("softmin", "subset", "1 two"),
            ("softmin", "subset", "1.5 2")])],
    "test_unrecognised_boolean_exit_2": [
        Exit(f"solve-torsion-{value}", "solve", f"error: bad value for [solve] torsion: "
             f"{value!r} is not one of 1/0, true/false, yes/no, on/off\n",
             _small("solve", solve={"torsion": value}))
        for value in ("ture", "", "maybe")],
    # int() and float() would read each as 33 or 1.0
    "test_config_value_token_rule_exit_2": [
        Exit(id, "solve", f"error: bad value for [{section}] {key}: {token!r}\n",
             _small("solve", **{section: {key: token}}))
        for id, section, key, token in (("underscore_int", "grid", "nx", "3_3"),
                                        ("non_ascii_int", "grid", "ny", "٣٣"),
                                        ("underscore_float", "shape", "r", "1_0e-1"))],
    # a seed is a non-negative integer, whether the config or --seed sets it;
    # a negative one is rejected before any command runs
    "test_negative_seed_exit_2_naming_its_source": [
        Exit(f"{command}-{source}", command, f"error: {name} = {seed} is negative: a seed is a "
             "non-negative integer\n",
             _small(command, "blob", run={"seed": seed if source == "config" else 3}),
             out=None, run="small_run" if command == "diagnose" else None,
             args=("--seed", str(seed)) if source == "flag" else ())
        for command in ("solve", "optimize", "sweep-p", "diagnose")
        for source, name, seed in (("config", "[run] seed", -1), ("flag", "--seed", -2))],
    # ---- solve
    "test_solve_modes_zero_rejected": [Exit(
        None, "solve", "error: [solve] modes must be >= 1, got 0\n",
        _small("solve", solve={"modes": 0}))],
    "test_grid_below_8x8_exit_2": [Exit(
        None, "solve", "error: grid must be at least 8x8, got 1x33\n",
        _small("solve", grid={"nx": 1}))],
    "test_shape_file_missing": [Exit(
        None, "solve", "error: input not found: {tmp}/void.grid\n",
        _small("solve", "file", shape={"path": "{tmp}/void.grid"}))],
    # domain.grid is written before the solve, whatever its outcome; an
    # unusable domain is a config error (exit 2, no manifest), as in optimize
    "test_domain_grid_written_on_every_solve_exit_path": [
        *(Exit(id, "solve", f"numerical failure: {cause}\n", _small("solve"), 1,
               Out(("domain.grid",), {"converged": False, "error": cause}),
               patch=(_patch(f"eigenshape.cli.{target}", SpectralError(cause)),))
          for id, target, cause in (("eigensolver_failure", "solve_spectrum", "no convergence"),
                                    ("torsion_failure", "solve_torsion",
                                     "torsion residual too large"))),
        Exit("config_error", "solve", "error: unusable domain\n", _small("solve"),
             out=Out(("domain.grid",)),
             patch=(_patch("eigenshape.cli.factor_laplacian", ConfigError("unusable domain")),)),
        Exit("empty_shape", "solve", "error: domain has no active nodes\n",  # no node inside
             _small("solve", shape={"cx": 10.0}), out=Out(("domain.grid",))),
        Exit("too_few_nodes", "solve", "error: only 9 active nodes for M=8 eigenpairs "
             "(need >= M+5)\n", _small("solve", shape={"r": 0.2}, solve={"modes": 8}),
             out=Out(("domain.grid",)))],
    "test_empty_initial_domain_exit_2_with_one_message": [
        Exit(command, command, "error: domain has no active nodes\n",
             _small(command, shape={"cx": 10.0}),
             out=Out(("domain.grid",) if command == "solve" else ()))
        for command in ("solve", "optimize", "sweep-p")],
    "test_non_finite_shape_value_exit_2": [
        Exit(f"{command}-{id}", command, f"error: bad [shape] {shape['kind']}: {cause}\n",
             _small(command, shape["kind"], shape=shape))
        for command in ("solve", "optimize", "sweep-p")
        for id, shape, cause in (
            ("disk_r_nan", {"kind": "disk", "r": "nan"}, "phi must be finite at every node"),
            ("disk_cx_inf", {"kind": "disk", "cx": "inf"}, "phi must be finite at every node"),
            ("blob_amp_inf", {"kind": "blob", "amp": "inf"},
             "blob r0 and amp must be finite, got r0=0.9, amp=inf"))],
    # ---- optimize and sweep-p
    "test_sweep_p_bad_schedule": [Exit(
        None, "sweep-p", "error: [sweep] schedule: p schedule must be non-empty and strictly "
        "ascending, got [8.0, 4.0]\n", _small("sweep-p", sweep={"schedule": "8 4"}))],
    # both stages would write trace_p32.csv and label their xi rows "32"
    "test_sweep_p_colliding_stage_labels_exit_2": [Exit(
        None, "sweep-p", "error: [sweep] schedule [32.0, 32.000001] gives stages the same file "
        "label: ['32', '32']\n", _small("sweep-p", sweep={"schedule": "32 32.000001"}))],
    "test_sweep_p_non_finite_stage_exit_2_before_any_stage": [Exit(
        None, "sweep-p", "error: [sweep] schedule: p must be finite and >= 2, got nan\n",
        _small("sweep-p", sweep={"schedule": "8 nan"}),
        patch=(_patch("eigenshape.optimizer.optimize", AssertionError("a stage ran")),))],
    "test_flow_setting_that_takes_no_effect_exit_2_before_any_solve": [
        Exit(id, command, prefix, _small(command, **edits),
             damage=(lambda c: _write_references(c.tmp),), patch=_NO_SOLVE)
        for id, command, edits, prefix in (
            # every stage of a sweep takes its p from [sweep] schedule
            ("sweep_p_regularization_p", "sweep-p", {"regularization": {"p": 32}},
             "error: [regularization] p is not read by sweep-p\n"),
            # at s = 0 a reference anchors nothing, whatever its grid
            ("reference_at_s_0", "optimize", {"penalty": {"reference": "{tmp}/ref_17x17.grid"}},
             "error: [penalty] reference is not read by optimize\n"),
            # at s > 0 it must lie on the [shape] grid
            *((f"{command.replace('-', '_')}_reference_off_grid", command,
               {"penalty": {"s": 0.02, "reference": "{tmp}/ref_17x17.grid"}},
               "error: [penalty] reference {tmp}/ref_17x17.grid is not on the [shape] grid\n")
              for command in ("optimize", "sweep-p")),
            # and without one, s anchors nothing under optimize (sweep-p's
            # later stages anchor the previous minimizer)
            ("optimize_s_without_reference", "optimize", {"penalty": {"s": 0.02}},
             "error: [penalty] s = 0.02 anchors nothing under optimize without a [penalty] "
             "reference\n"))],
    "test_unusable_solver_value_exit_2_before_any_solve": [
        Exit(f"{section}-{key}-{value}-{command}", command,
             f"error: penalty strength s must be finite and >= 0, got {float(value)!r}\n"
             if section == "penalty" else f"error: [{section}] {key} is not read by {command}\n",
             _small(command, "blob" if key == "mirror" else "disk", "linear",
                    **{section: {key: value}}), patch=_NO_SOLVE)
        for section, key, value, command in (
            ("penalty", "s", "-1", "optimize"),
            ("penalty", "s", "nan", "optimize"),
            ("penalty", "s", "inf", "sweep-p"),
            # a retired key (its value is a constant of the program) is not
            # read at any value: not at one its old check rejected ...
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
            ("run", "name", "every-key", "solve"))],            # the manifest names it by --out
    "test_sweep_p_aborted_stage_exit_1_with_one_line": [
        Exit("first_stage_initial_spectrum", "sweep-p", "sweep-p aborted in the stage p = 8: "
             "initial spectrum failed: forced failure\n", _small("sweep-p"), 1,
             Out(("trace_p8.csv", "xi_trace.csv"), _ABORTED),
             patch=(_patch("eigenshape.optimizer.solve_spectrum", _FORCED),)),
        _SWEEP_P16],
    "test_optimize_aborted_exit_1_with_one_line": [
        Exit("initial_spectrum", "optimize", "optimize aborted in the stage p = 32: initial "
             "spectrum failed: forced failure\n", _small("optimize"), 1,
             Out(("trace.csv",), _ABORTED),
             patch=(_patch("eigenshape.optimizer.solve_spectrum", _FORCED),)),
        _OPTIMIZE_P16],
    # a numerical failure ends any command with exit 1, one stderr line and a
    # manifest that lists exactly the files the command wrote before it failed
    "test_every_exit_1_path_leaves_one_line_and_its_manifest": [
        *(Exit(f"solve_{target}", "solve", "numerical failure: forced failure\n",
               _small("solve"), 1, Out(("domain.grid",), _SPECTRAL),
               patch=(_patch(f"eigenshape.cli.solve_{target}", _FORCED),))
          for target in ("spectrum", "torsion")),
        Exit("diagnose_torsion", "diagnose", "numerical failure: forced failure\n",
             _small("diagnose"), 1, Out((), _SPECTRAL), run="torsion_run",
             damage=(_at("{run}/torsion.grid", pathlib.Path.unlink),),  # so diagnose solves it
             patch=(_patch("eigenshape.cli.solve_torsion", _FORCED),)),
        _OPTIMIZE_P16._replace(id="optimize_abort"),
        _SWEEP_P16._replace(id="sweep_p_abort")],
    # ---- inputs and outputs
    # a --check whose rerun fails exits with the rerun's code and its one line
    "test_check_returns_the_exit_code_of_a_failed_rerun": [Exit(
        None, "solve", "numerical failure: forced failure\n", _rerun, 1, UNCHANGED,
        run="solve_run", patch=(_patch("eigenshape.cli.solve_spectrum", _FORCED),),
        args=("--check",))],
    "test_check_without_manifest": [Exit(
        None, "solve", "error: input not found: {run}/manifest.json\n", _small("solve"),
        out=None, args=("--check",))],
    # one reader opens every input: a file that cannot be read, a directory
    # in its place or a corrupt manifest exits 2 with one line naming it,
    # and no manifest is written
    "test_every_input_the_cli_cannot_read_exit_2": [
        *(_input_row(source, "unreadable",
                     f"error: cannot read {{path}}: {os.strerror(errno.EACCES)}\n",
                     patch=(_unreadable(path),))
          for source, (_, path, _) in _INPUTS.items()),
        # a directory in place of an artifact is a hash mismatch (exit 1)
        *(_input_row(source, "directory", "error: input not found: {path}\n",
                     damage=(_at(path, _into_directory),))
          for source, (_, path, _) in _INPUTS.items() if source != "artifact"),
        *(_input_row("manifest", data.decode(), prefix,
                     damage=(_rewrite("{run}/manifest.json", lambda _, data=data: data),))
          for data, prefix in ((b"not json", "error: cannot parse {path}: Expecting value: "),
                               (b"[1]", "error: cannot check: {path} has no artifacts object\n"),
                               (b"{}", "error: cannot check: {path} has no artifacts object\n")))],
    # a full disk raises ENOSPC with no file name: the run exits 2 with one
    # line naming --out, and writes no manifest
    "test_output_that_cannot_be_written_exit_2": [
        Exit(id, command, f"error: cannot write {{out}}: {os.strerror(errno.ENOSPC)}\n",
             _rerun if args else _small(command), out=out, run="torsion_run", args=args,
             patch=(_patch(writer, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))),))
        for id, command, writer, out, args in (
            ("solve", "solve", "eigenshape.cli.write_spectrum_csv",
             Out(("boundary.csv", "domain.grid")), ()),
            ("solve_manifest", "solve", "eigenshape.cli.write_manifest",
             Out(("boundary.csv", "domain.grid", "mode_1.grid", "mode_2.grid", "spectrum.csv",
                  "torsion.grid")), ()),
            ("optimize", "optimize", "eigenshape.domain.write_field_dump", Out(("trace.csv",)), ()),
            ("sweep-p", "sweep-p", "eigenshape.cli.write_trace_csv", Out(), ()),
            ("diagnose", "diagnose", "eigenshape.cli.write_weiss_csv", Out(), ()),
            ("solve_check", "solve", "tempfile.TemporaryDirectory", UNCHANGED, ("--check",)))],
    "test_v1_dump_exit_2_at_every_input_site": [
        Exit(site, command, f"error: cannot parse {{run}}/{name}: not a GRIDDUMP v2 header line: "
             "b'GRIDDUMP v1 33 33 0.125 -2.0 -2.0\\n'\n", config, run="torsion_run",
             damage=(_at(f"{{run}}/{name}", lambda p: _write_v1(p, *read_field_dump(p))),))
        for site, command, name, config in (
            ("shape", "solve", "domain.grid",
             _small("solve", "file", shape={"path": "{run}/domain.grid"})),
            ("reference", "optimize", "domain.grid",
             _small("optimize", penalty={"s": 0.02, "reference": "{run}/domain.grid"})),
            *((name, "diagnose", name, _small("diagnose"))
              for name in ("domain.grid", "mode_1.grid", "torsion.grid")))],
    # ---- diagnose
    # diagnose reads no [objective]: any such section, a valid one, a bad one
    # or an empty one, exits 2 with one line naming it, before the inputs are
    # read or any probe runs
    "test_diagnose_bad_objective_exit_2_before_any_probe": [
        Exit(id, "diagnose", f"error: [objective] {named}is not read by diagnose\n",
             _small("diagnose", objective=objective), run="opt_run",
             patch=tuple(_patch(f"eigenshape.cli.{target}", AssertionError(target))
                         for target in ("_load_diagnose_inputs", "el_residual", "weiss_profile",
                                        "classify_boundary", "torsion_probe")))
        for id, objective, named in (
            ("valid", {"family": "single", "n": 1, "index": 1}, "family "),
            ("bad_family", {"family": "nope"}, "family "),
            ("empty", {}, ""))],
    "test_diagnose_missing_inputs": [Exit(
        None, "diagnose", "error: input not found: {tmp}/a.grid\n", _small("diagnose", diagnose={
            "domain": "{tmp}/a.grid", "spectrum": "{tmp}/b.csv", "xi": "{tmp}/c.csv"}))],
    "test_diagnose_grid_mismatch": [Exit(
        None, "diagnose", "error: grid header of {run}/mode_1.grid does not match "
        "{tmp}/ref_17x17.grid\n", _small("diagnose", diagnose={"domain": "{tmp}/ref_17x17.grid"}),
        run="opt_run", damage=(lambda c: _write_references(c.tmp),))],
    "test_diagnose_bad_radii_or_probes_exit_2": [
        Exit(f"{key}-{value}", "diagnose", f"error: {cause}\n",
             _small("diagnose", diagnose={key: value}), run="small_run")
        for key, value, cause in (
            ("radii", "0.5 big", "bad value for [diagnose] radii: '0.5 big'"),
            ("radii", "0.5 nan", "[diagnose] radii must be one or more finite numbers, "
                                 "got (0.5, nan)"),
            ("radii", "", "[diagnose] radii must be one or more finite numbers, got ()"),
            ("radii", "0.75 0.5", "[diagnose] radii must be strictly ascending, got (0.75, 0.5)"),
            ("radii", "0.5 0.5", "[diagnose] radii must be strictly ascending, got (0.5, 0.5)"),
            ("radii", "0.25 0.5", "[diagnose] radii must be at least 4h = 0.5, got 0.25"),
            ("probes", "0", "[diagnose] probes must be >= 1, got 0"),
            ("probes", "-3", "[diagnose] probes must be >= 1, got -3"))],
    "test_diagnose_bad_row": [
        Exit(f"{name}-{row}", "diagnose", f"error: {{run}}/{name}:{k + 1}: expected k = {k} and "
             f"{n} finite numbers, got {row!r}\n", _small("diagnose"), run="opt_run",
             damage=(_rewrite(f"{{run}}/{name}", _append(row.encode())),))
        for name, k, n, row in (
            ("spectrum.csv", 3, 2, "3,1.0"),          # truncated
            ("spectrum.csv", 3, 2, "3,1.0,0.0,7.0"),  # extra field
            ("xi.csv", 2, 1, "2,abc"),                # not a number
            ("xi.csv", 2, 1, ""),                     # blank
            ("spectrum.csv", 3, 2, "2,1.0,0.0"),      # k repeated
            ("xi.csv", 2, 1, "5,1.0"),                # k skips ahead
            ("xi.csv", 2, 1, "1.5,1.0"))],            # k not a whole number
    "test_diagnose_nan": [
        Exit(name, "diagnose", prefix, _small("diagnose"), run="opt_run",
             damage=(_rewrite(f"{{run}}/{name}", edit),))
        for name, edit, prefix in (
            ("spectrum.csv", _cell("nan"),
             "error: {run}/spectrum.csv:2: expected k = 1 and 2 finite numbers, got '1,nan,"),
            ("xi.csv", _cell("nan"),
             "error: {run}/xi.csv:2: expected k = 1 and 1 finite numbers, got '1,nan'\n"),
            ("domain.grid", _with_nan,
             "error: cannot parse {run}/domain.grid: phi must be finite at every node\n"))],
    "test_diagnose_truncated_grid": [
        Exit(id, "diagnose", f"error: cannot parse {{run}}/domain.grid: {cause}",
             _small("diagnose"), run="opt_run", damage=(_rewrite("{run}/domain.grid", edit),))
        for id, edit, cause in (
            ("header_without_sizes", _header(b"GRIDDUMP v2"),
             "not a GRIDDUMP v2 header line: b'GRIDDUMP v2\\n'\n"),
            ("last_row_missing", lambda data: data[:-8 * int(data.split()[2])],
             _PAYLOAD.format(74496, 75272, 97, 97)))],
    # sizes that no payload backs must not be allocated
    "test_diagnose_oversized_header": [Exit(
        None, "diagnose", "error: cannot parse {run}/domain.grid: "
        + _PAYLOAD.format(75272, 8000000000000, 1000000, 1000000), _small("diagnose"),
        run="opt_run", damage=(_rewrite("{run}/domain.grid", _header(_HUGE_HEADER.encode())),))],
    "test_diagnose_v2_dump_exit_2": [
        Exit(f"{name}-{id}", "diagnose", f"error: {{run}}/{name} has non-finite values\n"
             if (name, id) == ("mode_1.grid", "nan")  # checked after the dump is read
             else f"error: cannot parse {{run}}/{name}: {end}", _small("diagnose"),
             run="small_run", damage=(_rewrite(f"{{run}}/{name}", edit),))
        for name in ("domain.grid", "mode_1.grid") for id, (edit, end) in _V2_EDITS.items()],
    # int() and float() would read either header as a 33x33 grid
    "test_dump_header_token_rule_exit_2": [
        Exit(id, "diagnose", f"error: cannot parse {{run}}/domain.grid: {shown} is not ASCII "
             "without '_'\n", _small("diagnose"), run="small_run",
             damage=(_rewrite("{run}/domain.grid", _header(header.encode())),))
        for id, header, shown in (  # the header line quoted as bytes
            ("underscore", "GRIDDUMP v2 3_3 33 0.125 -2.0 -2.0",
             r"b'GRIDDUMP v2 3_3 33 0.125 -2.0 -2.0\n'"),
            ("non_ascii_digit", "GRIDDUMP v2 33 ٣3 0.125 -2.0 -2.0",
             r"b'GRIDDUMP v2 33 \xd9\xa33 0.125 -2.0 -2.0\n'"))],
    "test_diagnose_xi_without_rows_exit_2": [Exit(
        None, "diagnose", "error: {run}/xi.csv lists no weights\n", _small("diagnose"),
        run="small_run", damage=(_rewrite("{run}/xi.csv", lambda data: b"k,xi\n"),))],
    "test_diagnose_inputs_that_do_not_match_exit_2": [
        Exit(id, "diagnose", f"error: {{run}}/{name} {cause}\n", _small("diagnose"),
             run="small_run", damage=(_rewrite(f"{{run}}/{name}", lambda _, text=text: text),))
        for id, name, text, cause in (
            ("spectrum_without_rows", "spectrum.csv", b"k,lambda,resid\n", "lists no eigenpairs"),
            ("xi_beyond_the_modes", "xi.csv", b"k,xi\n1,1.0\n2,0.5\n3,0.25\n",
             "lists 3 weights but only 2 modes exist"))],
    # only plain decimal floats: no digit separators, other digits or comments
    "test_diagnose_csv_cell_exit_2": [
        Exit(f"{name}-{id}", "diagnose", f"error: {{run}}/{name}:2: expected k = 1 and {n} "
             f"finite numbers, got '1,{token}", _small("diagnose"), run="small_run",
             damage=(_rewrite(f"{{run}}/{name}", _cell(token)),))
        for name, n in (("spectrum.csv", 2), ("xi.csv", 1))
        for id, token in (("underscore", "1_0"), ("non_ascii_digit", "١.0"), ("hash", "#"))],
    "test_diagnose_csv_that_is_not_utf8_exit_2": [
        Exit(name, "diagnose", f"error: {{run}}/{name} is not UTF-8 text: 'utf-8' codec can't "
             "decode byte 0xff in position ", _small("diagnose"), run="small_run",
             damage=(_rewrite(f"{{run}}/{name}", _append(b"\xff")),))
        for name in ("spectrum.csv", "xi.csv")],
    "test_diagnose_bad_torsion_grid_exit_2": [
        Exit(id, "diagnose", prefix, _small("diagnose"), run="torsion_run", damage=(damage,))
        for id, damage, prefix in (
            ("other_disk", _at("{run}/torsion.grid", _torsion_of_other_disk),
             "error: {run}/torsion.grid is not the torsion function of {run}/domain.grid: "
             "torsion solve residual "),
            ("grid_header",
             _rewrite("{run}/torsion.grid", _header(b"GRIDDUMP v2 33 33 0.13 -2.0 -2.0")),
             "error: grid header of {run}/torsion.grid does not match {run}/domain.grid\n"),
            ("nonzero_off_omega", _at("{run}/torsion.grid", _torsion_off_omega),
             "error: {run}/torsion.grid is not the torsion function of {run}/domain.grid: "
             "torsion function is nonzero off Omega\n"))],
}


def _exit_test(rows: list[Exit]):
    """The test of one name's rows: parametrized by their ids, but for a
    name that lists its one case under no id."""
    if [row.id for row in rows] == [None]:
        def test(request, tmp_path, capsys, monkeypatch):
            _run_exit(rows[0], request, tmp_path, capsys, monkeypatch)
    else:
        @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
        def test(row, request, tmp_path, capsys, monkeypatch):
            _run_exit(row, request, tmp_path, capsys, monkeypatch)
    return test


for _name, _rows in _EXITS.items():
    globals()[_name] = _exit_test(_rows)
