"""The comparison of tools/compare_runs.py on hand-made run directories."""

from __future__ import annotations

import json
import pathlib

import pytest

from shapes import BALL_OPTIMUM, compare_runs


def _run_dir(root: pathlib.Path, wall: float) -> pathlib.Path:
    (root / "solve").mkdir(parents=True)
    (root / "solve.ini").write_text("[solve]\nmodes = 2\n")
    (root / "solve" / "spectrum.csv").write_text("k,lambda,resid\n1,5.78,1e-10\n")
    (root / "solve" / "domain.grid").write_bytes(b"GRIDDUMP v2 2 1 1.0 0.0 0.0\n" + bytes(16))
    manifest = {"artifacts": {}, "command": "solve", "wall_time_s": wall}
    (root / "solve" / "manifest.json").write_text(json.dumps(manifest))
    return root


def test_compare_dirs_names_a_one_byte_change(tmp_path):
    base = _run_dir(tmp_path / "base", wall=1.0)
    new = _run_dir(tmp_path / "new", wall=2.0)  # only the wall time differs
    assert compare_runs.compare_dirs(base, new) == [
        ("solve.ini", "same"), ("solve/domain.grid", "same"),
        ("solve/manifest.json", "same"), ("solve/spectrum.csv", "same")]

    dump = new / "solve" / "domain.grid"
    data = bytearray(dump.read_bytes())
    data[-1] ^= 1
    dump.write_bytes(bytes(data))
    (new / "solve" / "torsion.grid").write_bytes(b"")
    (base / "solve.ini").unlink()
    assert compare_runs.compare_dirs(base, new) == [
        ("solve.ini", "only in new"), ("solve/domain.grid", "changed"),
        ("solve/manifest.json", "same"), ("solve/spectrum.csv", "same"),
        ("solve/torsion.grid", "only in new")]


def test_compare_dirs_reads_manifest_fields_besides_wall_time(tmp_path):
    base = _run_dir(tmp_path / "base", wall=1.0)
    new = _run_dir(tmp_path / "new", wall=1.0)
    manifest = new / "solve" / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"solve"', '"optimize"'))
    assert ("solve/manifest.json", "changed") in compare_runs.compare_dirs(base, new)


def test_j_p_star_closed_forms():
    # the values of the reporting rule at p = 32, and the unregularized ball
    # optimum 2 j01 sqrt(pi) as p grows
    assert compare_runs.j_p_star("fk", 32.0) == pytest.approx(8.6726863, abs=1e-7)
    assert compare_runs.j_p_star("ks", 32.0) == pytest.approx(12.7496864, abs=1e-7)
    assert compare_runs.j_p_star("fk", 1e12) == pytest.approx(BALL_OPTIMUM, rel=1e-11)
