"""Command-line entry point: solve | optimize | diagnose | sweep-p.

Configs are line-based key=value files with [section] headers. A run that
exits 0 or 1 leaves a manifest.json recording the config echo, version,
seed, wall time and sha256 hashes of the artifacts; --check re-runs the
config into a scratch directory and verifies those hashes. Exit codes:
0 success; 1 numerical failure, with the partial artifacts kept and
``converged`` false in the manifest (in its last stage under sweep-p); 2
usage or validation errors, with no manifest. A SpectralError prints one
``numerical failure:`` line and adds its ``error`` to the manifest; a flow
stage that aborts prints its own stage line. One ``_read_input`` opens
every input file, manifest.json under --check too: one that is missing,
unreadable, not UTF-8 or malformed exits 2 with one line naming it; so does
a run that cannot make --out or write into it, keeping what it wrote. The
seed, ``[run] seed`` or --seed over it, is a non-negative integer: a negative
one exits 2 naming the one that set it, before any command runs.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import pathlib
import sys
import tempfile
import time

import numpy as np

from . import __version__, domain
from .diagnostics import (
    classify_boundary,
    el_residual,
    probe_radii,
    simplicity_report,
    torsion_probe,
    weiss_profile,
)
from .domain import (
    BoundaryMesh,
    Grid,
    GridDomain,
    difference,
    disk,
    extract_boundary,
    read_grid_dump,
    read_field_dump,
    rectangle,
    star_blob,
    write_grid_dump,
)
from .objective import ObjectiveSpec, PenaltySpec, symmetrized
from .optimizer import (
    OptimizerConfig,
    OptimizerTrace,
    ScheduleError,
    p_continuation,
)
from .spectral import (
    SpectralError,
    Spectrum,
    factor_laplacian,
    solve_spectrum,
    solve_torsion,
    torsion_field,
)

VERSION_STRING = f"v{__version__}"


class ConfigError(Exception):
    """Anything wrong with a config file or its referenced paths."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class _Config(configparser.ConfigParser):
    """A parsed config that records every ``(section, key)`` looked up, present or not."""

    def __init__(self):
        super().__init__(inline_comment_prefixes=("#", ";"))
        self.optionxform = str
        self.looked_up: set[tuple[str, str]] = set()

    def has_option(self, section, option):
        self.looked_up.add((section, option))
        return super().has_option(section, option)


def _read_input(path, read=None):
    """The one reader of every input file: ``read(path)``, or its UTF-8 text
    when ``read`` is None. A path that is not a regular file (so no FIFO or
    device is read), an OSError, bytes that are not UTF-8 or a ValueError of
    ``read`` is a ConfigError naming the file."""
    path = pathlib.Path(path)
    try:
        if not path.is_file():
            raise ConfigError(f"input not found: {path}")
        return path.read_text(encoding="utf-8") if read is None else read(path)
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8 text: {err}") from err
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err.strerror}") from err
    except ValueError as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err


def load_config(path) -> _Config:
    p = pathlib.Path(path)
    cp = _Config()
    try:
        cp.read_string(_read_input(p), source=str(p))
    except configparser.Error as err:  # its message spans lines: make it one
        raise ConfigError(f"cannot parse {p}: {' '.join(str(err).split())}") from err
    if cp.defaults():
        raise ConfigError(f"{p}: [DEFAULT] is not read, yet it sets {', '.join(cp.defaults())}")
    return cp


def _get(cp, section, key, cast, default=None, required=False):
    """The value of ``[section] key`` through ``cast``. Any cast but ``str``
    takes the one token rule of the program, :func:`domain._number_token`: a
    value that breaks it is a ConfigError."""
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = cp.get(section, key).strip()
    try:
        if cast is str:
            return raw
        domain._number_token(raw)
        if cast is bool:
            return cp.BOOLEAN_STATES[raw.lower()]
        return cast(raw)
    except KeyError as err:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} is not "
                          "one of 1/0, true/false, yes/no, on/off") from err
    except ValueError as err:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from err


def _reject_unread(cp: _Config, command: str) -> None:
    """A ConfigError naming a section or key that ``command`` did not look up; every
    command calls it once it has looked up all its keys, before it writes or solves."""
    for section in cp.sections():
        unread = [key for key in cp.options(section) if (section, key) not in cp.looked_up]
        if unread:
            raise ConfigError(f"[{section}] {unread[0]} is not read by {command}")
        if not any(s == section for s, _ in cp.looked_up):
            raise ConfigError(f"[{section}] is not read by {command}")


def _floats(raw: str) -> list[float]:
    """A whitespace-separated list of numbers (a config value cast)."""
    return [float(v) for v in raw.split()]


def _float_row(line: str) -> list[float]:
    """The cells of one CSV line of floats, each stripped of whitespace and
    under the token rule of :func:`domain._number_token`. A comment sign,
    ``1_0``, a non-ASCII digit, an empty cell or a blank line is a ValueError."""
    return [float(domain._number_token(cell.strip())) for cell in line.split(",")]


def _read_csv(path, header: str, ncols: int) -> np.ndarray:
    """The value columns of a numeric CSV whose first line starts with
    ``header`` and whose rows are numbered k = 1..n in file order; a
    truncated or extra-field row, another k, a cell that breaks the token
    rule of :func:`_float_row` or a non-finite value is a ConfigError."""
    lines = _read_input(path).splitlines()
    if not lines or not lines[0].startswith(header):
        raise ConfigError(f"{path} does not start with {header!r}")
    rows = []
    for k, line in enumerate(lines[1:], start=1):
        try:
            row = _float_row(line)
        except ValueError:
            row = []
        if len(row) != ncols or not all(map(math.isfinite, row)) or row[0] != k:
            raise ConfigError(f"{path}:{k + 1}: expected k = {k} and {ncols - 1} "
                              f"finite numbers, got {line!r}")
        rows.append(row[1:])
    return np.array(rows).reshape(-1, ncols - 1).T.copy()


def build_grid(cp) -> Grid:
    x0 = _get(cp, "grid", "x0", float, -2.0)
    y0 = _get(cp, "grid", "y0", float, -2.0)
    x1 = _get(cp, "grid", "x1", float, 2.0)
    y1 = _get(cp, "grid", "y1", float, 2.0)
    nx = _get(cp, "grid", "nx", int, 257)
    ny = _get(cp, "grid", "ny", int, 257)
    try:
        return Grid.from_box(x0, y0, x1, y1, nx, ny)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def build_shape(cp, seed: int) -> GridDomain:
    """The initial domain of ``[shape]``; each kind looks up only its own keys."""
    kind = _get(cp, "shape", "kind", str, required=True)
    if kind == "file":
        return _read_input(_get(cp, "shape", "path", str, required=True), read_grid_dump)
    grid = build_grid(cp)
    try:  # a constructor rejects e.g. a non-finite size or centre
        if kind == "rectangle":
            return rectangle(
                grid,
                _get(cp, "shape", "x0", float, required=True),
                _get(cp, "shape", "y0", float, required=True),
                _get(cp, "shape", "x1", float, required=True),
                _get(cp, "shape", "y1", float, required=True),
            )
        cy = _get(cp, "shape", "cy", float, 0.0)
        if kind == "two_blobs":  # the left blob; the pair is mirrored about x = 0
            x0, x1 = grid.origin[0], float(grid.xs[-1])
            if abs(x0 + x1) > 1e-9 * (x1 - x0):
                raise ConfigError(f"[grid] x0 + x1 = {x0 + x1!r}: two_blobs mirrors about x = 0")
            cx = -0.5 * _get(cp, "shape", "sep", float, 2.1)
        else:
            cx = _get(cp, "shape", "cx", float, 0.0)
        if kind == "disk":
            return disk(grid, (cx, cy), _get(cp, "shape", "r", float, 1.0))
        if kind in ("square", "lshape"):
            half = 0.5 * _get(cp, "shape", "side", float, 2.0)
            box = rectangle(grid, cx - half, cy - half, cx + half, cy + half)
            if kind == "square":
                return box
            notch = rectangle(grid, cx, cy, cx + half + grid.h, cy + half + grid.h)
            return difference(box, notch)
        if kind not in ("blob", "two_blobs"):
            raise ConfigError(f"unknown shape kind {kind!r}")
        blob = star_blob(grid, (cx, cy), _get(cp, "shape", "r0", float, 0.9),
                         _get(cp, "shape", "amp", float, 0.2), _get(cp, "shape", "modes", int, 5),
                         np.random.default_rng(seed), mirror_x=kind == "two_blobs")
        if kind == "blob":
            return blob
        # exact mirror image about x = 0 on a symmetric node lattice
        return GridDomain(grid, np.minimum(blob.phi, blob.phi[:, ::-1]))
    except ValueError as err:
        raise ConfigError(f"bad [shape] {kind}: {err}") from err


def _set_keys(cp, section: str, casts: dict) -> dict:
    """The keys of ``casts`` that ``[section]`` sets, each through its cast;
    a key left out takes the default of the library type it is passed to."""
    return {key: value for key, cast in casts.items()
            if (value := _get(cp, section, key, cast)) is not None}


def build_objective(cp) -> ObjectiveSpec:
    """The ``[objective]`` of a config. ``family = single`` with ``index`` k
    (default n) spells F = kappa_k, the ``linear`` family with unit weight e_k."""
    family = _get(cp, "objective", "family", str, "single")
    n = _get(cp, "objective", "n", int, 1)
    kwargs = {"n": n}
    if family == "single":
        index = _get(cp, "objective", "index", int, n)
        if not 1 <= index <= n:
            raise ConfigError(f"single index {index} out of range 1..{n}")
        family, kwargs["coeffs"] = "linear", tuple(float(k == index) for k in range(1, n + 1))
    elif family == "linear":
        kwargs["coeffs"] = tuple(_get(cp, "objective", "coeffs", _floats, required=True))
    elif family == "softmin":
        kwargs.update(_set_keys(cp, "objective", {
            "subset": lambda raw: tuple(int(v) for v in raw.split()), "beta": float}))
    else:
        raise ConfigError(f"unknown family {family!r}, expected one of single, linear, softmin")
    try:
        return ObjectiveSpec(family=family, **kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def build_optimizer(cp, spec: ObjectiveSpec, seed: int, grid: Grid, *,
                    reads_p: bool) -> OptimizerConfig:
    """The flow settings that the config sets, on the library's defaults. Only
    ``reads_p`` looks up ``[regularization] p`` (sweep-p's schedule sets it), and
    only s > 0 ``[penalty] reference``, which must lie on ``grid``, ``[shape]``'s."""
    try:
        pen = PenaltySpec(**_set_keys(cp, "penalty", {"s": float}))
        ref_path = _get(cp, "penalty", "reference", str) if pen.s > 0 else None
        if ref_path is not None:
            reference = _read_input(ref_path, read_grid_dump)
            if reference.grid != grid:
                raise ConfigError(f"[penalty] reference {ref_path} is not on the [shape] grid")
            pen = PenaltySpec(s=pen.s, reference=reference)
        return OptimizerConfig(
            spec=spec, pen=pen, seed=seed,
            **(_set_keys(cp, "regularization", {"p": float}) if reads_p else {}),
            **_set_keys(cp, "optimizer", {"dt0": float, "max_steps": int, "conv_tol": float}),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _sha256(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _artifact_hashes(out: pathlib.Path) -> dict:
    """sha256 of every file in ``out`` except the manifest itself."""
    return {p.name: _read_input(p, _sha256) for p in sorted(out.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def _write_json(obj, path) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def write_manifest(out: pathlib.Path, cp, command: str, seed: int,
                   wall: float, extra: dict) -> None:
    _write_json({
        "version": VERSION_STRING,
        "command": command,
        "seed": seed,
        "wall_time_s": wall,
        "config": {s: dict(cp.items(s)) for s in cp.sections()},
        "artifacts": _artifact_hashes(out),
        **extra,
    }, out / "manifest.json")


def _write_csv(path, header: str, rows) -> None:
    """The text rule of every CSV artifact: the ``header`` line, then one line
    per row; an int or str cell is written as it is, any other number as
    ``repr(float(v))``, the shortest text that reads back to the same double,
    so reruns are byte-identical."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(str(v) if isinstance(v, (int, str)) else repr(float(v))
                             for v in row) + "\n")


def write_boundary_csv(bm: BoundaryMesh, path) -> None:
    _write_csv(path, "x,y,nux,nuy,w",
               np.column_stack((bm.points, bm.normals, bm.weights)).tolist())


def write_spectrum_csv(sp: Spectrum, path) -> None:
    _write_csv(path, "k,lambda,resid",
               zip(range(1, len(sp.lambdas) + 1), sp.lambdas, sp.resid))


def write_trace_csv(trace: OptimizerTrace, path, n_lambdas: int) -> None:
    """step,objective,volume,lambda1..lambdaN,E,dt: one row per step."""
    lambdas = [f"lambda{k}" for k in range(1, n_lambdas + 1)]
    _write_csv(path, ",".join(["step", "objective", "volume", *lambdas, "E", "dt"]),
               ((r.step, r.objective, r.volume, *r.lambdas, r.E, r.dt) for r in trace.records))


def write_weiss_csv(centres: np.ndarray, radii, W: np.ndarray, path) -> None:
    """Plot-ready rows, one per (centre, radius) sample of ``W`` (m, R): x,y,r,W."""
    _write_csv(path, "x,y,r,W", ((x, y, r, val) for (x, y), row in zip(centres, W)
                                 for r, val in zip(radii, row)))


def write_xi_csv(xi: np.ndarray, path) -> None:
    _write_csv(path, "k,xi", enumerate(xi, start=1))


def _write_solved_state(out: pathlib.Path, d: GridDomain, sp: Spectrum,
                        torsion: np.ndarray | None = None) -> None:
    """boundary.csv, spectrum.csv and the mode_k.grid (and torsion.grid) dumps of ``d``."""
    write_boundary_csv(extract_boundary(d), out / "boundary.csv")
    write_spectrum_csv(sp, out / "spectrum.csv")
    for k, mode in enumerate(sp.modes, start=1):
        domain.write_field_dump(d.grid, mode, out / f"mode_{k}.grid")
    if torsion is not None:
        domain.write_field_dump(d.grid, torsion, out / "torsion.grid")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(cp, out: pathlib.Path, seed: int) -> tuple[int, dict]:
    d = build_shape(cp, seed)
    M = _get(cp, "solve", "modes", int, 3)
    if M < 1:
        raise ConfigError(f"[solve] modes must be >= 1, got {M}")
    torsion = _get(cp, "solve", "torsion", bool, True)
    _reject_unread(cp, "solve")
    write_grid_dump(d, out / "domain.grid")
    try:
        factors = factor_laplacian(d)
        sp = solve_spectrum(d, M, seed=seed, factors=factors)
    except ValueError as err:  # an empty domain, or too few nodes for M modes
        raise ConfigError(str(err)) from err
    tv = solve_torsion(d, factors=factors) if torsion else None
    _write_solved_state(out, d, sp, tv)
    return 0, {"converged": True, "lambdas": [float(v) for v in sp.lambdas]}


def cmd_optimize(cp, out: pathlib.Path, seed: int) -> tuple[int, dict]:
    d0 = build_shape(cp, seed)
    cfg = build_optimizer(cp, build_objective(cp), seed, d0.grid, reads_p=True)
    if cfg.pen.s > 0 and not cfg.pen.active:  # sweep-p anchors its later stages with it
        raise ConfigError(f"[penalty] s = {cfg.pen.s!r} anchors nothing under optimize "
                          "without a [penalty] reference")
    _reject_unread(cp, "optimize")
    (trace,), _, code = _run_flow(out, d0, cfg, [cfg.p], "optimize", "trace.csv")
    return code, _stage_summary(trace)


def cmd_sweep_p(cp, out: pathlib.Path, seed: int) -> tuple[int, dict]:
    d0 = build_shape(cp, seed)
    cfg = build_optimizer(cp, build_objective(cp), seed, d0.grid, reads_p=False)
    schedule = _get(cp, "sweep", "schedule", _floats, [4.0, 8.0, 16.0, 32.0])
    _reject_unread(cp, "sweep-p")
    traces, labels, code = _run_flow(out, d0, cfg, schedule, "sweep-p", "trace_p{}.csv")
    _write_csv(out / "xi_trace.csv", "p,k,xi",
               ((label, k, val) for label, tr in zip(labels, traces)
                if tr.final is not None for k, val in enumerate(tr.final.xi, start=1)))
    return code, {"stages": [{"p": p, **_stage_summary(tr)}
                             for p, tr in zip(schedule, traces)]}


def _run_flow(out: pathlib.Path, d0: GridDomain, cfg: OptimizerConfig,
              schedule: list[float], command: str, trace_name: str):
    """The flow from ``d0`` over the p ``schedule``: each stage's trace goes
    to ``trace_name`` formatted with its label ``f"{p:g}"``, then the final
    state of the last stage that ran. A stage that aborts ends the run with
    one line on stderr naming the stage and the cause. Returns the trace of
    every stage that ran, the stage labels and the exit code. Only a
    ``[sweep] schedule`` can fail the schedule checks: ``[regularization] p``
    was checked when ``cfg`` was built."""
    labels = [f"{p:g}" for p in schedule]  # the stage file names
    if len(set(labels)) != len(labels):
        raise ConfigError(f"[sweep] schedule {schedule} gives stages the same "
                          f"file label: {labels}")
    try:
        traces = p_continuation(cfg, d0, schedule)
    except ScheduleError as err:
        raise ConfigError(f"[sweep] schedule: {err}") from err
    except ValueError as err:
        raise ConfigError(str(err)) from err
    code = 1 if traces[-1].stop_reason == "aborted" else 0
    if code:
        print(f"{command} aborted in the stage p = {labels[len(traces) - 1]}: "
              f"{traces[-1].error}", file=sys.stderr)
    for label, tr in zip(labels, traces):
        write_trace_csv(tr, out / trace_name.format(label), cfg.spec.n)
    final = traces[-1].final
    if final is not None:  # None when its initial spectrum failed
        write_grid_dump(final.domain, out / "domain.grid")
        _write_solved_state(out, final.domain, final.spectrum)
        write_xi_csv(final.xi, out / "xi.csv")
    return traces, labels, code


def _stage_summary(trace: OptimizerTrace) -> dict:
    """How one stage ended, in numbers of the state it ended in (the one whose
    artifacts the last stage writes): the optimize manifest extras, and each
    entry of the sweep-p ``stages`` (with its p). ``converged`` and ``stalled``
    are read off ``stop_reason``; a stall counts as converged."""
    reason = trace.stop_reason
    summary = {"converged": reason in ("converged", "line_search_stall"),
               "stalled": reason == "line_search_stall",
               "stop_reason": reason, "objective_F": None}
    final = trace.final
    if final is not None:  # None when the initial spectrum failed
        summary.update(objective_F=final.objective_F, objective=final.objective,
                       volume=final.vol, E=final.E, lambdas=[float(v) for v in final.kappa])
    return summary


def _read_field(path, d: GridDomain, dom_path) -> np.ndarray:
    """A nodal field dump on the grid of ``d`` (read from ``dom_path``); a
    missing or malformed dump, another grid header or a non-finite value is
    a ConfigError."""
    grid, field = _read_input(path, read_field_dump)
    if grid != d.grid:
        raise ConfigError(f"grid header of {path} does not match {dom_path}")
    if not np.all(np.isfinite(field)):
        raise ConfigError(f"{path} has non-finite values")
    return field


def _load_diagnose_inputs(cp):
    """The domain, spectrum (with the ``mode_k.grid`` dumps next to
    ``spectrum.csv``) and weights xi of the previous run that ``[diagnose]``
    names; any ConfigParser will do."""
    dom_path = _get(cp, "diagnose", "domain", str, required=True)
    spec_path = pathlib.Path(_get(cp, "diagnose", "spectrum", str, required=True))
    xi_path = _get(cp, "diagnose", "xi", str, required=True)
    d = _read_input(dom_path, read_grid_dump)
    lambdas, resid = _read_csv(spec_path, "k,lambda", 3)
    if len(lambdas) == 0:
        raise ConfigError(f"{spec_path} lists no eigenpairs")
    modes = [_read_field(spec_path.parent / f"mode_{k}.grid", d, dom_path)
             for k in range(1, len(lambdas) + 1)]
    sp = Spectrum(lambdas=lambdas, modes=np.stack(modes), resid=resid,
                  generation=d.generation)
    (xi,) = _read_csv(xi_path, "k,xi", 2)
    if len(xi) == 0:
        raise ConfigError(f"{xi_path} lists no weights")
    if len(xi) > len(lambdas):
        raise ConfigError(
            f"{xi_path} lists {len(xi)} weights but only {len(lambdas)} modes exist"
        )
    return d, sp, xi


def _load_torsion(d: GridDomain, dom_path, spec_path):
    """The torsion function of ``d``, read from ``dom_path``: the
    ``torsion.grid`` that solve wrote next to ``spec_path``, once it passes
    the check of solve's own solution, or a fresh solve when there is no such
    file."""
    path = pathlib.Path(spec_path).parent / "torsion.grid"
    if not path.exists():  # a directory or FIFO in its place fails in _read_input
        return solve_torsion(d)
    try:
        return torsion_field(d, _read_field(path, d, dom_path))
    except SpectralError as err:
        raise ConfigError(f"{path} is not the torsion function of {dom_path}: "
                          f"{err}") from err


def cmd_diagnose(cp, out: pathlib.Path, seed: int) -> tuple[int, dict]:
    """report.json and weiss.csv of the saved run that ``[diagnose]`` names.

    ``probes`` sets a stride, not a count: the Weiss and torsion probes take
    every ``max(1, m // probes)``-th of the ``m`` boundary samples, which is
    ``ceil(m / stride)`` points, up to about twice ``probes``. The labels
    cover every sample."""
    dom_path, spec_path, _ = (_get(cp, "diagnose", key, str, required=True)
                              for key in ("domain", "spectrum", "xi"))  # the inputs read below
    radii = _get(cp, "diagnose", "radii", _floats)  # default 4h 6h 8h 12h
    n_probes = _get(cp, "diagnose", "probes", int, 48)
    if n_probes < 1:
        raise ConfigError(f"[diagnose] probes must be >= 1, got {n_probes}")
    _reject_unread(cp, "diagnose")
    d, sp, xi = _load_diagnose_inputs(cp)
    h = d.grid.h
    try:
        radii = probe_radii([4 * h, 6 * h, 8 * h, 12 * h] if radii is None else radii, h)
    except ValueError as err:
        raise ConfigError(f"[diagnose] {err}") from err
    bm = extract_boundary(d)
    report: dict = {
        "n_boundary": int(len(bm)),
        "lambdas": [float(v) for v in sp.lambdas],
        "xi": [float(v) for v in xi],
        "xi_symmetrized": [float(v) for v in symmetrized(xi, sp.lambdas)],
        "simplicity": simplicity_report(sp),
    }
    if len(bm) > 0:
        try:
            el = el_residual(d, sp, xi, bm)
        except ValueError as err:
            raise ConfigError(f"cannot diagnose: {err}") from err
        report["el_residual"] = {
            "median": el.median,
            "median_abs": el.median_abs,
            "p90_abs": el.p90_abs,
            "n_reliable": int(len(el.values)),
        }
        v = _load_torsion(d, dom_path, spec_path)
        probe_pts = bm.points[::max(1, len(bm) // n_probes)]
        W, c_hat = weiss_profile(d, sp, xi, probe_pts, radii)
        write_weiss_csv(probe_pts, radii, W, out / "weiss.csv")
        report["weiss"] = {
            "radii": radii,
            "W_smallest_r": W[:, 0].tolist(),
            "c_hat_max": float(c_hat.max()),
        }
        names, counts = np.unique(classify_boundary(d, bm, radii)[0], return_counts=True)
        report["boundary_labels"] = dict(zip(names.tolist(), counts.tolist()))
        violations = torsion_probe(d, v, probe_pts, radii[0])
        report["torsion_violations"] = int(violations.sum())
    _write_json(report, out / "report.json")
    return 0, {}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

#: subcommand -> (its function, its help line)
_COMMANDS = {
    "solve": (cmd_solve, "solve the spectrum (and torsion) of a fixed shape"),
    "optimize": (cmd_optimize, "run the level-set gradient flow"),
    "diagnose": (cmd_diagnose, "free-boundary diagnostics on saved artifacts"),
    "sweep-p": (cmd_sweep_p, "p-continuation over an ascending schedule"),
}


def run_single(command: str, config_path: str, out_dir: str,
               seed_override: int | None, check: bool) -> int:
    """One config through one subcommand; returns the exit code. Inputs fail in
    ``_read_input``, so an OSError here is an output failure: one line, exit 2."""
    out = pathlib.Path(out_dir)
    try:
        cp = load_config(config_path)
        seed, source = _get(cp, "run", "seed", int, 0), "[run] seed"  # read under --seed too
        if seed_override is not None:
            seed, source = seed_override, "--seed"
        if seed < 0:
            raise ConfigError(f"{source} = {seed} is negative: a seed is a non-negative integer")
        if check:
            return _run_check(command, cp, out, seed)
        out.mkdir(parents=True, exist_ok=True)
        return _run_command(command, cp, out, seed)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
    except OSError as err:
        print(f"error: cannot write {err.filename or out}: {err.strerror}", file=sys.stderr)
    return 2


def _run_command(command: str, cp, out: pathlib.Path, seed: int) -> int:
    """One subcommand into ``out``, then its manifest, timed over the whole
    command; returns the exit code. A ConfigError leaves no manifest; a
    SpectralError prints one ``numerical failure:`` line, exits 1 and adds
    ``converged: false`` and its ``error`` to the manifest."""
    t0 = time.perf_counter()
    try:
        code, extra = _COMMANDS[command][0](cp, out, seed)
    except SpectralError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        code, extra = 1, {"converged": False, "error": str(err)}
    write_manifest(out, cp, command, seed, time.perf_counter() - t0, {"name": out.name, **extra})
    return code


def _run_check(command: str, cp, out: pathlib.Path, seed: int) -> int:
    """Verify the recorded hashes against both the files on disk (artifact
    integrity) and a fresh rerun in a scratch directory (reproducibility)."""
    manifest_path = out / "manifest.json"
    manifest = _read_input(manifest_path, lambda p: json.loads(p.read_bytes()))
    recorded = manifest.get("artifacts") if isinstance(manifest, dict) else None
    if not isinstance(recorded, dict):
        raise ConfigError(f"cannot check: {manifest_path} has no artifacts object")
    on_disk = _artifact_hashes(out)
    with tempfile.TemporaryDirectory(prefix="eigenshape-check-") as tmp:
        scratch = pathlib.Path(tmp)
        code = _run_command(command, cp, scratch, seed)
        if code != 0:
            print(f"check rerun failed with exit code {code}", file=sys.stderr)
            return code
        fresh = _artifact_hashes(scratch)
    failed = False
    for label, current in (("on disk", on_disk), ("on rerun", fresh)):
        mismatched = sorted(
            set(k for k in recorded if recorded.get(k) != current.get(k))
            | set(k for k in current if k not in recorded)
        )
        for name in mismatched:
            print(f"hash mismatch {label}: {name}", file=sys.stderr)
        failed = failed or bool(mismatched)
    if failed:
        return 1
    print(f"check passed: {len(recorded)} artifacts match")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenshape",
        description="Spectral shape optimization and free-boundary diagnostics.",
    )
    parser.add_argument("--version", action="version", version=VERSION_STRING)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True, action="append",
                        help="config file (repeatable: the configs run in turn, "
                             "each into <out>/<config stem>)")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--check", action="store_true",
                        help="re-run and verify artifact hashes against manifest.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    configs = args.config
    if len(configs) == 1:
        return run_single(args.command, configs[0], args.out, args.seed, args.check)
    outs = [str(pathlib.Path(args.out) / pathlib.Path(c).stem) for c in configs]
    if len(set(outs)) != len(outs):
        print("error: config stems collide; use distinct file names", file=sys.stderr)
        return 2
    return max(run_single(args.command, c, o, args.seed, args.check)
               for c, o in zip(configs, outs))


if __name__ == "__main__":
    sys.exit(main())
