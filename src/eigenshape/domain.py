"""Level-set representation of open planar domains on a uniform grid.

A domain is the sublevel set {phi < 0} of a nodal scalar field on a uniform
Cartesian grid. This module provides the geometric primitives everything else
builds on: area measurement, boundary sampling with normals and arclength
weights, signed-distance reinitialization, and the analytic shape
constructors of the initial domains. The ball probes are in ``diagnostics``.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Sequence

import numpy as np

__all__ = [
    "Grid",
    "GridDomain",
    "BoundaryMesh",
    "inside_fraction",
    "bilinear",
    "volume",
    "extract_boundary",
    "reinitialize",
    "connected_components",
    "split_components",
    "disk",
    "rectangle",
    "star_blob",
    "difference",
    "write_field_dump",
    "read_field_dump",
    "write_grid_dump",
    "read_grid_dump",
]


def _check_size(nx: int, ny: int) -> None:
    if nx < 8 or ny < 8:
        raise ValueError(f"grid must be at least 8x8, got {nx}x{ny}")


@dataclasses.dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid covering [x0, x0+(nx-1)h] x [y0, y0+(ny-1)h].

    Fields are immutable; arrays indexed [j, i] with j along y and i along x,
    matching the on-disk dump layout (rows from y0 upward).
    """

    nx: int
    ny: int
    h: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        _check_size(self.nx, self.ny)
        if not 0 < self.h < math.inf:
            raise ValueError(f"grid spacing must be positive and finite, got {self.h}")
        origin = (float(self.origin[0]), float(self.origin[1]))
        if not all(map(math.isfinite, origin)):
            raise ValueError(f"grid origin must be finite, got {origin}")
        object.__setattr__(self, "origin", origin)

    @property
    def xs(self) -> np.ndarray:
        return self.origin[0] + self.h * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.origin[1] + self.h * np.arange(self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinate arrays X, Y of shape (ny, nx)."""
        return np.meshgrid(self.xs, self.ys)

    @classmethod
    def from_box(cls, x0: float, y0: float, x1: float, y1: float, nx: int, ny: int) -> "Grid":
        """Grid over the closed box; spacings in x and y must agree to 1e-9."""
        _check_size(nx, ny)
        hx = (x1 - x0) / (nx - 1)
        hy = (y1 - y0) / (ny - 1)
        if abs(hx - hy) > 1e-9 * max(hx, hy):
            raise ValueError(f"anisotropic spacing not supported (hx={hx}, hy={hy})")
        return cls(nx=nx, ny=ny, h=hx, origin=(x0, y0))


@dataclasses.dataclass(frozen=True, eq=False)
class GridDomain:
    """An open planar set Omega = {phi < 0} sampled at grid nodes.

    ``generation`` is a revision counter bumped by :meth:`with_phi`, used to
    detect stale derived data (spectra computed for an older phi).
    """

    grid: Grid
    phi: np.ndarray
    generation: int = 0

    def __post_init__(self) -> None:
        phi = np.ascontiguousarray(self.phi, dtype=float)
        if phi.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"phi shape {phi.shape} does not match grid ({self.grid.ny}, {self.grid.nx})"
            )
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must be finite at every node")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    def with_phi(self, phi: np.ndarray) -> "GridDomain":
        return GridDomain(self.grid, phi, generation=self.generation + 1)

    @property
    def inside(self) -> np.ndarray:
        """Boolean node mask of Omega."""
        return self.phi < 0

    @property
    def smooth_inside(self) -> np.ndarray:
        """The one smoothed indicator (width 1.5h) that integrals over Omega use."""
        return inside_fraction(self.phi, 1.5 * self.grid.h)


@dataclasses.dataclass(frozen=True, eq=False)
class BoundaryMesh:
    """Boundary samples: zero-crossings of phi along grid edges.

    points: (m, 2) positions; normals: (m, 2) unit outward vectors;
    weights: (m,) arclength weights whose sum approximates the perimeter.
    """

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

def inside_fraction(phi: np.ndarray, eps: float) -> np.ndarray:
    """Smoothed indicator of {phi < 0} with transition half-width ``eps``.

    1 where phi <= -eps, 0 where phi >= eps, and a C^1 sine ramp in between.
    The sine is taken on the ramp only: off it the formula is exactly 1 or 0.
    """
    phi = np.asarray(phi, dtype=float)
    out = (phi < 0).astype(float)
    ramp = ~(np.abs(phi) >= eps)  # not <: a NaN stays on the ramp and comes out NaN
    t = phi[ramp] / eps
    # clip: sin(pi) roundoff would otherwise leave values ~ -1e-17 outside [0, 1]
    out[ramp] = np.clip(0.5 * (1.0 - t - np.sin(np.pi * t) / np.pi), 0.0, 1.0)
    return out


def _node_weights(grid: Grid) -> np.ndarray:
    """Tensor trapezoid weights (ny, nx): h^2, halved on the outer box faces."""
    tx = np.ones(grid.nx)
    tx[0] = tx[-1] = 0.5
    ty = np.ones(grid.ny)
    ty[0] = ty[-1] = 0.5
    return grid.h * grid.h * (ty[:, None] * tx[None, :])


def _cell_corners(grid: Grid, pts: np.ndarray):
    """Corner nodes (j, i), each (4, m), of each point's grid cell (clamped to
    the box) in the order 00, 10, 01, 11, the bilinear mix of values there,
    and the mask (m,) of points whose cell lies in the box unclamped."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    fx = (pts[:, 0] - grid.origin[0]) / grid.h
    fy = (pts[:, 1] - grid.origin[1]) / grid.h
    fi, fj = np.floor(fx).astype(int), np.floor(fy).astype(int)
    in_box = (0 <= fi) & (fi <= grid.nx - 2) & (0 <= fj) & (fj <= grid.ny - 2)
    i0 = np.clip(fi, 0, grid.nx - 2)
    j0 = np.clip(fj, 0, grid.ny - 2)
    tx = np.clip(fx - i0, 0.0, 1.0)
    ty = np.clip(fy - j0, 0.0, 1.0)
    w = ((1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty)
    j, i = j0 + np.array([[0], [0], [1], [1]]), i0 + np.array([[0], [1], [0], [1]])
    return j, i, lambda c: w[0] * c[0] + w[1] * c[1] + w[2] * c[2] + w[3] * c[3], in_box


def bilinear(grid: Grid, field: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a nodal field at points (m, 2).

    ``field`` may be a stack (..., ny, nx); the result then has shape
    (..., m). Coordinates are clamped to the grid box; callers that care
    about out-of-box queries must handle them beforehand.
    """
    j, i, mix, _ = _cell_corners(grid, pts)
    return mix(np.moveaxis(field[..., j, i], -2, 0))


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def volume(d: GridDomain) -> float:
    """Area of Omega by node quadrature of ``d.smooth_inside``."""
    return float(np.sum(_node_weights(d.grid) * d.smooth_inside))


def connected_components(d: GridDomain) -> int:
    """Number of 4-connected components of the inside node mask."""
    from scipy import ndimage  # imported here: solve and diagnose never load it

    _, n = ndimage.label(d.inside)
    return int(n)


def split_components(d: GridDomain) -> list["GridDomain"]:
    """One GridDomain per 4-connected component, largest volume first.

    Every node is assigned to its nearest component (so each part keeps its
    own smoothing skirt and the parts' volumes sum exactly to the total);
    foreign nodes are pushed well outside the indicator ramp.
    """
    from scipy import ndimage

    labels, n = ndimage.label(d.inside)
    if n <= 1:
        return [d]
    _, (jn, inx) = ndimage.distance_transform_edt(~d.inside, return_indices=True)
    owner = labels[jn, inx]
    far = 3.0 * d.grid.h
    parts = [
        d.with_phi(np.where(owner == i, d.phi, far)) for i in range(1, n + 1)
    ]
    parts.sort(key=volume, reverse=True)
    return parts


# ---------------------------------------------------------------------------
# boundary extraction
# ---------------------------------------------------------------------------

def extract_boundary(d: GridDomain) -> BoundaryMesh:
    """Sample the zero level set of phi on sign-change grid edges.

    One sample per edge whose endpoints straddle zero, positioned by linear
    interpolation. Normals are the bilinearly interpolated central-difference
    gradient of phi, normalized (outward = toward phi > 0). Arclength weights
    come from the marching-squares polyline: each cell segment contributes
    half its length to each of its two endpoint samples, so the weight sum
    tracks the perimeter.
    """
    phi = d.phi
    grid = d.grid
    h = grid.h
    inside = phi < 0

    # --- crossing points on horizontal and vertical edges ---
    hx_mask = inside[:, :-1] != inside[:, 1:]
    vy_mask = inside[:-1, :] != inside[1:, :]
    if not hx_mask.any() and not vy_mask.any():
        empty = np.zeros((0, 2))
        return BoundaryMesh(points=empty, normals=empty, weights=np.zeros(0))

    jH, iH = np.nonzero(hx_mask)
    jV, iV = np.nonzero(vy_mask)

    phiH1 = phi[jH, iH]
    phiH2 = phi[jH, iH + 1]
    ptsH = np.column_stack([grid.xs[iH] + phiH1 / (phiH1 - phiH2) * h, grid.ys[jH]])

    phiV1 = phi[jV, iV]
    phiV2 = phi[jV + 1, iV]
    ptsV = np.column_stack([grid.xs[iV], grid.ys[jV] + phiV1 / (phiV1 - phiV2) * h])

    pts = np.vstack([ptsH, ptsV])
    n_h = len(jH)

    # --- normals: np.gradient(phi, h), same arithmetic, at the cell corners only ---
    j, i, mix, _ = _cell_corners(grid, pts)
    jlo, jhi = np.maximum(j - 1, 0), np.minimum(j + 1, grid.ny - 1)
    ilo, ihi = np.maximum(i - 1, 0), np.minimum(i + 1, grid.nx - 1)
    nx_ = mix((phi[j, ihi] - phi[j, ilo]) / ((ihi - ilo) * h))
    ny_ = mix((phi[jhi, i] - phi[jlo, i]) / ((jhi - jlo) * h))
    norms = np.hypot(nx_, ny_)
    # degenerate gradient: fall back to the edge direction, oriented outward
    bad = norms < 1e-12
    if bad.any():
        fall = np.zeros((len(pts), 2))
        fall[:n_h, 0] = np.sign(phiH2 - phiH1)
        fall[n_h:, 1] = np.sign(phiV2 - phiV1)
        nx_ = np.where(bad, fall[:, 0], nx_)
        ny_ = np.where(bad, fall[:, 1], ny_)
        norms = np.where(bad, np.hypot(nx_, ny_), norms)
    normals = np.column_stack([nx_ / norms, ny_ / norms])

    # --- arclength weights: the marching-squares segments of each cell ---
    Hid = np.full(hx_mask.shape, -1)
    Hid[jH, iH] = np.arange(n_h)
    Vid = np.full(vy_mask.shape, -1)
    Vid[jV, iV] = np.arange(n_h, len(pts))
    # one row per crossing cell: its edge samples (bottom, right, top, left),
    # -1 where an edge has none
    jc, ic = np.nonzero(hx_mask[:-1] | hx_mask[1:] | vy_mask[:, :-1] | vy_mask[:, 1:])
    ids = np.column_stack([Hid[jc, ic], Vid[jc, ic + 1], Hid[jc + 1, ic], Vid[jc, ic]])
    cuts = (ids >= 0).sum(axis=1)
    single = ids[cuts == 2]
    # a saddle cell (4 crossings) pairs them by the sign of its centre value:
    # centre inside <-> the two outside corners are isolated
    saddle = cuts == 4
    js, is_ = jc[saddle], ic[saddle]
    bottom, right, top, left = ids[saddle].T
    centre = 0.25 * (phi[js, is_] + phi[js, is_ + 1] + phi[js + 1, is_] + phi[js + 1, is_ + 1])
    pair_br = (centre < 0) == inside[js, is_]
    segs = np.concatenate([
        single[single >= 0].reshape(-1, 2),
        np.column_stack([bottom, np.where(pair_br, right, left)]),
        np.column_stack([top, np.where(pair_br, left, right)]),
    ])
    # math.hypot, not np.hypot: the two round differently in the last bit
    diff = pts[segs[:, 0]] - pts[segs[:, 1]]
    half = 0.5 * np.fromiter(map(math.hypot, diff[:, 0], diff[:, 1]), float, len(diff))
    # each segment gives half its length to each endpoint; a sample lies on
    # one edge of at most two cells, so it sums at most two terms in any order
    weights = np.bincount(segs.ravel(), weights=np.repeat(half, 2), minlength=len(pts))
    return BoundaryMesh(points=pts, normals=normals, weights=weights)


# ---------------------------------------------------------------------------
# reinitialization
# ---------------------------------------------------------------------------

#: sup-norm update below which reinitialize stops
_REINIT_TOL = 1e-3
#: sweeps after which reinitialize stops
_REINIT_MAX_ITER = 400
#: max |phi| above which reinitialize first scales phi by a power of two
_REINIT_PHI_MAX = 1e100


def reinitialize(d: GridDomain) -> GridDomain:
    """Relax phi toward the signed distance of its own zero level set.

    Runs the standard reinitialization relaxation phi_tau = S(phi0)(1 - |grad
    phi|) with Godunov upwinding, anchoring interface nodes to the sub-cell
    target distance h*phi0/|grad phi0| so the zero level set does not drift.
    Stops when the sup-norm update drops below ``_REINIT_TOL`` or after
    ``_REINIT_MAX_ITER`` sweeps. A phi beyond ``_REINIT_PHI_MAX`` is first
    scaled by a power of two to max |phi| < 1: exact, and its squares stay finite.

    The sweeps run on psi = sign(phi0) * phi, so both sides of the interface
    share one upwind rule: |grad psi| takes max(D-psi, -D+psi, 0) per axis,
    with one forward difference per axis. Interface nodes (a 4-neighbour
    across zero) take the anchored update -(dtau/h)(|psi| - |target|)
    instead. IEEE rounding is symmetric under a sign flip, and psi stays
    positive where phi0 < 0, so on any field where the sweeps stay finite
    the result has the same bits as the same Godunov relaxation written on
    phi with a per-side gradient (the oracle in ``tests/test_domain.py``).
    """
    h = d.grid.h
    big = max(d.phi.max(), -d.phi.min())
    phi0 = d.phi if big <= _REINIT_PHI_MAX else np.ldexp(d.phi, -int(np.frexp(big)[1]))
    ny, nx = phi0.shape
    n = phi0.size

    sign0 = np.where(phi0 >= 0, 1.0, -1.0)
    dtau = 0.5 * h
    # -dtau * |S(phi0)|, written as the sign flip of -dtau * S(phi0) so that
    # it keeps the bits of the phi-side coefficient
    coef = (sign0 * (-dtau * (phi0 / np.sqrt(phi0**2 + h**2)))).ravel()

    # interface nodes: any 4-neighbor on the other side of zero
    inside = phi0 < 0
    iface = np.zeros_like(inside)
    iface[:, :-1] |= inside[:, :-1] != inside[:, 1:]
    iface[:, 1:] |= inside[:, :-1] != inside[:, 1:]
    iface[:-1, :] |= inside[:-1, :] != inside[1:, :]
    iface[1:, :] |= inside[:-1, :] != inside[1:, :]
    anchored = np.flatnonzero(iface)

    gy, gx = np.gradient(phi0, h)
    gnorm = np.maximum(np.hypot(gx, gy), 1e-6)
    # |sub-cell signed distance| at the interface
    target = np.abs(np.clip(phi0 / gnorm, -h, h)).ravel()[anchored]
    anchor = -(dtau / h)

    psi = (sign0 * phi0).ravel()
    row_ends = np.arange(nx - 1, n - 1, nx)  # x-differences that wrap rows
    fx, fy = np.empty(n - 1), np.empty(n - nx)
    ax, ay, u = np.empty(n), np.empty(n), np.empty(n)
    for _ in range(_REINIT_MAX_ITER):
        # forward differences on the flat array; the backward difference at
        # a node is the forward one of its predecessor, and the replicated
        # grid edges give zeros
        np.subtract(psi[1:], psi[:-1], out=fx)
        fx /= h
        fx[row_ends] = 0.0
        np.subtract(psi[nx:], psi[:-nx], out=fy)
        fy /= h
        ax[0] = 0.0
        np.maximum(fx, 0.0, out=ax[1:])
        np.maximum(ax[:-1], np.negative(fx, out=fx), out=ax[:-1])
        ay[:nx] = 0.0
        np.maximum(fy, 0.0, out=ay[nx:])
        np.maximum(ay[:-nx], np.negative(fy, out=fy), out=ay[:-nx])
        np.square(ax, out=ax)
        np.square(ay, out=ay)
        np.sqrt(np.add(ax, ay, out=u), out=u)
        u -= 1.0
        u *= coef
        u[anchored] = anchor * (np.abs(psi[anchored]) - target)
        psi += u
        if max(u.max(), -u.min()) < _REINIT_TOL:
            break
    return d.with_phi(sign0 * psi.reshape(ny, nx))


# ---------------------------------------------------------------------------
# shape constructors
# ---------------------------------------------------------------------------

def disk(grid: Grid, center: Sequence[float] = (0.0, 0.0), radius: float = 1.0) -> GridDomain:
    """Signed-distance disk."""
    X, Y = grid.meshgrid()
    return GridDomain(grid, np.hypot(X - center[0], Y - center[1]) - radius)


def rectangle(grid: Grid, x0: float, y0: float, x1: float, y1: float) -> GridDomain:
    """Signed-distance axis-aligned rectangle (x0, x1) x (y0, y1)."""
    X, Y = grid.meshgrid()
    dx = np.maximum(x0 - X, X - x1)
    dy = np.maximum(y0 - Y, Y - y1)
    outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
    inside = np.minimum(np.maximum(dx, dy), 0.0)
    return GridDomain(grid, outside + inside)


def star_blob(
    grid: Grid,
    center: Sequence[float],
    r0: float,
    amp: float,
    n_modes: int,
    rng: np.random.Generator,
    mirror_x: bool = False,
) -> GridDomain:
    """Random star-shaped blob r(theta) = r0 (1 + perturbation).

    Harmonics 2..n_modes+1 with Gaussian coefficients, rescaled so the total
    relative perturbation stays below ``amp``. With ``mirror_x`` the profile
    keeps only its cosine terms, so the blob is symmetric under y -> -y about
    its center (used for paired initial data, which mirror it in x).
    """
    if not (math.isfinite(r0) and math.isfinite(amp)):
        raise ValueError(f"blob r0 and amp must be finite, got r0={r0}, amp={amp}")
    ms = np.arange(2, n_modes + 2)
    a = rng.standard_normal(len(ms))
    b = rng.standard_normal(len(ms))
    scale = amp / max(np.sum(np.abs(a)) + np.sum(np.abs(b)), 1e-12)
    a *= scale
    b *= scale
    if mirror_x:
        b[:] = 0.0  # cosine-only profile is even in theta

    X, Y = grid.meshgrid()
    dx = X - center[0]
    dy = Y - center[1]
    theta = np.arctan2(dy, dx)
    r_of_theta = r0 * (
        1.0
        + sum(a[k] * np.cos(m * theta) for k, m in enumerate(ms))
        + sum(b[k] * np.sin(m * theta) for k, m in enumerate(ms))
    )
    return GridDomain(grid, np.hypot(dx, dy) - r_of_theta)


def difference(a: GridDomain, b: GridDomain) -> GridDomain:
    """Set difference a \\ b."""
    return a.with_phi(np.maximum(a.phi, -b.phi))


# ---------------------------------------------------------------------------
# dump I/O
# ---------------------------------------------------------------------------

_DUMP_MAGIC = "GRIDDUMP"
#: bytes read for the header line, newline included
_DUMP_HEADER_MAX = 256


def write_field_dump(grid: Grid, field: np.ndarray, path) -> None:
    """Binary dump of any nodal field: the text header line
    "GRIDDUMP v2 nx ny h x0 y0" (floats by repr), then the ny*nx values as
    little-endian float64, row-major from y0 upward."""
    with open(path, "wb") as f:
        f.write(f"{_DUMP_MAGIC} v2 {grid.nx} {grid.ny} {grid.h!r} "
                f"{grid.origin[0]!r} {grid.origin[1]!r}\n".encode())
        f.write(np.asarray(field, dtype="<f8").tobytes())


def _number_token(text: str) -> str:
    """``text`` if it is ASCII without "_", the token rule of every number that
    the program reads (int() and float() would read "3_3" or an Arabic-Indic
    digit); a ValueError otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not ASCII without '_'")
    return text


def read_field_dump(path) -> tuple[Grid, np.ndarray]:
    """Inverse of :func:`write_field_dump`. The header is one line of at most
    _DUMP_HEADER_MAX bytes under the token rule of :func:`_number_token`, and
    the payload must be exactly 8*nx*ny bytes, checked against the file before
    anything is allocated from the header sizes."""
    with open(path, "rb") as f:
        line = f.readline(_DUMP_HEADER_MAX)
        header = _number_token(line.decode("latin-1")).split()  # any byte > 0x7f fails
        if not line.endswith(b"\n") or len(header) != 7 or header[:2] != [_DUMP_MAGIC, "v2"]:
            raise ValueError(f"not a {_DUMP_MAGIC} v2 header line: {line!r}")
        nx, ny = int(header[2]), int(header[3])
        grid = Grid(nx=nx, ny=ny, h=float(header[4]),
                    origin=(float(header[5]), float(header[6])))
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != 8 * nx * ny:
            raise ValueError(f"grid dump payload has {size} bytes, expected "
                             f"{8 * nx * ny} for {ny} x {nx} values")
        return grid, np.fromfile(f, dtype="<f8").reshape(ny, nx)


def write_grid_dump(d: GridDomain, path) -> None:
    """Dump a domain's level-set field (see :func:`write_field_dump`)."""
    write_field_dump(d.grid, d.phi, path)


def read_grid_dump(path) -> GridDomain:
    grid, phi = read_field_dump(path)
    return GridDomain(grid, phi)
