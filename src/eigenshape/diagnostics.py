"""Free-boundary measurements on (domain, spectrum, xi) triples.

Scaled boundary energies and their almost-monotonicity constant, the
first-order optimality residual on the boundary, and the ball probes on one
batched walk over the ball windows: local density ratios, the density-based
boundary point classification and a torsion-function nondegeneracy probe;
also the eigenvalue cluster structure. Everything here is a pure
measurement: synthetic spectra and weights are accepted as readily as
converged optimizer output.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .domain import BoundaryMesh, Grid, GridDomain, _node_weights, bilinear, inside_fraction
from .objective import _rel_gaps, kappa_clusters, symmetrized
from .optimizer import shape_velocity
from .spectral import Spectrum

__all__ = [
    "ELResidual",
    "probe_radii",
    "density_ratio",
    "weiss_profile",
    "el_residual",
    "classify_boundary",
    "torsion_probe",
    "simplicity_report",
]


def probe_radii(radii, h: float) -> tuple[float, ...]:
    """The probe radii as floats, once they are checked: one or more, finite,
    strictly ascending and at least 4h (the smallest resolvable probe)."""
    radii = tuple(float(r) for r in radii)
    if not radii or not all(map(math.isfinite, radii)):
        raise ValueError(f"radii must be one or more finite numbers, got {radii}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly ascending, got {radii}")
    if radii[0] < 4.0 * h - 1e-12:
        raise ValueError(f"radii must be at least 4h = {4 * h!r}, got {radii[0]!r}")
    return radii


# ---------------------------------------------------------------------------
# ball probes
# ---------------------------------------------------------------------------

#: window nodes per batch of probe centres; bounds the memory of a batched probe
_BATCH_NODES = 1 << 16


def _ball_windows(grid: Grid, centres: np.ndarray, r: float):
    """The nodes that carry the weight of the mollified balls B_r(c), in batches.

    The window of a centre c (a row of ``centres`` (m, 2)) holds the nodes
    within r + 2h of c along each axis, clipped to the box (possibly empty).
    Centres whose windows share a shape are batched, up to _BATCH_NODES
    window nodes per batch. Yields (sel, rows, cols, ball): the indices of
    the batch's centres, the node rows (k, nr) and columns (k, nc) of their
    windows, and the one-cell-mollified ball indicator (k, nr, nc) on them.
    """
    h = grid.h
    pad = r + 2.0 * h
    origin = np.array(grid.origin)
    size = np.array([grid.nx, grid.ny])
    lo = np.clip(np.floor((centres - pad - origin) / h), 0, size).astype(np.int64)
    hi = np.clip(np.ceil((centres + pad - origin) / h) + 1, 0, size).astype(np.int64)
    nc, nr = np.maximum(hi - lo, 0).T
    shapes, group = np.unique(nr * (grid.nx + 1) + nc, return_inverse=True)
    xs, ys = grid.xs, grid.ys
    for g, shape in enumerate(shapes.tolist()):
        nr, nc = divmod(shape, grid.nx + 1)
        members = np.flatnonzero(group == g)
        step = max(1, _BATCH_NODES // max(1, nr * nc))
        for s in range(0, len(members), step):
            sel = members[s:s + step]
            rows = lo[sel, 1:] + np.arange(nr)
            cols = lo[sel, :1] + np.arange(nc)
            dist = np.hypot(xs[cols][:, None, :] - centres[sel, 0, None, None],
                            ys[rows][:, :, None] - centres[sel, 1, None, None])
            yield sel, rows, cols, inside_fraction(dist - r, h)


def _ball_means(grid: Grid, field: np.ndarray, centres: np.ndarray, r: float) -> np.ndarray:
    """Mollified means of the nodal ``field`` over the balls B_r(c), one per
    row c of ``centres`` (m, 2); 0 where the ball holds no weight."""
    out = np.zeros(len(centres))
    for sel, rows, cols, ball in _ball_windows(grid, np.asarray(centres, dtype=float), r):
        total = ball.sum(axis=(1, 2))
        f = field[rows[:, :, None], cols[:, None, :]]
        out[sel] = np.divide((ball * f).sum(axis=(1, 2)), total,
                             out=np.zeros_like(total), where=total > 0.0)
    return out


def density_ratio(d: GridDomain, centres: np.ndarray, r: float) -> np.ndarray:
    """|B_r(c) inside Omega| / |B_r(c)| by mollified node quadrature, one
    value per row c of ``centres`` (m, 2).

    Both numerator and denominator use the same one-cell-mollified ball
    weights, so the result lies in [0, 1] exactly and equals 1 for balls
    fully inside Omega. For balls clipped by the grid box the ratio is
    relative to the in-box part.
    """
    h = d.grid.h
    if r < 2 * h:
        raise ValueError(f"radius {r} below resolvable 2h = {2 * h}")
    return _ball_means(d.grid, d.smooth_inside, centres, r)


# ---------------------------------------------------------------------------
# Weiss-type boundary energies
# ---------------------------------------------------------------------------

def _mode_gradients(modes: np.ndarray, inside: np.ndarray, h: float) -> np.ndarray:
    """Gradients of a mode stack (M, ny, nx), shape (M, 2, ny, nx), interface-aware.

    Central differences in the bulk; where a stencil arm pokes out of
    Omega (the node mask ``inside``), the one-sided difference into the
    domain is used instead, so the kink of the zero-extended modes does not
    halve the boundary gradient. The outermost rows and columns are treated
    as the box edge.
    """

    def axis_grad(axis):
        lo = (Ellipsis, slice(None, 1)) + (slice(None),) * (-1 - axis)
        hi = (Ellipsis, slice(-1, None)) + (slice(None),) * (-1 - axis)
        um = np.roll(modes, 1, axis=axis)
        up = np.roll(modes, -1, axis=axis)
        im = np.roll(inside, 1, axis=axis)
        ip = np.roll(inside, -1, axis=axis)
        um[lo] = 0.0
        im[lo] = False
        up[hi] = 0.0
        ip[hi] = False
        grad = (up - um) / (2.0 * h)
        grad = np.where(im & ~ip, (modes - um) / h, grad)
        grad = np.where(ip & ~im, (up - modes) / h, grad)
        return grad

    return np.stack([axis_grad(-1), axis_grad(-2)], axis=1)


def weiss_profile(
    d: GridDomain,
    sp: Spectrum,
    xi: np.ndarray,
    centres: np.ndarray,
    radii,
) -> tuple[np.ndarray, np.ndarray]:
    """(W, c_hat): the scaled boundary energy W(x, r) (2D scaling) over the
    :func:`probe_radii` ``radii``, shape (m, R), for the rows x of
    ``centres`` (m, 2), and the drift constant of each row, shape (m,).

    W(x,r) = r^-2 * int_{B_r(x) & Omega} (sum_k xi_k |grad u_k|^2 + 1)
           - r^-3 * int_{bd B_r(x)} sum_k xi_k u_k^2,

    with the paper's 1, the first variation of |Omega|, as the volume term.
    The volume part uses smoothed ball and domain indicators on the node
    quadrature; the ring part samples the circle and interpolates the modes
    bilinearly. Half-plane data with unit gradient and unit weights gives
    pi/2. ``c_hat`` is the smallest C >= 0 such that r -> W(x,r) + C*r is
    nondecreasing across the sampled radii; 0 for a single radius.
    """
    g, h = d.grid, d.grid.h
    radii = probe_radii(radii, h)
    centres = np.asarray(centres, dtype=float)
    xis = symmetrized(xi, sp.lambdas)
    modes = sp.modes[: len(xis)]

    # the volume integrand, domain indicator and node weights on the whole grid
    integ = np.ones((g.ny, g.nx))
    grads = _mode_gradients(modes, d.inside, h)
    for k in range(len(xis)):
        integ = integ + xis[k] * (grads[k, 0] ** 2 + grads[k, 1] ** 2)
    chi = d.smooth_inside
    wts = _node_weights(g)

    W = np.zeros((len(centres), len(radii)))
    for j, r in enumerate(radii):
        for sel, rows, cols, ball in _ball_windows(g, centres, r):
            win = (rows[:, :, None], cols[:, None, :])
            W[sel, j] = np.sum(wts[win] * ball * chi[win] * integ[win], axis=(1, 2)) / r**2

        nsamp = max(64, int(4.0 * math.pi * r / h))
        theta = (np.arange(nsamp) + 0.5) * (2.0 * math.pi / nsamp)
        circle = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        ring_sum = np.zeros(len(centres))
        step = max(1, _BATCH_NODES // nsamp)
        for s in range(0, len(centres), step):
            ring_pts = centres[s:s + step, None, :] + circle
            ring = bilinear(g, modes, ring_pts.reshape(-1, 2))
            ring = ring.reshape(len(modes), len(ring_pts), nsamp)
            ring_vals = np.zeros(ring.shape[1:])
            for k in range(len(xis)):
                ring_vals += xis[k] * ring[k] ** 2
            ring_sum[s:s + step] = ring_vals.sum(axis=1)
        W[:, j] -= (2.0 * math.pi * r / nsamp) * ring_sum / r**3

    c_hat = np.zeros(len(W))
    for j in range(len(radii) - 1):
        drift = (W[:, j] - W[:, j + 1]) / (radii[j + 1] - radii[j])
        c_hat = np.where(drift > c_hat, drift, c_hat)
    return W, c_hat


# ---------------------------------------------------------------------------
# Euler-Lagrange residual
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class ELResidual:
    """Signed optimality defect sum_k xi_k (u_k)_nu^2 - 1 per boundary point.

    Only points whose normal-derivative stencils were reliable are kept.
    """

    points: np.ndarray
    values: np.ndarray

    @property
    def median(self) -> float:
        """Signed median (negative means the boundary wants to shrink)."""
        return float(np.median(self.values))

    @property
    def median_abs(self) -> float:
        return float(np.median(np.abs(self.values)))

    @property
    def p90_abs(self) -> float:
        return float(np.percentile(np.abs(self.values), 90))


def el_residual(
    d: GridDomain,
    sp: Spectrum,
    xi: np.ndarray,
    bm: BoundaryMesh,
) -> ELResidual:
    """Defect of the paper's equation sum_k xi_k |grad u_k|^2 = 1 over the
    boundary samples.

    This is :func:`~eigenshape.optimizer.shape_velocity` at its xi0 = 1
    (an anchored flow subtracts the penalty's xi0 field instead), restricted
    to the samples whose stencils are reliable: cluster-averaged weights let
    near-degenerate modes contribute through their invariant subspace, and
    the squares make the result blind to eigenfunction sign choices. Raises
    if every sample is unreliable.
    """
    V, reliable = shape_velocity(d, sp, xi, bm)
    if not reliable.any():
        raise ValueError("no reliable boundary samples for the residual")
    return ELResidual(points=bm.points[reliable], values=V[reliable])


# ---------------------------------------------------------------------------
# density-based boundary classification
# ---------------------------------------------------------------------------

def classify_boundary(
    d: GridDomain, bm: BoundaryMesh, radii
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(label, density, trend), each of shape (m,): each boundary sample
    labelled by its occupied-volume fraction profile, with that evidence.

    Density ~ 1/2, stable across radii: flat boundary ("REDUCED"). Density
    near 1 and growing as r shrinks: cusp-like pocket ("CUSP_CANDIDATE").
    Anything else - corners, slits, thin necks - is "SINGULAR_CANDIDATE".
    ``density`` is taken at the smallest probe radius; ``trend`` is that
    value minus the density at the largest radius (positive: the occupied
    fraction grows as the probe shrinks). Thresholds are declared
    heuristics at grid scale, not limits. ``radii`` must pass
    :func:`probe_radii`.
    """
    radii = probe_radii(radii, d.grid.h)
    chi = d.smooth_inside  # density_ratio's indicator, once
    rho = np.column_stack([_ball_means(d.grid, chi, bm.points, r) for r in radii])
    rho0 = rho[:, 0]
    trend = rho0 - rho[:, -1]
    reduced = (0.35 <= rho0) & (rho0 <= 0.65) & (rho.max(axis=1) - rho.min(axis=1) <= 0.15)
    cusp = (rho0 >= 0.9) & (trend >= -0.02)
    label = np.where(reduced, "REDUCED",
                     np.where(cusp, "CUSP_CANDIDATE", "SINGULAR_CANDIDATE"))
    return label, rho0, trend


# ---------------------------------------------------------------------------
# torsion nondegeneracy probe
# ---------------------------------------------------------------------------

#: mean-value threshold of torsion_probe, calibrated so every probe on the
#: optimal single ball passes
_PROBE_C0 = 0.06
#: |v| above which the quarter ball of a low-mean probe counts as nonzero
_PROBE_VTOL = 1e-8


def torsion_probe(
    d: GridDomain,
    v: np.ndarray,
    centres: np.ndarray,
    r: float,
) -> np.ndarray:
    """Mean-value nondegeneracy check on the torsion function ``v`` (ny, nx):
    a bool violation flag per row x of ``centres`` (m, 2), shape (m,).

    If the mean of v over B_r(x) falls below _PROBE_C0*r, v must vanish on
    the quarter ball B_{r/4}(x); a |v| above _PROBE_VTOL there is a
    violation. Points with v = 0 on both balls pass vacuously. Requires
    r >= 4h.
    """
    h = d.grid.h
    probe_radii((r,), h)
    centres = np.asarray(centres, dtype=float)
    low = np.flatnonzero(~(_ball_means(d.grid, v, centres, r) > _PROBE_C0 * r))
    violation = np.zeros(len(centres), dtype=bool)
    # the max of |v| over the nodes that the inner ball gives weight
    for sel, rows, cols, ball in _ball_windows(d.grid, centres[low], max(r / 4.0, 1.5 * h)):
        near = np.where(ball > 0, np.abs(v[rows[:, :, None], cols[:, None, :]]), 0.0)
        violation[low[sel]] = near.max(axis=(1, 2), initial=0.0) > _PROBE_VTOL
    return violation


# ---------------------------------------------------------------------------
# cluster structure
# ---------------------------------------------------------------------------

def simplicity_report(sp: Spectrum) -> dict:
    """The relative gaps of sp's eigenvalues and their :func:`kappa_clusters`,
    as the ``simplicity`` entry of ``report.json``: ``{"rel_gaps": [...],
    "clusters": [[...], ...]}``."""
    return {"rel_gaps": _rel_gaps(sp.lambdas).tolist(),
            "clusters": [list(c) for c in kappa_clusters(sp.lambdas)]}
