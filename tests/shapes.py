"""Shape oracles of the tests: dilation, the half-plane, perimeter and
roundness of level-set domains, and the best pair of disks.

No command uses them; the scaling-law, half-plane, acceptance and
degenerate-pair tests build their reference shapes and measures from them.
"""

import math
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from eigenshape.domain import Grid, GridDomain, bilinear, extract_boundary, volume
from eigenshape.objective import ObjectiveSpec, eval_Fp

J01 = 2.404825557695773


def dilate(d: GridDomain, t: float) -> GridDomain:
    """The dilated domain t*Omega on the same grid.

    Samples phi(x/t) bilinearly and rescales by t, so a signed-distance input
    stays a signed distance. Query points that fall outside the original box
    pick up the clamped value plus the overshoot distance, keeping far-field
    positivity.
    """
    if not t > 0:
        raise ValueError(f"dilation factor must be positive, got {t}")
    if t == 1.0:
        return d.with_phi(d.phi.copy())
    g = d.grid
    X, Y = g.meshgrid()
    qx = X.ravel() / t
    qy = Y.ravel() / t
    vals = bilinear(g, d.phi, np.column_stack([qx, qy]))
    x0, y0, x1, y1 = g.xs[0], g.ys[0], g.xs[-1], g.ys[-1]
    over = np.hypot(
        np.maximum(x0 - qx, 0.0) + np.maximum(qx - x1, 0.0),
        np.maximum(y0 - qy, 0.0) + np.maximum(qy - y1, 0.0),
    )
    phi = t * (vals + over)
    return d.with_phi(phi.reshape(d.phi.shape))


def half_plane(grid: Grid, normal: Sequence[float] = (0.0, 1.0), offset: float = 0.0) -> GridDomain:
    """Half-plane {x . n < offset} with unit outward normal n."""
    n = np.asarray(normal, dtype=float)
    n = n / np.hypot(*n)
    X, Y = grid.meshgrid()
    return GridDomain(grid, X * n[0] + Y * n[1] - offset)


def perimeter(d: GridDomain) -> float:
    return float(extract_boundary(d).weights.sum())


def roundness(d: GridDomain) -> float:
    """Isoperimetric quotient 4*pi*|Omega| / P^2 (1 for a disk)."""
    p = perimeter(d)
    if p == 0.0:
        return 0.0
    return 4.0 * math.pi * volume(d) / p**2


def pair_minimum(p: float) -> tuple[float, np.ndarray]:
    """The least J = F_p(lambda) + |Omega| over two disjoint disks, for the
    second eigenvalue (``linear``, n = 2, unit weight e_2): a Nelder-Mead
    search over the radii. Each disk of radius r adds the eigenvalue (j01 / r)^2.
    Returns J and the radii in ascending order."""
    spec = ObjectiveSpec("linear", n=2, coeffs=(0, 1))

    def J(r):
        return eval_Fp(spec, np.sort((J01 / r) ** 2), p) + math.pi * float(r @ r)

    res = minimize(J, [1.0, 0.9], method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-13})
    return float(res.fun), np.sort(res.x)
