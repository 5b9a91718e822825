"""Shape oracles of the tests: the flagship runs, the closed forms of balls
and pairs of disks, dilation, the half-plane, and perimeter and roundness of
level-set domains.

No command uses them. ``tools/compare_runs.py`` is loaded by path with the
standard library, and the benchmark's ``perfbench/workloads.py`` is the one
that it loads, so tier-1's ``fk`` and ``ks`` are the benchmark's by
construction, and j01, the ball and two-ball optima and the equal pair's J are
theirs. This module holds the tests' one copy of j11 and of the other closed
forms.
"""

import configparser
import importlib.util
import math
import pathlib
from typing import Sequence

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from eigenshape.cli import build_shape
from eigenshape.domain import Grid, GridDomain, bilinear, extract_boundary, volume
from eigenshape.objective import ObjectiveSpec, eval_Fp

_spec = importlib.util.spec_from_file_location(
    "compare_runs", pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)  # standard library only
workloads = compare_runs.workloads

J01 = workloads.J01  # first zero of J0
J11 = 3.8317059702075125  # first zero of J1, correctly rounded (workloads' is 1 ulp low)
R_STAR = (J01**2 / math.pi) ** 0.25  # ball radius where the ground-state speed vanishes
BALL_OPTIMUM = workloads.BALL_OPTIMUM          # least lambda_1 + |Omega| ~ 8.524880
TWO_BALL_OPTIMUM = workloads.TWO_BALL_OPTIMUM  # least lambda_2 + |Omega| ~ 12.056011


def flagship_config(workload: str) -> str:
    """The INI text of the benchmark's ``fk`` or ``ks`` run."""
    (text,) = workloads.make_inputs(workload, workloads.FLAGSHIP_SEED)["files"].values()
    return text


def cli_shape(ini: str) -> GridDomain:
    """The initial shape that the CLI builds from the ``[grid]``, ``[shape]``
    and ``[run] seed`` (default 0) of an INI text."""
    cp = configparser.ConfigParser()
    cp.read_string(ini)
    return build_shape(cp, cp.getint("run", "seed", fallback=0))


def flagship_shape(workload: str) -> GridDomain:
    """The initial shape of the benchmark's ``fk`` or ``ks`` run."""
    return cli_shape(flagship_config(workload))


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


def unit_weight(n: int) -> ObjectiveSpec:
    """F = lambda_n: ``linear`` with the unit weight e_n."""
    return ObjectiveSpec("linear", n=n, coeffs=tuple(float(k == n) for k in range(1, n + 1)))


def _disk_lambdas(r: float) -> np.ndarray:
    """The three least Dirichlet eigenvalues of a disk of radius r."""
    return (np.array([J01, J11, J11]) / r) ** 2


def disk_minimum(p: float, n: int) -> float:
    """The least J = F_p(lambda) + |Omega| over disks for F = lambda_n, n <= 3."""
    spec = unit_weight(n)
    res = minimize_scalar(lambda r: eval_Fp(spec, _disk_lambdas(r)[:n], p) + math.pi * r * r,
                          bounds=(0.5, 3.0), method="bounded", options={"xatol": 1e-12})
    return float(res.fun)


def pair_minimum(p: float, n: int = 2, start=(1.0, 0.9)) -> tuple[float, np.ndarray]:
    """The least J = F_p(lambda) + |Omega| over two disjoint disks for
    F = lambda_n: a Nelder-Mead search over the radii from ``start``. The
    union of the disks' spectra counts each disk's j01 and double j11 modes
    only, so it holds for n <= 4 while the smaller radius exceeds
    j01/j21 ~ 0.47 of the larger. Returns J and the radii in ascending order."""
    spec = unit_weight(n)

    def J(r):
        lam = np.sort(np.concatenate([_disk_lambdas(r[0]), _disk_lambdas(r[1])]))[:n]
        return eval_Fp(spec, lam, p) + math.pi * float(r @ r)

    res = minimize(J, list(start), method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-13})
    return float(res.fun), np.sort(res.x)
