"""Dirichlet Laplacian eigenpairs and the torsion function on grid domains.

The Laplacian is the 5-point stencil restricted to active nodes (phi < 0).
Where a stencil arm crosses the boundary, the link's diagonal contribution is
scaled by the inverse sub-cell fraction theta = phi_P / (phi_P - phi_Q), the
symmetric sub-cell Dirichlet treatment: the matrix stays a symmetric
M-matrix and eigenvalues converge well beyond the O(h) of plain masking.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .domain import BoundaryMesh, GridDomain, _cell_corners

__all__ = [
    "SpectralError",
    "Spectrum",
    "assemble_laplacian",
    "factor_laplacian",
    "solve_spectrum",
    "solve_torsion",
    "torsion_field",
    "normal_derivative",
]

#: sub-cell fractions are floored here to keep the diagonal bounded
THETA_FLOOR = 0.05
#: seeded perturbation of a warm start vector, relative to its RMS entry
WARM_NOISE = 1e-3
#: Lanczos restarts before solve_spectrum gives up
_MAX_ITER = 200
#: relative residual that every eigenpair and torsion function must reach
_TOL = 1e-8
#: active nodes, beyond the M eigenpairs, that a domain needs to be solved
_SPARE_NODES = 5

_DIRS = ((0, 1), (0, -1), (1, 0), (-1, 0))


class SpectralError(RuntimeError):
    """Eigensolver failure; its message names the check and the residuals."""


def assemble_laplacian(d: GridDomain) -> tuple[sparse.csc_matrix, np.ndarray]:
    """Assemble -Laplace on active nodes, straight into CSC arrays.

    Returns (A, active) where ``active`` holds the flat (row-major) node
    indices of Omega and A is the symmetric positive definite operator in
    that ordering. Out-of-grid neighbors are Dirichlet ghosts at distance h
    (phi = 0 there, so theta = 1). Column p holds the rows of p's active S,
    W, self, E and N neighbours, which is ascending row order, so the int32
    arrays are canonical. Off-diagonals are -1/h^2. The diagonal is summed
    over the links in ``_DIRS`` order (E, W, N, S), adding 1/h^2 for an
    inside neighbour and 1/(theta h^2) for a cut link; with that order A has
    the bits of the COO assembly that ``tests/test_spectral.py`` keeps.
    """
    ny, nx = d.phi.shape
    h2 = d.grid.h ** 2
    phi = d.phi.ravel()
    active = np.flatnonzero(phi < 0)
    n = active.size
    if n == 0:
        raise ValueError("domain has no active nodes")
    row, col = np.divmod(active, nx)
    phi_p = phi[active]
    diag = np.zeros(n)
    linked = {(0, 0): np.ones(n, dtype=bool)}  # (dj, di) -> neighbour active
    for dj, di in _DIRS:
        ok = (row + dj >= 0) & (row + dj < ny) & (col + di >= 0) & (col + di < nx)
        phi_q = np.zeros(n)  # a ghost off the grid has phi = 0
        phi_q[ok] = phi[active[ok] + (dj * nx + di)]
        cut = ~(phi_q < 0)
        link = np.full(n, 1.0 / h2)
        theta = phi_p[cut] / (phi_p[cut] - phi_q[cut])
        link[cut] = 1.0 / (np.clip(theta, THETA_FLOOR, 1.0) * h2)
        diag += link
        linked[dj, di] = ~cut

    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(sum(m.astype(np.int32) for m in linked.values()), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.full(indptr[-1], -1.0 / h2)
    pos = indptr[:-1].copy()
    for dj, di in ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)):  # ascending rows
        m = linked[dj, di]
        if dj == 0:  # W, self and E are the previous, same and next active node
            indices[pos[m]] = np.flatnonzero(m) + di
        else:
            indices[pos[m]] = np.searchsorted(active, active[m] + dj * nx)
        if dj == di == 0:
            data[pos] = diag
        pos += m
    return sparse.csc_matrix((data, indices, indptr), shape=(n, n)), active


@dataclasses.dataclass(frozen=True, eq=False)
class Spectrum:
    """Lowest eigenpairs of the Dirichlet Laplacian on a GridDomain.

    ``modes[k]`` is the k-th eigenfunction on the full grid (zero outside
    Omega), normalized so the grid quadrature h^2 * sum(u_i * u_j) is the
    identity. ``generation`` stamps the domain revision the spectrum belongs
    to.
    """

    lambdas: np.ndarray
    modes: np.ndarray
    resid: np.ndarray
    generation: int = 0

    def __len__(self) -> int:
        return len(self.lambdas)


def _fix_signs(X: np.ndarray) -> np.ndarray:
    """Canonical sign: the largest-magnitude entry of each column positive."""
    j = np.abs(X).argmax(axis=0)
    s = np.sign(X[j, np.arange(X.shape[1])])
    s[s == 0] = 1.0
    return X * s


def factor_laplacian(d: GridDomain):
    """(A, active, lu): the Laplacian of ``d`` and its one factorization,
    for :func:`solve_spectrum` and :func:`solve_torsion` of the same domain.

    A is a symmetric, diagonally dominant M-matrix, so SuperLU runs in
    symmetric mode on a minimum-degree ordering of A + A^T without pivoting.
    """
    A, active = assemble_laplacian(d)
    lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    return A, active, lu


def solve_spectrum(
    d: GridDomain,
    M: int,
    seed: int = 0,
    warm: Spectrum | None = None,
    factors=None,
) -> Spectrum:
    """Lowest M Dirichlet eigenpairs by shift-invert Lanczos (ARPACK).

    Implicitly restarted Lanczos on A^-1 (shift 0, through the sparse LU of
    ``factors`` = :func:`factor_laplacian` of ``d``) finds M+1 pairs, one
    guarding the top of a near-degenerate cluster, in at most ``_MAX_ITER``
    restarts; each of the first M must satisfy ||A u - lambda u|| <= _TOL *
    lambda. SpectralError names the check that failed, ARPACK's own or the
    residual one, and lists the M residuals. The start vector is the sum
    of the ``warm`` modes (any grid occupancy) plus a small seeded
    perturbation, or a seeded Gaussian vector, so runs are deterministic.
    """
    if M < 1:
        raise ValueError(f"need at least one eigenpair, got M={M}")
    A, active, lu = factor_laplacian(d) if factors is None else factors
    n = A.shape[0]
    if n < M + _SPARE_NODES:
        raise ValueError(f"only {n} active nodes for M={M} eigenpairs (need >= M+{_SPARE_NODES})")

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if warm is not None and len(warm) > 0:
        w = warm.modes.reshape(len(warm), -1)[:, active].sum(axis=0)
        rms = np.linalg.norm(w) / np.sqrt(n)
        v0 = w + WARM_NOISE * (rms if rms > 0 else 1.0) * v0
    OPinv = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    failed = None
    try:
        lam, X = eigsh(A, k=M + 1, sigma=0, OPinv=OPinv, v0=v0,
                       maxiter=_MAX_ITER, tol=_TOL)
    except ArpackNoConvergence as err:
        lam, X = err.eigenvalues, err.eigenvectors
        failed = f"ARPACK converged {len(lam)} of {M + 1} pairs in {_MAX_ITER} restarts"
    order = np.argsort(lam)[:M]
    lam, X = lam[order], X[:, order]
    res = np.ones(M)  # pairs ARPACK did not deliver count as unresolved
    res[: len(lam)] = np.linalg.norm(A @ X - X * lam, axis=0) / np.abs(lam)
    if failed is None and np.any(res > _TOL):
        failed = f"eigenpair residual above tol={_TOL}"
    if failed is not None:
        raise SpectralError(f"{failed} (residuals {' '.join(f'{r:.3g}' for r in res)})")

    X = _fix_signs(X)
    modes = np.zeros((M, d.phi.size))
    modes[:, active] = X.T / d.grid.h  # grid-quadrature orthonormal
    return Spectrum(
        lambdas=lam,
        modes=modes.reshape(M, *d.phi.shape),
        resid=res,
        generation=d.generation,
    )


def solve_torsion(d: GridDomain, factors=None) -> np.ndarray:
    """The torsion function v (ny, nx) of ``d``: -Laplace v = 1 on Omega with
    Dirichlet conditions, zero off Omega.

    ``factors`` is :func:`factor_laplacian` of ``d``. The solution passes
    the check of :func:`torsion_field`. The torsion energy is
    T(Omega) = int(|grad v|^2 / 2 - v) = -h^2 * sum(v) / 2 through the
    discrete equation.
    """
    A, active, lu = factor_laplacian(d) if factors is None else factors
    full = np.zeros(d.phi.size)
    full[active] = lu.solve(np.ones(A.shape[0]))
    return torsion_field(d, full.reshape(d.phi.shape), laplacian=(A, active))


def torsion_field(d: GridDomain, v: np.ndarray, laplacian=None) -> np.ndarray:
    """A candidate torsion function ``v`` (ny, nx) of ``d``, once checked.

    ``v`` must vanish off Omega, and its residual ||A v - 1||_inf on Omega
    must be at most _TOL * max(1, max|v|); otherwise SpectralError.
    ``laplacian`` is :func:`assemble_laplacian` of ``d``.
    """
    A, active = assemble_laplacian(d) if laplacian is None else laplacian
    flat = np.ravel(v)
    off = np.ones(flat.size, dtype=bool)
    off[active] = False
    if np.any(flat[off] != 0.0):
        raise SpectralError("torsion function is nonzero off Omega")
    v = flat[active]
    resid = float(np.max(np.abs(A @ v - 1.0)))
    if not resid <= _TOL * max(1.0, float(np.max(np.abs(v)))):
        raise SpectralError(f"torsion solve residual {resid} above tolerance")
    return flat.reshape(d.phi.shape)


def normal_derivative(field: np.ndarray, bm: BoundaryMesh,
                      d: GridDomain) -> tuple[np.ndarray, np.ndarray]:
    """(values, reliable): |du/dnu| per boundary sample of a field vanishing
    outside Omega, and a bool reliability mask of shape (m,).

    Probes the field at x - 1.5h nu and x - 3h nu (bilinear), then Richardson
    extrapolates the linear slope: |u_nu| = |4 u(q1) - u(q2)| / (3h).
    ``field`` may be a stack (..., ny, nx); ``values`` then has shape
    (..., m). A sample is unreliable when an interpolation stencil of one of
    its two probe points touches inactive nodes; the mask depends only on
    the geometry, so every field of a stack shares it, and unreliable
    samples must be left out of aggregates.
    """
    h = d.grid.h
    pts = bm.points
    inside = d.inside

    def probe(q):  # the bilinear values at q, and whether their cell is in Omega
        j, i, mix, in_box = _cell_corners(d.grid, q)
        return mix(np.moveaxis(field[..., j, i], -2, 0)), in_box & inside[j, i].all(axis=0)

    (u1, ok1), (u2, ok2) = probe(pts - 1.5 * h * bm.normals), probe(pts - 3.0 * h * bm.normals)
    return np.abs(4.0 * u1 - u2) / (3.0 * h), ok1 & ok2
