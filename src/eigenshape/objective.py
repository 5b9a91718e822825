"""Objective families and their p-regularization, plus the anchoring penalty.

The optimizer never works with F(kappa) directly. It minimizes the smoothed
functional

    F_p(kappa) = G_p(tau_1, ..., tau_N) + (1/p) sum_k (N+1-k) kappa_k,

where tau_k = (sum_{l<=k} kappa_l^p)^(1/p) and G_p averages F over the cell
[0, 1/p]^N. F_p is smooth, strictly increasing in every argument, and
collapses to F as p -> infinity; its partial derivatives xi_k weight the
eigenfunctions in the boundary velocity. The penalty E(Omega) anchors a
domain to a reference via capped distance integrals and a volume mismatch
term chi.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .domain import GridDomain, _node_weights, bilinear, volume

__all__ = [
    "ObjectiveSpec",
    "PenaltySpec",
    "eval_F",
    "eval_Gp",
    "eval_Fp",
    "grad_Fp",
    "eval_penalty_E",
    "xi0_field",
    "kappa_clusters",
    "symmetrized",
]

_FAMILIES = ("linear", "softmin")
#: Gauss-Legendre nodes per axis of the cell rule that averages F in G_p
_QUAD_NODES = 4
#: relative gap below which consecutive eigenvalues share a cluster
_CLUSTER_TOL = 1e-3


@dataclasses.dataclass(frozen=True)
class ObjectiveSpec:
    """One of the supported F families on kappa = (kappa_1, ..., kappa_n).

    linear:  F = sum_k coeffs[k] * kappa_k, coeffs >= 0, one strictly positive;
             F = kappa_k is the unit weight e_k
    softmin: F = -(1/beta) log mean_{k in subset} exp(-beta kappa_k)

    Every family is continuous, nondecreasing in each argument, diverges
    along the diagonal, and is locally Lipschitz — the admissibility
    conditions the flags report.
    """

    family: str
    n: int
    coeffs: tuple[float, ...] | None = None
    subset: tuple[int, ...] | None = None
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {_FAMILIES}")
        if not 1 <= self.n <= 4:
            raise ValueError(f"n must be in 1..4 (tensor quadrature cap), got {self.n}")
        if self.family == "linear":
            if self.coeffs is None or len(self.coeffs) != self.n:
                raise ValueError(f"linear family needs {self.n} coefficients")
            c = tuple(float(v) for v in self.coeffs)
            if any(v < 0 for v in c) or not any(v > 0 for v in c):
                raise ValueError("linear coefficients must be >= 0 with at least one > 0")
            object.__setattr__(self, "coeffs", c)
        else:  # softmin
            sub = tuple(range(1, self.n + 1)) if self.subset is None else tuple(
                sorted(set(int(k) for k in self.subset))
            )
            if not sub or sub[0] < 1 or sub[-1] > self.n:
                raise ValueError(f"softmin subset {sub} out of range 1..{self.n}")
            if not self.beta > 0:
                raise ValueError(f"softmin beta must be positive, got {self.beta}")
            object.__setattr__(self, "subset", sub)

    # ---- evaluation --------------------------------------------------
    def values(self, K: np.ndarray) -> np.ndarray:
        """F at a batch of points, shape (m, n) -> (m,)."""
        K = np.atleast_2d(np.asarray(K, dtype=float))
        if K.shape[1] != self.n:
            raise ValueError(f"kappa has {K.shape[1]} entries, spec expects {self.n}")
        if self.family == "linear":
            return K @ np.asarray(self.coeffs)
        sub = np.asarray(self.subset) - 1
        Ks = K[:, sub]
        m = Ks.min(axis=1, keepdims=True)
        return (m[:, 0]
                - np.log(np.mean(np.exp(-self.beta * (Ks - m)), axis=1)) / self.beta)

    def grads(self, K: np.ndarray) -> np.ndarray:
        """dF/dkappa at a batch of points, shape (m, n) -> (m, n)."""
        K = np.atleast_2d(np.asarray(K, dtype=float))
        m = K.shape[0]
        if self.family == "linear":
            return np.tile(np.asarray(self.coeffs), (m, 1))
        sub = np.asarray(self.subset) - 1
        Ks = K[:, sub]
        mn = Ks.min(axis=1, keepdims=True)
        w = np.exp(-self.beta * (Ks - mn))
        w /= w.sum(axis=1, keepdims=True)
        g = np.zeros((m, self.n))
        g[:, sub] = w
        return g


def eval_F(spec: ObjectiveSpec, kappa: Sequence[float]) -> float:
    """F(kappa); kappa must be strictly positive."""
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa <= 0):
        raise ValueError(f"kappa must be strictly positive, got {kappa}")
    return float(spec.values(kappa[None, :])[0])


@dataclasses.dataclass(frozen=True, eq=False)
class PenaltySpec:
    """Anchoring penalty E(Omega) toward a reference domain.

    E = s * int_Omega min(dist(x, ref), 1)
      + s * int_{box \\ Omega} min(dist(x, ref^c), 1)
      + chi(|ref| - |Omega|),       chi(t) = (sqrt(1+t^2) - 1) / 2.

    chi vanishes to second order at 0 and has |chi'| <= 1/2, so the volume
    term never dominates. With s = 0 and matched volumes, E = 0. Under a
    normal boundary speed g, E changes at the rate
    int_{dOmega} (s min(dist(x, ref), 1) - s min(dist(x, ref^c), 1)
    - chi'(|ref| - |Omega|)) g; :func:`xi0_field` is 1 plus that integrand.

    ``fields`` holds the capped distance-to-reference and
    distance-to-complement fields on the reference grid, plus the reference
    volume, built once at construction while the penalty is active; None
    otherwise.
    """

    s: float = 0.0
    reference: GridDomain | None = None
    fields: tuple[np.ndarray, np.ndarray, float] | None = dataclasses.field(
        init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.s < math.inf:
            raise ValueError(f"penalty strength s must be finite and >= 0, got {self.s}")
        if self.active:
            from scipy import ndimage  # imported here: only anchored runs need it

            ref, h = self.reference, self.reference.grid.h
            object.__setattr__(self, "fields", (
                np.minimum(ndimage.distance_transform_edt(~ref.inside, sampling=h), 1.0),
                np.minimum(ndimage.distance_transform_edt(ref.inside, sampling=h), 1.0),
                volume(ref),
            ))

    @property
    def active(self) -> bool:
        """E is on: s > 0 and a reference anchored (else E = 0 and xi0 = 1)."""
        return self.s > 0.0 and self.reference is not None

    @staticmethod
    def chi(t: float) -> float:
        return 0.5 * (math.hypot(1.0, t) - 1.0)

    @staticmethod
    def chi_prime(t: float) -> float:
        return 0.5 * t / math.hypot(1.0, t)


def _tau_all(kappa: np.ndarray, p: float) -> np.ndarray:
    """All running p-norms tau_k = (sum_{l<=k} kappa_l^p)^(1/p), k = 1..N.

    Computed in log-sum-exp form so large p never overflows.
    """
    logk = np.log(kappa)
    taus = np.empty(len(kappa))
    for k in range(len(kappa)):
        m = logk[: k + 1].max()
        taus[k] = math.exp(m + math.log(np.sum(np.exp(p * (logk[: k + 1] - m)))) / p)
    return taus


@functools.lru_cache(maxsize=32)
def _cell_rule(ndim: int):
    """Tensor Gauss-Legendre rule on the unit cell [0,1]^ndim.

    Returns (offsets, weights): offsets (q^ndim, ndim) in [0,1] with
    q = ``_QUAD_NODES``, weights summing to 1, so a cell average is
    weights @ f(offsets).
    """
    x, w = leggauss(_QUAD_NODES)
    x01 = 0.5 * (x + 1.0)
    w01 = 0.5 * w
    grids = np.meshgrid(*([x01] * ndim), indexing="ij")
    offsets = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*([w01] * ndim), indexing="ij")
    weights = np.prod(np.column_stack([g.ravel() for g in wgrids]), axis=1)
    return offsets, weights


def eval_Gp(spec: ObjectiveSpec, kappa: Sequence[float], p: float) -> float:
    """Average of F over the cell kappa + [0, 1/p]^N (tensor Gauss rule).

    Exact for the linear family; spectrally accurate for softmin.
    """
    kappa = np.asarray(kappa, dtype=float)
    offsets, weights = _cell_rule(spec.n)
    return float(weights @ spec.values(kappa[None, :] + offsets / p))


def _grad_Gp(spec: ObjectiveSpec, kappa: np.ndarray, p: float) -> np.ndarray:
    offsets, weights = _cell_rule(spec.n)
    return weights @ spec.grads(kappa[None, :] + offsets / p)


def eval_Fp(spec: ObjectiveSpec, kappa: Sequence[float], p: float) -> float:
    """The regularized objective F_p(kappa) (see module docstring).

    Always >= F(kappa), with gap O(1/p).
    """
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa <= 0):
        raise ValueError(f"kappa must be strictly positive, got {kappa}")
    taus = _tau_all(kappa, p)
    n = spec.n
    pert = float(np.arange(n, 0, -1) @ kappa) / p
    return eval_Gp(spec, taus, p) + pert


def _rel_gaps(kappa: Sequence[float]) -> np.ndarray:
    """Relative gaps (kappa[k+1] - kappa[k]) / |kappa[k]| of consecutive values."""
    kappa = np.asarray(kappa, dtype=float)
    return np.diff(kappa) / np.maximum(np.abs(kappa[:-1]), 1e-300)


def kappa_clusters(kappa: Sequence[float]) -> tuple[tuple[int, ...], ...]:
    """Partition of 0-based indices into near-degenerate consecutive groups:
    consecutive values whose relative gap is below ``_CLUSTER_TOL`` share a group."""
    groups: list[list[int]] = [[0]]
    for k, gap in enumerate(_rel_gaps(kappa).tolist(), start=1):
        if gap < _CLUSTER_TOL:
            groups[-1].append(k)
        else:
            groups.append([k])
    return tuple(tuple(g) for g in groups)


def symmetrized(xi: np.ndarray, lambdas: Sequence[float]) -> np.ndarray:
    """``xi`` averaged within each :func:`kappa_clusters` group of
    ``lambdas[:len(xi)]``: cluster sums are kept, and near-degenerate modes
    act only through their invariant subspace, not the basis of the solver."""
    out = xi.copy()
    for group in kappa_clusters(lambdas[: len(xi)]):
        if len(group) > 1:
            out[list(group)] = xi[list(group)].mean()
    return out


def grad_Fp(spec: ObjectiveSpec, kappa: Sequence[float], p: float) -> np.ndarray:
    """Exact gradient of :func:`eval_Fp` at kappa, the (n,) array xi:

        xi_k = (N+1-k)/p + sum_{j>=k} (kappa_k / tau_j)^(p-1) * dG_p/dkappa_j

    with dG_p evaluated at (tau_1, ..., tau_N) under the same quadrature as
    eval_Fp, so finite differences of eval_Fp reproduce xi to roundoff. The
    power ratios are computed as exp((p-1)(log kappa_k - log tau_j)), which
    stays in (0, 1]. All xi_k are strictly positive (the (N+1-k)/p floor).
    """
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa <= 0):
        raise ValueError(f"kappa must be strictly positive, got {kappa}")
    n = spec.n
    taus = _tau_all(kappa, p)
    gG = _grad_Gp(spec, taus, p)
    logk = np.log(kappa)
    logt = np.log(taus)
    xi = np.empty(n)
    for k in range(n):
        ratios = np.exp((p - 1.0) * (logk[k] - logt[k:]))
        xi[k] = (n - k) / p + float(ratios @ gG[k:])
    return xi


def eval_penalty_E(d: GridDomain, pen: PenaltySpec, vol: float) -> float:
    """The anchoring penalty E(Omega) of the domain against pen.reference,
    with ``vol`` = :func:`~eigenshape.domain.volume` of ``d``.

    Vanishes (to quadrature accuracy) at Omega = reference, and is zero by
    convention while no reference is anchored. Complement integration is
    truncated to the grid box.
    """
    if not pen.active:
        return 0.0
    dist_ref, dist_comp, vol_ref = pen.fields
    if d.grid != pen.reference.grid:
        raise ValueError("domain and penalty reference live on different grids")
    chi_om = d.smooth_inside
    w = _node_weights(d.grid)
    term_in = float(np.sum(w * chi_om * dist_ref))
    term_out = float(np.sum(w * (1.0 - chi_om) * dist_comp))
    return pen.s * (term_in + term_out) + PenaltySpec.chi(vol_ref - vol)


def xi0_field(points: np.ndarray, pen: PenaltySpec, current_volume: float) -> np.ndarray:
    """The boundary weight xi0 at the rows of ``points`` (m, 2):

    xi0(x) = 1 + s min(dist(x, ref), 1) - s min(dist(x, ref^c), 1)
           - chi'(|ref| - |Omega_current|),

    the first variation of |Omega| + E (see :class:`PenaltySpec`) under a
    normal boundary motion, with ``current_volume`` = |Omega_current|.
    Identically 1 while the penalty is off; the flow's speed subtracts it
    (:func:`~eigenshape.optimizer.shape_velocity`).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not pen.active:
        return np.ones(points.shape[0])
    dist_ref, dist_comp, vol_ref = pen.fields
    grid = pen.reference.grid
    vals = (1.0 + pen.s * bilinear(grid, dist_ref, points)
            - pen.s * bilinear(grid, dist_comp, points))
    return vals - PenaltySpec.chi_prime(vol_ref - current_volume)
