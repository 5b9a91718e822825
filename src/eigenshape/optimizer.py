"""Level-set gradient flow minimizing F_p(lambda(Omega)) + |Omega| + E(Omega).

Each step: solve the spectrum, weight the squared eigenfunction normal
derivatives by xi = grad F_p, subtract the boundary cost xi0, extend that
normal speed off the interface, advect phi upwind, and backtrack until the
true objective decreases. Reinitialization keeps phi close to a signed
distance. A p-continuation driver chains runs over an ascending p schedule,
anchoring each stage's penalty to the previous minimizer.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .domain import (
    BoundaryMesh,
    GridDomain,
    extract_boundary,
    reinitialize,
    volume,
)
from .objective import (
    ObjectiveSpec,
    PenaltySpec,
    eval_F,
    eval_Fp,
    eval_penalty_E,
    grad_Fp,
    symmetrized,
    xi0_field,
)
from . import spectral
from .spectral import SpectralError, Spectrum, normal_derivative, solve_spectrum

__all__ = [
    "OptimizerConfig",
    "TraceRecord",
    "OptimizerTrace",
    "FlowState",
    "ScheduleError",
    "shape_velocity",
    "extend_velocity",
    "advect",
    "make_state",
    "step",
    "optimize",
    "p_continuation",
]


#: half-width, in units of h, of the band that extend_velocity fills
_BAND_H = 6.0
#: largest advection step, as a fraction of h / max|V|
_CFL = 0.9
#: accepted steps between reinitializations of phi
_REINIT_EVERY = 5


class ScheduleError(ValueError):
    """A p schedule that :func:`p_continuation` cannot run."""


@dataclasses.dataclass(frozen=True, eq=False)
class OptimizerConfig:
    spec: ObjectiveSpec
    p: float = 32.0                   # smoothing exponent of F_p
    pen: PenaltySpec = dataclasses.field(default_factory=PenaltySpec)
    dt0: float = 0.5
    max_steps: int = 200
    conv_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and self.p >= 2):
            raise ValueError(f"p must be finite and >= 2, got {self.p}")
        if not self.dt0 > 0:
            raise ValueError(f"dt0 must be positive, got {self.dt0}")
        if not self.conv_tol > 0:
            raise ValueError(f"conv_tol must be positive, got {self.conv_tol}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    @property
    def n_modes(self) -> int:
        """Eigenpairs tracked: the n of F plus one above them."""
        return self.spec.n + 1


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    step: int
    objective: float            # F_p + |Omega| + E, the quantity that descends
    volume: float
    lambdas: tuple[float, ...]  # first n eigenvalues
    E: float
    dt: float


@dataclasses.dataclass(eq=False)
class OptimizerTrace:
    """Per-step records plus the state the run ended in."""

    records: list[TraceRecord] = dataclasses.field(default_factory=list)
    final: FlowState | None = None  # state of records[-1]; None if the first solve failed
    # why the run ended: "converged", "line_search_stall", "max_steps" or
    # "aborted" (eigensolver failure; the trace is partial)
    stop_reason: str | None = None
    error: str | None = None  # what failed, when stop_reason is "aborted"


# ---------------------------------------------------------------------------
# velocity
# ---------------------------------------------------------------------------

def shape_velocity(
    d: GridDomain,
    sp: Spectrum,
    xi: np.ndarray,
    bm: BoundaryMesh,
    xi0: float | np.ndarray = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """First-variation normal speed at the boundary samples.

    V(x) = sum_k xi_k (u_k)_nu^2 (x) - xi0(x), positive V expanding Omega.
    ``xi0`` is the paper's 1, the first variation of |Omega|, or the (m,)
    :func:`~eigenshape.objective.xi0_field` of an anchoring penalty.
    Near-degenerate modes enter with their cluster-averaged weights
    (:func:`~eigenshape.objective.symmetrized`), so the speed is invariant
    under basis rotations inside a cluster. Returns (V, reliable), both of
    shape (m,); unreliable samples inherit flags from the probe stencils.
    """
    if sp.generation != d.generation:
        raise ValueError(
            f"spectrum generation {sp.generation} does not match domain {d.generation}"
        )
    xis = symmetrized(xi, sp.lambdas)
    unu, reliable = normal_derivative(sp.modes[: len(xis)], bm, d)
    V = np.full(len(bm), -xi0)
    for k in range(len(xis)):
        V = V + xis[k] * unu[k] ** 2
    return V, reliable


def extend_velocity(
    d: GridDomain,
    bm: BoundaryMesh,
    V: np.ndarray,
    reliable: np.ndarray,
) -> np.ndarray:
    """Constant-along-normal extension of the boundary speed to grid nodes.

    Each node within ``_BAND_H * h`` of the interface (phi as distance proxy)
    takes the speed of its nearest boundary sample; unreliable samples are
    first overwritten from their nearest reliable neighbor. Nodes outside
    the band get zero.
    """
    from scipy.spatial import cKDTree  # imported here: solve and diagnose never load it

    if not reliable.any():
        raise ValueError("no reliable boundary samples to extend")
    if not reliable.all():
        V = V.copy()
        tree_ok = cKDTree(bm.points[reliable])
        _, j = tree_ok.query(bm.points[~reliable])
        V[~reliable] = V[reliable][j]
    h = d.grid.h
    band = np.abs(d.phi) <= _BAND_H * h
    out = np.zeros_like(d.phi)
    if band.any():
        jb, ib = np.nonzero(band)
        _, j = cKDTree(bm.points).query(np.column_stack([d.grid.xs[ib], d.grid.ys[jb]]))
        out[band] = V[j]
    return out


def advect(phi: np.ndarray, V: np.ndarray, dt: float, h: float) -> np.ndarray:
    """One upwind (Godunov) step of phi_t + V |grad phi| = 0.

    One forward difference per axis, zero across the box edges (replicated
    edge values); the backward difference at a node is the forward one of
    its predecessor.
    """
    ny, nx = phi.shape
    dx = np.zeros((ny, nx + 1))
    dx[:, 1:-1] = (phi[:, 1:] - phi[:, :-1]) / h
    dy = np.zeros((ny + 1, nx))
    dy[1:-1] = (phi[1:] - phi[:-1]) / h
    xp, xm = np.maximum(dx, 0.0) ** 2, np.minimum(dx, 0.0) ** 2
    yp, ym = np.maximum(dy, 0.0) ** 2, np.minimum(dy, 0.0) ** 2
    # backward differences are [:, :-1] / [:-1], forward ones [:, 1:] / [1:]
    grad_plus = np.sqrt(xp[:, :-1] + xm[:, 1:] + yp[:-1] + ym[1:])
    grad_minus = np.sqrt(xm[:, :-1] + xp[:, 1:] + ym[:-1] + yp[1:])
    return phi - dt * (np.maximum(V, 0.0) * grad_plus + np.minimum(V, 0.0) * grad_minus)


# ---------------------------------------------------------------------------
# state and stepping
# ---------------------------------------------------------------------------

@dataclasses.dataclass(eq=False)
class FlowState:
    cfg: OptimizerConfig
    domain: GridDomain
    spectrum: Spectrum
    xi: np.ndarray              # grad F_p at kappa, shape (n,)
    Fp: float
    vol: float
    E: float

    @property
    def objective(self) -> float:
        return self.Fp + self.vol + self.E

    @property
    def objective_F(self) -> float:
        """The unregularized F(lambda) + |Omega|."""
        return eval_F(self.cfg.spec, self.kappa) + self.vol

    @property
    def kappa(self) -> np.ndarray:
        return self.spectrum.lambdas[: self.cfg.spec.n]


def make_state(cfg: OptimizerConfig, d: GridDomain, warm: Spectrum | None = None) -> FlowState:
    """The spectrum, weights and objective pieces of a candidate domain ``d``."""
    sp = solve_spectrum(d, cfg.n_modes, seed=cfg.seed, warm=warm)
    kappa = sp.lambdas[: cfg.spec.n]
    vol = volume(d)
    E = eval_penalty_E(d, cfg.pen, vol)
    Fp = eval_Fp(cfg.spec, kappa, cfg.p)
    xi = grad_Fp(cfg.spec, kappa, cfg.p)
    return FlowState(cfg=cfg, domain=d, spectrum=sp, xi=xi, Fp=Fp, vol=vol, E=E)


def step(state: FlowState, dt: float, bar: float) -> tuple[FlowState, float, bool]:
    """One line-searched flow step from ``state``.

    Advects with the current velocity at step ``dt`` (CFL-capped), halving up
    to 8 times until a trial's objective is at most ``bar`` + 1e-10 (a trial
    too small to solve is halved unsolved). Returns (new_state, dt_used,
    stalled); on stall the input state is returned unchanged.
    """
    cfg = state.cfg
    d = state.domain
    h = d.grid.h
    bm = extract_boundary(d)
    xi0 = xi0_field(bm.points, cfg.pen, state.vol)
    V, reliable = shape_velocity(d, state.spectrum, state.xi, bm, xi0)
    Vg = extend_velocity(d, bm, V, reliable)
    vmax = float(np.max(np.abs(Vg)))
    if vmax < 1e-14:
        return state, 0.0, True
    dt_try = min(dt, _CFL * h / vmax)
    last_err: SpectralError | None = None
    for _ in range(9):  # initial dt plus 8 halvings
        trial = d.with_phi(advect(d.phi, Vg, dt_try, h))
        if int(trial.inside.sum()) < cfg.n_modes + spectral._SPARE_NODES:
            dt_try *= 0.5
            continue
        try:
            new = make_state(cfg, trial, warm=state.spectrum)
        except SpectralError as err:
            last_err = err
            dt_try *= 0.5
            continue
        if new.objective <= bar + 1e-10:
            return new, dt_try, False
        dt_try *= 0.5
    if last_err is not None:
        raise last_err
    return state, 0.0, True


def optimize(cfg: OptimizerConfig, init: GridDomain) -> OptimizerTrace:
    """Run the flow from ``init`` until convergence, stall, or max_steps.

    Convergence: relative objective decrease below conv_tol on two
    consecutive accepted steps; a line-search stall (no descent direction at
    this resolution) also counts. An eigensolver failure stops the run as
    "aborted", with its text in ``error``. Every stop ends the run in its last
    accepted state, the one of the last trace record.
    """
    trace = OptimizerTrace()
    d = reinitialize(init)
    try:
        state = make_state(cfg, d)
    except SpectralError as err:
        trace.stop_reason, trace.error = "aborted", f"initial spectrum failed: {err}"
        return trace

    def record(i: int, st: FlowState, dt: float) -> None:
        trace.records.append(TraceRecord(
            step=i,
            objective=st.objective,
            volume=st.vol,
            lambdas=tuple(float(v) for v in st.kappa),
            E=st.E,
            dt=dt,
        ))

    record(0, state, 0.0)
    accepted = state  # the state of the last record; the run ends in it
    dt = cfg.dt0
    small_steps = 0
    reason = "max_steps"
    for i in range(1, cfg.max_steps + 1):
        try:
            start = accepted
            if i > 1 and (i - 1) % _REINIT_EVERY == 0:
                where = "after reinit"
                start = make_state(cfg, reinitialize(accepted.domain), warm=accepted.spectrum)
            where = f"at step {i}"
            # a reinit that lowers J raises this bar (FOUND in CHANGES.md, ROADMAP item 2)
            state, dt_used, stalled = step(start, dt, min(accepted.objective, start.objective))
        except SpectralError as err:
            reason, trace.error = "aborted", f"spectrum failed {where}: {err}"
            break
        if stalled:
            reason = "line_search_stall"
            break
        record(i, state, dt_used)
        rel_dec = (accepted.objective - state.objective) / max(abs(accepted.objective), 1e-300)
        accepted = state
        if rel_dec < cfg.conv_tol:
            small_steps += 1
            if small_steps >= 2:
                reason = "converged"
                break
        else:
            small_steps = 0
        dt = min(cfg.dt0, 2.0 * dt_used)
    trace.final, trace.stop_reason = accepted, reason
    return trace


def p_continuation(
    cfg: OptimizerConfig,
    init: GridDomain,
    schedule: list[float],
) -> list[OptimizerTrace]:
    """Chain optimize() over an ascending p schedule.

    Each stage warm-starts from the previous minimizer and anchors its
    penalty reference there (the first stage keeps cfg.pen as given), so the
    schedule ``[cfg.p]`` is ``optimize(cfg, init)``. The whole schedule is
    checked before the first stage runs: an empty or not strictly ascending
    one, or a p that OptimizerConfig rejects, is a ScheduleError. Returns
    the trace of every stage that ran: an aborted stage is the last.
    """
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ScheduleError(f"p schedule must be non-empty and strictly ascending, "
                            f"got {schedule}")
    try:
        stages = [dataclasses.replace(cfg, p=float(p)) for p in schedule]
    except ValueError as err:
        raise ScheduleError(str(err)) from err
    traces: list[OptimizerTrace] = []
    d = init
    for stage in stages:
        if traces:  # anchored at the previous stage's minimizer, d
            stage = dataclasses.replace(stage, pen=PenaltySpec(s=cfg.pen.s, reference=d))
        traces.append(optimize(stage, d))
        if traces[-1].stop_reason == "aborted":
            break
        d = traces[-1].final.domain
    return traces
