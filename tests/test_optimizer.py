"""Velocity assembly, advection, line-searched stepping, and the outer flow.

Oracles: for a ball of radius R the ground-state boundary slope squared is
j01^2 / (pi R^4), so with unit weights the normal speed is positive for
R < (j01^2/pi)^(1/4), negative beyond it, and near zero at that radius —
where the flow from a ball should stop with F(lambda) + volume close to
2 * j01 * sqrt(pi).
"""

import math

import numpy as np
import pytest

import eigenshape.optimizer as optimizer_mod
from eigenshape import (
    Grid,
    GridDomain,
    ObjectiveSpec,
    OptimizerConfig,
    PenaltySpec,
    SpectralError,
    connected_components,
    disk,
    eval_Fp,
    extract_boundary,
    grad_Fp,
    shape_velocity,
    solve_spectrum,
    star_blob,
    step,
    volume,
)
from eigenshape.cli import write_trace_csv
from eigenshape.domain import bilinear
from eigenshape.optimizer import (
    _CFL,
    ScheduleError,
    advect,
    extend_velocity,
    make_state,
    optimize,
    p_continuation,
)

from conftest import smooth_g
from shapes import (
    BALL_OPTIMUM,
    J01,
    J11,
    R_STAR,
    TWO_BALL_OPTIMUM,
    dilate,
    disk_minimum,
    equal_pair_J,
    flagship_shape,
    half_plane,
    pair_minimum,
    roundness,
    unit_weight,
)


def base_config(**kw):
    defaults = dict(
        spec=ObjectiveSpec("linear", n=1, coeffs=(1,)),
        p=32.0,
        dt0=0.5,
        max_steps=40,
        conv_tol=1e-6,
        seed=0,
    )
    defaults.update(kw)
    return OptimizerConfig(**defaults)


@pytest.fixture(scope="module")
def grid129():
    return Grid.from_box(-2.0, -2.0, 2.0, 2.0, 129, 129)


@pytest.fixture(scope="module")
def grid97():
    return Grid.from_box(-2.0, -2.0, 2.0, 2.0, 97, 97)


# ---- velocity ---------------------------------------------------------


def test_velocity_zero_weights_is_pure_shrink(grid129):
    d = disk(grid129, (0.0, 0.0), 1.0)
    sp = solve_spectrum(d, 2)
    bm = extract_boundary(d)
    V, reliable = shape_velocity(d, sp, np.zeros(2), bm)
    assert np.all(V == -1.0)
    assert reliable.any()


@pytest.mark.parametrize("radius,sign", [(1.6, -1.0), (0.8, +1.0)])
def test_velocity_sign_off_optimum(grid129, radius, sign):
    d = disk(grid129, (0.0, 0.0), radius)
    sp = solve_spectrum(d, 2)
    bm = extract_boundary(d)
    V, reliable = shape_velocity(d, sp, np.array([1.0, 0.0]), bm)
    expected = J01**2 / (math.pi * radius**4) - 1.0
    assert np.all(sign * V[reliable] > 0.05)
    assert np.median(V[reliable]) == pytest.approx(expected, abs=0.08)


def test_velocity_vanishes_at_optimal_ball(grid129):
    d = disk(grid129, (0.0, 0.0), R_STAR)
    sp = solve_spectrum(d, 2)
    V, reliable = shape_velocity(d, sp, np.array([1.0, 0.0]), extract_boundary(d))
    assert np.median(np.abs(V[reliable])) <= 0.1


def test_velocity_generation_mismatch(grid129):
    d = disk(grid129, (0.0, 0.0), 1.0)
    sp = solve_spectrum(d, 1)
    moved = dilate(d, 1.1)
    with pytest.raises(ValueError, match="generation"):
        shape_velocity(moved, sp, np.ones(1), extract_boundary(moved))


def test_extend_velocity_band(grid129):
    d = disk(grid129, (0.0, 0.0), 1.0)
    bm = extract_boundary(d)
    V = np.full(len(bm), 2.0)
    reliable = np.zeros(len(bm), dtype=bool)
    reliable[::2] = True  # odd samples must inherit from even neighbors
    field = extend_velocity(d, bm, V, reliable)
    h = d.grid.h
    band = np.abs(d.phi) <= 6.0 * h
    assert np.all(field[band] == 2.0)
    assert np.all(field[~band] == 0.0)
    with pytest.raises(ValueError, match="reliable"):
        extend_velocity(d, bm, V, np.zeros(len(bm), dtype=bool))


def test_extend_velocity_matches_meshgrid_nearest_sample():
    # a blob past the box edges, distinct speeds, some unreliable samples
    from scipy.spatial import cKDTree

    grid = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 97, 97)
    d = star_blob(grid, (1.2, -1.1), 1.0, 0.2, 4, np.random.default_rng(2))
    bm = extract_boundary(d)
    rng = np.random.default_rng(3)
    V = rng.standard_normal(len(bm))
    reliable = rng.random(len(bm)) > 0.2
    field = extend_velocity(d, bm, V, reliable)
    ref_V = V.copy()
    _, j = cKDTree(bm.points[reliable]).query(bm.points[~reliable])
    ref_V[~reliable] = V[reliable][j]
    X, Y = grid.meshgrid()
    band = np.abs(d.phi) <= 6.0 * grid.h
    _, j = cKDTree(bm.points).query(np.column_stack([X[band], Y[band]]))
    ref = np.zeros_like(d.phi)
    ref[band] = ref_V[j]
    assert field.tobytes() == ref.tobytes()


# ---- the flow speed is the first variation of F_p ----------------------

FD_SPECS = {
    "single": ObjectiveSpec("linear", n=1, coeffs=(1,)),
    "linear": ObjectiveSpec("linear", n=3, coeffs=(1.0, 0.5, 0.25)),
    "softmin": ObjectiveSpec("softmin", n=3, beta=1.0),
}


@pytest.fixture(scope="module", params=["disk", "blob"])
def fd_spectra(request):
    """A 257^2 domain, its spectrum, and the spectra of phi -/+ eps g.

    eps = h/2 moves the interface by up to 0.75h: the discrete eigenvalues
    jump where a node changes sign (THETA_FLOOR clamps the sub-cell
    fraction), so only a difference across many such events follows the
    continuum derivative; within a smaller eps the clamped links make it
    about 4% smaller.
    """
    if request.param == "disk":  # off-centre: lambda_2 and lambda_3 form a cluster
        d = disk(Grid.from_box(-2.0, -2.0, 2.0, 2.0, 257, 257), (0.13, -0.07), 1.0)
    else:  # the initial shape of fk
        d = flagship_shape("fk")
    g = d.grid
    G = smooth_g(*g.meshgrid())
    eps = 0.5 * g.h
    spectra = [solve_spectrum(d.with_phi(d.phi + t * G), 4, seed=3) for t in (-eps, eps)]
    return d, eps, [solve_spectrum(d, 4, seed=3)] + spectra


@pytest.mark.parametrize("family", sorted(FD_SPECS))
def test_flow_speed_is_first_variation_of_Fp(fd_spectra, family):
    # central difference of F_p(lambda(Omega_t)) along phi -> phi - t g
    # against the flow's boundary integral -int sum_k xi_k (u_k)_nu^2 g/|grad phi|
    d, eps, (sp, sp_out, sp_in) = fd_spectra
    spec, p = FD_SPECS[family], 32.0
    n = spec.n
    fd = (eval_Fp(spec, sp_out.lambdas[:n], p) - eval_Fp(spec, sp_in.lambdas[:n], p)) / (2 * eps)
    xi = grad_Fp(spec, sp.lambdas[:n], p)
    bm = extract_boundary(d)
    V, reliable = shape_velocity(d, sp, xi, bm)
    assert reliable.all()
    speed = V + 1.0  # sum_k xi_k (u_k)_nu^2
    gy, gx = np.gradient(d.phi, d.grid.h)
    grad_norm = np.hypot(bilinear(d.grid, gx, bm.points), bilinear(d.grid, gy, bm.points))
    g = smooth_g(bm.points[:, 0], bm.points[:, 1])
    flow = -float(np.sum(bm.weights * speed * g / grad_norm))
    assert flow == pytest.approx(fd, rel=0.01)


@pytest.mark.parametrize("speed", [1.0, -1.0])
def test_advect_uniform_speed_on_planar_front(grid129, speed):
    # upwind advection translates a planar distance function exactly
    d = half_plane(grid129, normal=(1.0, 2.0), offset=0.1)
    h = grid129.h
    dt = 0.7 * h
    V = np.full_like(d.phi, speed)
    moved = advect(d.phi, V, dt, h)
    mask = np.zeros_like(d.phi, dtype=bool)
    mask[2:-2, 2:-2] = True
    assert np.max(np.abs(moved[mask] - (d.phi[mask] - speed * dt))) < 1e-12


def _reference_advect(phi, V, dt, h):
    """advect with its backward and forward differences taken from
    edge-replicated pads of phi, one array per side and axis."""
    pad_x = np.pad(phi, ((0, 0), (1, 1)), mode="edge")
    pad_y = np.pad(phi, ((1, 1), (0, 0)), mode="edge")
    dxm = (phi - pad_x[:, :-2]) / h
    dxp = (pad_x[:, 2:] - phi) / h
    dym = (phi - pad_y[:-2, :]) / h
    dyp = (pad_y[2:, :] - phi) / h
    grad_plus = np.sqrt(
        np.maximum(dxm, 0.0) ** 2 + np.minimum(dxp, 0.0) ** 2
        + np.maximum(dym, 0.0) ** 2 + np.minimum(dyp, 0.0) ** 2
    )
    grad_minus = np.sqrt(
        np.minimum(dxm, 0.0) ** 2 + np.maximum(dxp, 0.0) ** 2
        + np.minimum(dym, 0.0) ** 2 + np.maximum(dyp, 0.0) ** 2
    )
    return phi - dt * (np.maximum(V, 0.0) * grad_plus + np.minimum(V, 0.0) * grad_minus)


def _edge_disk():
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 65, 65)
    return disk(g, (0.8, -0.6), 0.7)


def _random_field():
    # local extrema everywhere: all four one-sided terms enter the sums
    g = Grid(nx=40, ny=33, h=0.1)
    return GridDomain(g, np.random.default_rng(3).standard_normal((33, 40)))


@pytest.mark.parametrize("make", [lambda: flagship_shape("fk"), _edge_disk, _random_field],
                         ids=["fk_blob", "crosses_box_edge", "random_field"])
@pytest.mark.parametrize("speed", ["mixed_smooth", "mixed_random", "one_sign"])
def test_advect_bitwise_matches_reference(make, speed):
    d = make()
    X, Y = d.grid.meshgrid()
    V = {
        "mixed_smooth": np.sin(3.0 * X) * np.cos(2.0 * Y),
        "mixed_random": np.random.default_rng(5).standard_normal(X.shape),
        "one_sign": np.where(np.abs(d.phi) < 0.2, 0.7, 0.0),
    }[speed]
    V[::7, ::5] = -0.0
    h = d.grid.h
    out = advect(d.phi, V, 0.4 * h, h)
    assert out.tobytes() == _reference_advect(d.phi, V, 0.4 * h, h).tobytes()


def test_advect_curved_front_first_order(grid129):
    # on a curved front the error is O(h): bounded well below the motion itself
    d = disk(grid129, (0.0, 0.0), 1.0)
    h = grid129.h
    dt = 0.7 * h
    moved = advect(d.phi, np.full_like(d.phi, -1.0), dt, h)
    X, Y = grid129.meshgrid()
    mask = np.zeros_like(d.phi, dtype=bool)
    mask[2:-2, 2:-2] = True
    mask &= np.hypot(X, Y) > 0.5  # stay away from the center kink
    err = np.abs(moved[mask] - (d.phi[mask] + dt))
    assert np.max(err) < 0.2 * dt


# ---- single step ------------------------------------------------------


def test_step_descends_from_oversized_ball(grid97):
    cfg = base_config()
    state = make_state(cfg, disk(grid97, (0.0, 0.0), 1.6))
    new, dt_used, stalled = step(state, cfg.dt0, state.objective)
    assert not stalled
    assert 0.0 < dt_used <= cfg.dt0
    assert new.objective < state.objective - 1e-3
    assert new.vol < state.vol  # the oversized ball shrinks
    h = grid97.h
    assert dt_used <= _CFL * h / 1e-14 + 1.0  # finite
    # CFL: the accepted step cannot outrun one cell per sweep
    assert dt_used * 1.0 <= cfg.dt0 + 1e-12


def test_step_stall_returns_input_state(grid97):
    cfg = base_config()
    state = make_state(cfg, disk(grid97, (0.0, 0.0), 1.6))
    # an absurdly low bar forces every halving to fail
    out, dt_used, stalled = step(state, cfg.dt0, 0.0)
    assert stalled
    assert dt_used == 0.0
    assert out is state


def _counting_solves(monkeypatch):
    """The list that every optimizer solve_spectrum call appends its domain to."""
    real_solve, domains = optimizer_mod.solve_spectrum, []

    def solve(d, *args, **kwargs):
        domains.append(d)
        return real_solve(d, *args, **kwargs)

    monkeypatch.setattr(optimizer_mod, "solve_spectrum", solve)
    return domains


def test_step_with_zero_speed_stalls_without_a_solve(grid97, monkeypatch):
    cfg = base_config()
    state = make_state(cfg, disk(grid97, (0.0, 0.0), 1.6))
    solves = _counting_solves(monkeypatch)
    monkeypatch.setattr(optimizer_mod, "extend_velocity",
                        lambda d, bm, V, reliable: np.zeros_like(d.phi))
    out, dt_used, stalled = step(state, cfg.dt0, state.objective)
    assert out is state and dt_used == 0.0 and stalled
    assert solves == []


def test_step_halves_dt_past_a_trial_too_small_to_solve(grid97, monkeypatch):
    # the first trial keeps no node inside, fewer than n_modes + 5: dt halves
    # without a solve, and the next trial is solved and accepted
    cfg = base_config()
    state = make_state(cfg, disk(grid97, (0.0, 0.0), 1.6))
    solves = _counting_solves(monkeypatch)
    real_advect, dts = optimizer_mod.advect, []

    def advect_emptying_first(phi, V, dt, h):
        dts.append(dt)
        return np.ones_like(phi) if len(dts) == 1 else real_advect(phi, V, dt, h)

    monkeypatch.setattr(optimizer_mod, "advect", advect_emptying_first)
    new, dt_used, stalled = step(state, cfg.dt0, state.objective)
    assert not stalled
    assert len(dts) == 2 and dts[1] == dts[0] / 2 and dt_used == dts[1]
    assert len(solves) == 1 and solves[0] is new.domain
    assert new.objective <= state.objective


def test_the_node_floor_has_one_owner(grid97, monkeypatch):
    # one spectral constant sets the floor of solve_spectrum and of step's
    # trials: raised past the grid's node count, the solver refuses the disk
    # and every trial of step is halved without a solve, so step stalls
    cfg = base_config()
    d = disk(grid97, (0.0, 0.0), 1.6)
    state = make_state(cfg, d)
    monkeypatch.setattr("eigenshape.spectral._SPARE_NODES", d.phi.size)
    with pytest.raises(ValueError, match=rf"eigenpairs \(need >= M\+{d.phi.size}\)$"):
        solve_spectrum(d, cfg.n_modes)
    solves = _counting_solves(monkeypatch)
    out, dt_used, stalled = step(state, cfg.dt0, state.objective)
    assert out is state and dt_used == 0.0 and stalled
    assert solves == []


# ---- outer flow -------------------------------------------------------


def test_optimize_empty_init_raises(grid97):
    cfg = base_config()
    d = disk(grid97, (0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="^domain has no active nodes$"):
        optimize(cfg, d.with_phi(np.abs(d.phi) + d.grid.h))


def test_optimize_config_validation():
    with pytest.raises(ValueError, match="dt0"):
        base_config(dt0=0.0)
    with pytest.raises(ValueError, match="conv_tol"):
        base_config(conv_tol=0.0)
    with pytest.raises(ValueError, match="max_steps"):
        base_config(max_steps=0)
    assert base_config().n_modes == 2  # spec.n + 1
    assert base_config(spec=ObjectiveSpec("linear", n=3, coeffs=(0, 0, 1))).n_modes == 4


@pytest.fixture(scope="module")
def ball_flow(grid97):
    cfg = base_config(max_steps=60, conv_tol=1e-6, dt0=0.3)
    return cfg, optimize(cfg, disk(grid97, (0.0, 0.0), 1.45))


def test_optimize_reaches_ball_optimum(ball_flow):
    cfg, trace = ball_flow
    assert trace.stop_reason in ("converged", "line_search_stall")
    assert trace.final.objective_F == pytest.approx(BALL_OPTIMUM, rel=0.02)


def test_optimize_trace_is_monotone(ball_flow):
    _, trace = ball_flow
    objs = [r.objective for r in trace.records]
    assert len(objs) >= 3
    assert np.all(np.diff(objs) <= 1e-10)
    assert all(r.volume > 0 for r in trace.records)
    assert all(len(r.lambdas) == 1 and r.lambdas[0] > 0 for r in trace.records)
    assert trace.records[0].step == 0 and trace.records[0].dt == 0.0
    assert all(r.E == 0.0 for r in trace.records)
    # the weight of a single tracked eigenvalue is 1 + 1/p
    assert trace.final.xi.sum() == pytest.approx(1.0 + 1.0 / 32.0, abs=1e-12)


def test_optimize_is_deterministic(grid97):
    cfg = base_config(max_steps=6)
    init = disk(grid97, (0.3, -0.2), 1.3)
    a = optimize(cfg, init)
    b = optimize(cfg, init)
    assert [r.objective for r in a.records] == [r.objective for r in b.records]
    assert [r.lambdas for r in a.records] == [r.lambdas for r in b.records]
    assert np.array_equal(a.final.domain.phi, b.final.domain.phi)


def test_optimize_abort_carries_partial_trace(grid97, monkeypatch):
    cfg = base_config(max_steps=20)
    real_solve = optimizer_mod.solve_spectrum
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 4:
            raise SpectralError("synthetic failure")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(optimizer_mod, "solve_spectrum", flaky)
    partial = optimize(cfg, disk(grid97, (0.0, 0.0), 1.5))
    assert partial.stop_reason == "aborted"
    assert partial.error.endswith("synthetic failure")
    assert len(partial.records) >= 1
    assert partial.final is not None
    assert math.isfinite(partial.final.objective_F)


def test_optimize_abort_after_a_reinit_ends_in_the_last_accepted_state(grid97, monkeypatch):
    # the sixth step is the first after a reinit; when it fails, the run ends
    # in the state the fifth step accepted, not in the reinitialized one
    real_step = optimizer_mod.step
    returned = []

    def step_failing_after_reinit(state, dt, bar):
        if len(returned) == 5:
            raise SpectralError("forced failure")
        returned.append(real_step(state, dt, bar))
        return returned[-1]

    monkeypatch.setattr(optimizer_mod, "step", step_failing_after_reinit)
    partial = optimize(base_config(max_steps=20), disk(grid97, (0.0, 0.0), 1.5))
    assert partial.stop_reason == "aborted"
    assert partial.error == "spectrum failed at step 6: forced failure"
    assert not any(stalled for _, _, stalled in returned)
    assert [r.step for r in partial.records] == [0, 1, 2, 3, 4, 5]
    assert partial.final is returned[-1][0]
    assert partial.records[-1].objective == partial.final.objective


def test_optimize_abort_at_init(grid97, monkeypatch):
    def broken(*args, **kwargs):
        raise SpectralError("no spectrum")

    monkeypatch.setattr(optimizer_mod, "solve_spectrum", broken)
    trace = optimize(base_config(), disk(grid97, (0.0, 0.0), 1.0))
    assert trace.records == [] and trace.final is None
    assert trace.stop_reason == "aborted"
    assert trace.error == "initial spectrum failed: no spectrum"


# ---- the degenerate case without the mirror ---------------------------


def test_unequal_disks_flow_to_the_unequal_pair_minimum():
    # F_p ignores lambda_1, so two unequal disks grow towards a near-degenerate
    # pair; with no mirror between them it is the best pair of disks, which at
    # p = 32 is unequal and lies below the two equal disks
    p = 32.0
    g = Grid(nx=121, ny=121, h=0.04, origin=(-2.4, -2.4))
    init = GridDomain(g, np.minimum(disk(g, (-1.1, 0.0), 0.85).phi,
                                    disk(g, (1.1, 0.0), 0.70).phi))
    cfg = OptimizerConfig(spec=ObjectiveSpec("linear", n=2, coeffs=(0, 1)), p=p, seed=11)
    final = optimize(cfg, init).final
    J_pair, radii = pair_minimum(p)
    gap_pair = (radii[1] / radii[0]) ** 2 - 1.0
    J_equal = equal_pair_J(p)
    lam = final.spectrum.lambdas
    gap = (lam[1] - lam[0]) / lam[0]
    assert connected_components(final.domain) == 2
    assert gap_pair / 2.0 <= gap <= 2.0 * gap_pair  # 1.53e-3 against 1.85e-3
    assert abs(final.objective - J_pair) <= 2e-4 * J_pair  # 8.1e-5 above it
    assert J_pair < J_equal  # by 6.4e-6 (relative)


def test_second_eigenvalue_from_one_disk_stays_connected_below_two_balls():
    # F = lambda_2 from one disk (lambda_2 = lambda_3 at the start): at p = 32
    # the flow ends as one dumbbell whose J lies below the two equal balls'
    # closed form, while its F + |Omega| stays above the two-ball optimum
    # 2 j01 sqrt(2 pi) that Krahn-Szego gives for lambda_2 + |Omega|
    p = 32.0
    g = Grid(nx=121, ny=121, h=0.04, origin=(-2.4, -2.4))
    cfg = OptimizerConfig(spec=ObjectiveSpec("linear", n=2, coeffs=(0, 1)), p=p, seed=11)
    final = optimize(cfg, disk(g, (0.013, -0.007), 1.25)).final
    J_equal = equal_pair_J(p)
    assert connected_components(final.domain) == 1
    assert final.objective <= 0.99 * J_equal  # 12.58733: 1.27% below 12.74969
    assert final.objective_F > TWO_BALL_OPTIMUM  # 12.09555 > 12.05601


# ---- the degenerate case at N = 3 and 4 -------------------------------


def _unit_weight_flow(n: int, grid: Grid):
    """The final state of the flow at p = 32 for F = lambda_n (``linear`` with
    the unit weight e_n) from the disk of radius 1.3 at (0.013, -0.007)."""
    return optimize(OptimizerConfig(spec=unit_weight(n), p=32.0, seed=11),
                    disk(grid, (0.013, -0.007), 1.3)).final


def test_third_eigenvalue_ends_as_one_disk_whose_top_pair_shares_the_weight():
    # F = lambda_3 ends as one round disk (roundness 1.0002) 1.8e-4 below the
    # disk J_p* 14.5981156 (grid error), and the double pair lambda_2 = lambda_3
    # shares the weight about equally (xi 0.560 and 0.556), as the degenerate
    # Euler-Lagrange equation needs; the same at seeds 3 and 29
    final = _unit_weight_flow(3, Grid.from_box(-2.4, -2.4, 2.4, 2.4, 121, 121))
    J_disk = disk_minimum(32.0, 3)
    assert connected_components(final.domain) == 1
    assert roundness(final.domain) >= 0.99
    assert abs(final.objective - J_disk) <= 5e-4 * J_disk
    # the least lambda_3 + |Omega| over disks, 2 j11 sqrt(pi): 13.61437 > 13.58304
    assert final.objective_F > 2.0 * J11 * math.sqrt(math.pi)
    assert abs(final.xi[1] - final.xi[2]) <= 0.05


def test_fourth_eigenvalue_stays_connected_below_the_best_disk_pair():
    # F = lambda_4 ends as one component (roundness 0.87) with J 1.82% below the
    # best pair of disks, 18.096766 (radii 0.9053 and 1.4346: the small disk's
    # lambda_1 meets the large disk's lambda_2), while F + |Omega| stays above
    # that pair's optimum 2 sqrt(pi (j01^2 + j11^2)); the same at seeds 3 and 29
    final = _unit_weight_flow(4, Grid.from_box(-3.2, -3.2, 3.2, 3.2, 161, 161))
    J_pair, _ = pair_minimum(32.0, n=4, start=(1.4, 0.9))
    assert connected_components(final.domain) == 1
    assert final.objective <= 0.99 * J_pair  # 17.76786
    assert final.objective_F > 2.0 * math.sqrt(math.pi * (J01**2 + J11**2))  # 16.26486 > 16.03661


# ---- p-continuation ---------------------------------------------------


def test_p_continuation_schedule_validation(grid97, monkeypatch):
    monkeypatch.setattr(optimizer_mod, "optimize", None)  # no stage may run
    cfg = base_config()
    with pytest.raises(ValueError, match="ascending"):
        p_continuation(cfg, disk(grid97, (0.0, 0.0), 1.0), [8.0, 8.0])
    for schedule, match in (([], "non-empty"), ([8.0, math.nan], "finite")):
        with pytest.raises(ScheduleError, match=match):
            p_continuation(cfg, disk(grid97, (0.0, 0.0), 1.0), schedule)


def test_one_stage_p_continuation_is_optimize(grid97):
    # the CLI runs optimize as the sweep whose schedule is [cfg.p]
    ref = disk(grid97, (0.1, 0.0), 1.2)
    cfg = base_config(max_steps=12, pen=PenaltySpec(s=0.02, reference=ref))
    init = star_blob(grid97, (0.0, 0.0), 1.0, 0.2, 5, np.random.default_rng(7))
    a = optimize(cfg, init)
    (b,) = p_continuation(cfg, init, [cfg.p])
    assert len(a.records) > 2 and a.records == b.records
    assert a.final.domain.phi.tobytes() == b.final.domain.phi.tobytes()
    assert a.final.spectrum.modes.tobytes() == b.final.spectrum.modes.tobytes()
    assert (a.stop_reason, a.final.objective_F) == (b.stop_reason, b.final.objective_F)


def test_p_continuation_abort_carries_every_stage(grid97, monkeypatch):
    real_step = optimizer_mod.step

    def step_failing_at_p16(state, dt, bar):
        if state.cfg.p == 16:
            raise SpectralError("forced failure")
        return real_step(state, dt, bar)

    monkeypatch.setattr(optimizer_mod, "step", step_failing_at_p16)
    # the stage p = 32 after the aborted one does not run
    first, last = p_continuation(base_config(max_steps=3), disk(grid97, (0.0, 0.0), 1.4),
                                 [8.0, 16.0, 32.0])
    assert first.stop_reason != "aborted" and first.final is not None
    assert first.error is None
    assert last.stop_reason == "aborted" and last.final is not None
    assert last.error == "spectrum failed at step 1: forced failure"


def test_p_continuation_stages(grid97):
    cfg = base_config(max_steps=8, conv_tol=1e-5, pen=PenaltySpec(s=0.02))
    traces = p_continuation(cfg, disk(grid97, (0.0, 0.0), 1.4), [8.0, 32.0])
    assert len(traces) == 2
    # per-stage weights reflect that stage's p exactly (single eigenvalue)
    first, second = (tr.final for tr in traces)
    assert first.xi[0] == pytest.approx(1.0 + 1.0 / 8.0, abs=1e-12)
    assert second.xi[0] == pytest.approx(1.0 + 1.0 / 32.0, abs=1e-12)
    # the second stage is anchored at the first stage's minimizer
    assert second.cfg.pen.reference is first.domain
    assert first.cfg.pen.reference is None
    # each stage starts from the previous minimizer, so stage objectives descend
    assert second.objective_F <= first.objective_F + 1e-6
    for tr in traces:
        objs = [r.objective for r in tr.records]
        assert np.all(np.diff(objs) <= 1e-10)


# ---- trace serialization ----------------------------------------------


def test_trace_csv_roundtrip(tmp_path, ball_flow):
    _, trace = ball_flow
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, n_lambdas=1)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,objective,volume,lambda1,E,dt"
    assert len(lines) == 1 + len(trace.records)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == trace.records[0].objective  # repr round-trips
    last = lines[-1].split(",")
    assert float(last[2]) == trace.records[-1].volume
