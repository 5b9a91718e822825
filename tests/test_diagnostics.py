"""Boundary energies, optimality residuals, classification, and probes.

Oracles: half-plane data with a unit-slope ramp mode gives the scaled
boundary energy pi/2 at every radius; the torsion function of the unit
ball averages to (1 - |x|^2)/4 - r^2/8 over B_r(x); for a ball of radius
R the optimality residual is xi * j01^2/(pi R^4) - 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenshape import (
    BoundaryMesh,
    Grid,
    ObjectiveSpec,
    OptimizerConfig,
    PenaltySpec,
    Spectrum,
    classify_boundary,
    difference,
    disk,
    el_residual,
    extract_boundary,
    grad_Fp,
    kappa_clusters,
    make_state,
    rectangle,
    shape_velocity,
    simplicity_report,
    solve_spectrum,
    solve_torsion,
    star_blob,
    symmetrized,
    torsion_probe,
    weiss_profile,
    xi0_field,
)
from eigenshape import diagnostics
from eigenshape.cli import write_weiss_csv
from eigenshape.diagnostics import (
    _BATCH_NODES,
    _ball_means,
    _ball_windows,
    _mode_gradients,
    density_ratio,
)
from eigenshape.domain import _node_weights, bilinear, inside_fraction
from eigenshape.spectral import normal_derivative

from shapes import half_plane

J01 = 2.404825557695773
R_STAR = (J01**2 / math.pi) ** 0.25


@pytest.fixture(scope="module")
def grid129():
    return Grid.from_box(-2.0, -2.0, 2.0, 2.0, 129, 129)


def ramp_triple(grid, normal, offset):
    """Half-plane domain with its one-homogeneous blow-up as a single mode."""
    d = half_plane(grid, normal=normal, offset=offset)
    u = np.maximum(0.0, -d.phi)  # unit slope inside, zero outside
    sp = Spectrum(
        lambdas=np.array([1.0]), modes=u[None], resid=np.zeros(1),
        generation=d.generation,
    )
    return d, sp, np.array([1.0])


# ---- scaled boundary energy -------------------------------------------


@pytest.mark.parametrize(
    "normal,offset,center",
    [
        ((0.0, 1.0), 0.0, (0.0, 0.0)),
        ((1.0, 0.0), 0.17, (0.17, 0.3)),
        ((1.0, 1.0), 0.0, (0.0, 0.0)),
    ],
    ids=["axis", "offset", "diagonal"],
)
def test_weiss_half_plane_is_half_pi(grid129, normal, offset, center):
    d, sp, xi = ramp_triple(grid129, normal, offset)
    h = grid129.h
    for r in (8 * h, 0.15, 0.2):
        val = weiss_profile(d, sp, xi, [center], (r,))[0][0, 0]
        assert val == pytest.approx(math.pi / 2, rel=0.05)


def test_weiss_profile_drift_constant(grid129):
    d, sp, xi = ramp_triple(grid129, (0.0, 1.0), 0.0)
    h = grid129.h
    # start at 8h: below that the indicator smoothing inflates W slightly,
    # which would read as spurious downward drift
    W, c_hat = weiss_profile(d, sp, xi, [(0.0, 0.0)], np.linspace(8 * h, 0.45, 6))
    assert c_hat.shape == (1,) and c_hat[0] <= 0.05
    assert W.shape == (1, 6)
    W1, c_hat1 = weiss_profile(d, sp, xi, [(0.0, 0.0)], (8 * h,))
    assert W1.shape == (1, 1) and c_hat1[0] == 0.0


def test_weiss_zero_mode_measures_occupied_area(grid129):
    # with no mode energy, W reduces to the scaled occupied area
    d = half_plane(grid129, normal=(0.0, 1.0), offset=0.0)
    sp = Spectrum(
        lambdas=np.array([1.0]), modes=np.zeros((1, *d.phi.shape)),
        resid=np.zeros(1), generation=d.generation,
    )
    W, _ = weiss_profile(d, sp, np.ones(1), [(0.0, 0.0), (0.0, -1.0), (0.0, 1.0)], (0.2,))
    assert W[0, 0] == pytest.approx(math.pi / 2, rel=0.03)
    assert W[1, 0] == pytest.approx(math.pi, rel=0.03)
    assert W[2, 0] == pytest.approx(0.0, abs=1e-12)


def test_weiss_validation(grid129):
    d, sp, xi = ramp_triple(grid129, (0.0, 1.0), 0.0)
    h = grid129.h
    with pytest.raises(ValueError, match="4h"):
        weiss_profile(d, sp, xi, [(0.0, 0.0)], (3 * h,))
    with pytest.raises(ValueError, match="ascending"):
        weiss_profile(d, sp, xi, [(0.0, 0.0)], (0.2, 0.1))


def test_weiss_csv_golden(tmp_path, grid129):
    d, sp, xi = ramp_triple(grid129, (0.0, 1.0), 0.0)
    h = grid129.h
    centres, radii = np.zeros((1, 2)), (8 * h, 0.3)
    W, _ = weiss_profile(d, sp, xi, centres, radii)
    path = tmp_path / "weiss.csv"
    write_weiss_csv(centres, radii, W, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,r,W"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert (float(cells[0]), float(cells[1])) == (0.0, 0.0)
    assert float(cells[2]) == radii[0]
    assert float(cells[3]) == W[0, 0]  # repr round-trips


def _reference_weiss_energy(d, sp, xi, x, r):
    """W(x, r) of weiss_profile for one centre, written with slices: mode
    gradients, node coordinates and quadrature weights on the whole grid, then
    cut to the ball window."""
    g, h = d.grid, d.grid.h
    xis = symmetrized(xi, sp.lambdas)
    grads = _mode_gradients(sp.modes, d.inside, h)
    pad = r + 2.0 * h
    i0 = max(0, int(math.floor((x[0] - pad - g.origin[0]) / h)))
    i1 = min(g.nx, int(math.ceil((x[0] + pad - g.origin[0]) / h)) + 1)
    j0 = max(0, int(math.floor((x[1] - pad - g.origin[1]) / h)))
    j1 = min(g.ny, int(math.ceil((x[1] + pad - g.origin[1]) / h)) + 1)
    rows, cols = slice(j0, j1), slice(i0, i1)
    X, Y = g.meshgrid()
    Xw, Yw = X[rows, cols], Y[rows, cols]
    ball = inside_fraction(np.hypot(Xw - x[0], Yw - x[1]) - r, h)
    chi = inside_fraction(d.phi[rows, cols], 1.5 * h)
    integ = np.ones(Xw.shape)
    for k in range(len(xis)):
        gk = grads[k][:, rows, cols]
        integ = integ + xis[k] * (gk[0] ** 2 + gk[1] ** 2)
    wts = _node_weights(g)[rows, cols]
    vol_term = float(np.sum(wts * ball * chi * integ)) / r**2
    nsamp = max(64, int(4.0 * math.pi * r / h))
    theta = (np.arange(nsamp) + 0.5) * (2.0 * math.pi / nsamp)
    ring_pts = np.column_stack([x[0] + r * np.cos(theta), x[1] + r * np.sin(theta)])
    ring_vals = np.zeros(nsamp)
    for k in range(len(xis)):
        ring_vals += xis[k] * bilinear(g, sp.modes[k], ring_pts) ** 2
    return vol_term - (2.0 * math.pi * r / nsamp) * float(ring_vals.sum()) / r**3


@pytest.fixture(scope="module")
def edge_disk(grid129):
    """A disk crossing the right and bottom box edges, its modes nonzero there."""
    d = disk(grid129, (1.4, -1.4), 0.9)
    sp = solve_spectrum(d, 3)
    xi = grad_Fp(ObjectiveSpec("linear", n=2, coeffs=(0, 1)), sp.lambdas[:2], 32.0)
    return d, sp, xi


def test_weiss_window_matches_full_grid_bits(edge_disk):
    d, sp, xi = edge_disk
    g, h = d.grid, d.grid.h
    bm = extract_boundary(d)
    interior = tuple(bm.points[np.argmin(bm.points[:, 0])])  # (0.5, -1.4)
    corner = (1.97, -1.97)
    (_, rows, cols, _), = _ball_windows(g, np.array([corner]), 12 * h)
    assert rows[0, 0] == 0 and cols[0, -1] == g.nx - 1  # clipped by two box edges
    for x in (interior, corner):
        for r in (4 * h, 6 * h, 12 * h, 0.4):
            got = weiss_profile(d, sp, xi, [x], (r,))[0][0, 0]
            assert got.hex() == _reference_weiss_energy(d, sp, xi, x, r).hex()


def test_weiss_batch_matches_reference_bits(edge_disk):
    d, sp, xi = edge_disk
    g, h = d.grid, d.grid.h
    centres = np.vstack([
        extract_boundary(d).points,
        np.column_stack([np.linspace(-1.0, 1.2, 200), np.linspace(-0.5, 0.7, 200)]),
        [(1.97, -1.97), (2.0, -2.0), (-2.0, 2.0), (9.0, 9.0), (1.99, 2.6)],
    ])
    for r in (4 * h, 12 * h, 0.6):
        batches = [(rows.shape[1], cols.shape[1])
                   for _, rows, cols, _ in _ball_windows(g, centres, r)]
        assert len(set(batches)) > 3  # clipped, empty and interior windows
        if r == 0.6:  # a shape group and the ring samples span several batches
            assert len(batches) > len(set(batches))
            assert len(centres) * int(4.0 * math.pi * r / h) > _BATCH_NODES
        got, _ = weiss_profile(d, sp, xi, centres, (r,))
        assert got.shape == (len(centres), 1)
        got = got[:, 0]
        for x, value in zip(centres, got):
            assert value.hex() == _reference_weiss_energy(d, sp, xi, x, r).hex()
    one, _ = weiss_profile(d, sp, xi, centres[:1], (12 * h,))  # a one-row stack
    assert one.shape == (1, 1) and one[0, 0].hex() == _reference_weiss_energy(
        d, sp, xi, centres[0], 12 * h).hex()


def test_weiss_profile_batch_matches_single_centres(edge_disk):
    d, sp, xi = edge_disk
    h = d.grid.h
    centres = extract_boundary(d).points[::7]
    radii = (4 * h, 6 * h, 8 * h, 12 * h)
    W, c_hats = weiss_profile(d, sp, xi, centres, radii)
    assert W.shape == (len(centres), len(radii)) and c_hats.shape == (len(centres),)
    for x, row, got_c_hat in zip(centres, W.tolist(), c_hats.tolist()):
        values = [_reference_weiss_energy(d, sp, xi, x, r) for r in radii]
        c_hat = 0.0
        for (ra, wa), (rb, wb) in zip(zip(radii, values), zip(radii[1:], values[1:])):
            c_hat = max(c_hat, (wa - wb) / (rb - ra))
        assert [v.hex() for v in row] == [v.hex() for v in values]
        assert got_c_hat.hex() == c_hat.hex()
        W1, c_hat1 = weiss_profile(d, sp, xi, x[None], radii)
        assert W1[0].tolist() == row and c_hat1.tolist() == [got_c_hat]


# ---- optimality residual ----------------------------------------------


@pytest.fixture(scope="module")
def opt_ball(grid129):
    d = disk(grid129, (0.0, 0.0), R_STAR)
    sp = solve_spectrum(d, 2)
    xi = grad_Fp(ObjectiveSpec("linear", n=1, coeffs=(1,)), sp.lambdas[:1], 32.0)
    return d, sp, xi


def test_el_residual_small_at_optimal_ball(opt_ball):
    d, sp, xi = opt_ball
    res = el_residual(d, sp, xi, extract_boundary(d))
    assert res.median_abs <= 0.1
    assert abs(res.median) <= 0.1
    assert res.p90_abs <= 0.3
    assert len(res.points) == len(res.values) > 100


def test_el_residual_signed_shrink_signal(grid129):
    big = disk(grid129, (0.0, 0.0), 1.3 * R_STAR)
    sp = solve_spectrum(big, 2)
    xi = grad_Fp(ObjectiveSpec("linear", n=1, coeffs=(1,)), sp.lambdas[:1], 32.0)
    res = el_residual(big, sp, xi, extract_boundary(big))
    expected = (1 + 1 / 32) * J01**2 / (math.pi * (1.3 * R_STAR) ** 4) - 1.0
    assert res.median < -0.2
    assert res.median == pytest.approx(expected, abs=0.1)


def test_el_residual_blind_to_mode_signs(opt_ball):
    d, sp, xi = opt_ball
    flipped = Spectrum(
        lambdas=sp.lambdas, modes=-sp.modes, resid=sp.resid,
        generation=sp.generation,
    )
    bm = extract_boundary(d)
    a = el_residual(d, sp, xi, bm)
    b = el_residual(d, flipped, xi, bm)
    assert np.array_equal(a.values, b.values)


@pytest.fixture(scope="module")
def two_disk_cluster(grid129):
    """Two congruent disks: lambda_1 = lambda_2, three modes, two weights."""
    left = disk(grid129, (-0.9, 0.0), 0.7)
    d = left.with_phi(np.minimum(left.phi, left.phi[:, ::-1]))
    sp = solve_spectrum(d, 3)
    xi = grad_Fp(ObjectiveSpec("linear", n=2, coeffs=(0, 1)), sp.lambdas[:2], 32.0)
    assert kappa_clusters(sp.lambdas[:2])[0] == (0, 1)
    return d, sp, xi


@pytest.mark.parametrize("triple", ["opt_ball", "two_disk_cluster"])
def test_el_residual_is_the_flow_speed_bits(request, triple):
    d, sp, xi = request.getfixturevalue(triple)
    bm = extract_boundary(d)
    V, reliable = shape_velocity(d, sp, xi, bm)
    res = el_residual(d, sp, xi, bm)
    assert res.values.tobytes() == V[reliable].tobytes()
    assert res.points.tobytes() == bm.points[reliable].tobytes()
    # the stacked normal derivative gives each mode the bits it has alone
    values, stack_reliable = normal_derivative(sp.modes, bm, d)
    for k in range(len(sp)):
        one, one_reliable = normal_derivative(sp.modes[k], bm, d)
        assert values[k].tobytes() == one.tobytes()
        assert np.array_equal(stack_reliable, one_reliable)


def test_flow_speed_is_blind_to_a_rotation_inside_a_cluster(two_disk_cluster):
    # the raw weights of the equal pair differ, so only their cluster average
    # makes the speed a function of the pair's invariant subspace
    d, sp, xi = two_disk_cluster
    assert xi[0] - xi[1] > 0.02
    c, s = math.cos(0.5), math.sin(0.5)
    u1, u2 = sp.modes[0], sp.modes[1]
    rotated = Spectrum(lambdas=sp.lambdas, modes=np.stack([c * u1 + s * u2, c * u2 - s * u1,
                                                           sp.modes[2]]),
                       resid=sp.resid, generation=sp.generation)
    bm = extract_boundary(d)
    V, reliable = shape_velocity(d, sp, xi, bm)
    V_rot, reliable_rot = shape_velocity(d, rotated, xi, bm)
    assert np.array_equal(reliable, reliable_rot) and reliable.sum() > 100
    assert np.abs(V_rot - V)[reliable].max() <= 1e-12


def test_el_residual_measures_the_paper_equation_on_an_anchored_state(grid129):
    # a disk anchored to a shifted disk: the flow subtracts the penalty's xi0
    # field, the residual the paper's 1
    pen = PenaltySpec(s=0.05, reference=disk(grid129, (0.3, 0.1), 1.0))
    cfg = OptimizerConfig(spec=ObjectiveSpec("linear", n=1, coeffs=(1,)), pen=pen)
    st = make_state(cfg, disk(grid129, (0.0, 0.0), R_STAR))
    d, sp, xi = st.domain, st.spectrum, st.xi
    bm = extract_boundary(d)
    V1, reliable = shape_velocity(d, sp, xi, bm)
    res = el_residual(d, sp, xi, bm)
    assert res.values.tobytes() == V1[reliable].tobytes()
    unu, _ = normal_derivative(sp.modes[:1], bm, d)
    assert res.values.tobytes() == (xi[0] * unu[0] ** 2 - 1.0)[reliable].tobytes()
    xi0 = xi0_field(bm.points, pen, st.vol)
    V, _ = shape_velocity(d, sp, xi, bm, xi0)
    assert np.abs((V - V1) - (1.0 - xi0)).max() <= 1e-14
    assert np.abs(1.0 - xi0[reliable]).min() > 0.0


def test_el_residual_all_unreliable_raises(opt_ball):
    d, sp, xi = opt_ball
    outside = BoundaryMesh(
        points=np.array([[1.9, 1.9]]),
        normals=np.array([[1.0, 0.0]]),
        weights=np.array([1.0]),
    )
    with pytest.raises(ValueError, match="reliable"):
        el_residual(d, sp, xi, outside)


# ---- density classification -------------------------------------------


def test_density_ratio_interior_edge_exterior(grid129):
    d = disk(grid129, (0.0, 0.0), 1.0)
    h = grid129.h
    assert density_ratio(d, [(0.0, 0.0)], 0.4)[0] == pytest.approx(1.0, abs=1e-12)
    assert density_ratio(d, [(1.8, 1.8)], 0.2)[0] == pytest.approx(0.0, abs=1e-12)
    hp = half_plane(grid129, (0.0, 1.0), 0.0)
    assert density_ratio(hp, [(0.0, 0.0)], 0.5)[0] == pytest.approx(0.5, abs=0.02)
    with pytest.raises(ValueError):
        density_ratio(d, [(0.0, 0.0)], 1.5 * h)


@settings(max_examples=40, deadline=None)
@given(
    cx=st.floats(-1.5, 1.5),
    cy=st.floats(-1.5, 1.5),
    r=st.floats(0.13, 1.0),
)
def test_density_ratio_bounded(cx, cy, r):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 65, 65)
    d = disk(g, (0.3, 0.0), 0.9)
    rho = density_ratio(d, [(cx, cy)], r)[0]
    assert 0.0 <= rho <= 1.0


def _reference_density_ratio(d, x, r):
    """density_ratio for one centre with its own window, as it was written
    before the centres were batched."""
    g, h = d.grid, d.grid.h
    if r < 2 * h:
        raise ValueError(f"radius {r} below resolvable 2h = {2 * h}")
    pad = r + 2.0 * h
    i0 = max(0, int(math.floor((x[0] - pad - g.origin[0]) / h)))
    i1 = min(g.nx, int(math.ceil((x[0] + pad - g.origin[0]) / h)) + 1)
    j0 = max(0, int(math.floor((x[1] - pad - g.origin[1]) / h)))
    j1 = min(g.ny, int(math.ceil((x[1] + pad - g.origin[1]) / h)) + 1)
    rows, cols = slice(j0, max(j0, j1)), slice(i0, max(i0, i1))
    ball_w = inside_fraction(np.hypot(g.xs[cols] - x[0], g.ys[rows, None] - x[1]) - r, h)
    den = float(ball_w.sum())
    if den <= 0.0:
        return 0.0
    om = inside_fraction(d.phi[rows, cols], 1.5 * h)
    return float(np.sum(ball_w * om) / den)


@pytest.fixture(scope="module")
def edge_blob(grid129):
    """A blob crossing the right and bottom box edges, plus its boundary
    samples, box corners, centres whose windows are empty or clipped, and
    a line of interior centres."""
    d = star_blob(grid129, (1.5, -1.5), 0.9, 0.2, 4, np.random.default_rng(4))
    centres = np.vstack([
        extract_boundary(d).points,
        np.column_stack([np.linspace(-1.0, 1.2, 200), np.linspace(-0.5, 0.7, 200)]),
        [(1.97, -1.97), (2.0, -2.0), (-2.0, 2.0), (0.0, 0.0),
         (9.0, 9.0), (-9.0, 0.0), (1.99, 2.6)],
    ])
    return d, centres


@pytest.mark.parametrize("r_h", [2, 4, 12, 20])
def test_density_ratio_batch_matches_reference_bits(grid129, edge_blob, r_h):
    d, centres = edge_blob
    r = r_h * grid129.h
    batches = [(rows.shape[1], cols.shape[1])
               for _, rows, cols, _ in _ball_windows(grid129, centres, r)]
    assert len(set(batches)) > 3  # clipped, empty and interior windows
    if r_h == 20:  # a shape group larger than one batch
        assert len(batches) > len(set(batches))
    got = density_ratio(d, centres, r)
    assert got.shape == (len(centres),)
    for x, value in zip(centres, got):
        ref = _reference_density_ratio(d, x, r)
        assert value.hex() == ref.hex()
        assert density_ratio(d, x[None], r)[0].hex() == ref.hex()  # a one-row stack
    assert density_ratio(d, np.zeros((0, 2)), r).shape == (0,)


def probe_radii(grid):
    h = grid.h
    return (4 * h, 6 * h, 8 * h, 12 * h)


def point_mesh(points, normals=None):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if normals is None:
        normals = np.tile([1.0, 0.0], (len(pts), 1))
    return BoundaryMesh(
        points=pts, normals=np.asarray(normals, dtype=float),
        weights=np.ones(len(pts)),
    )


def test_classify_ball_boundary_reduced(grid129):
    d = disk(grid129, (0.0, 0.0), 1.0)
    label, density, _ = classify_boundary(d, extract_boundary(d), probe_radii(grid129))
    frac = np.mean(label == "REDUCED")
    assert frac >= 0.99
    assert 0.4 <= density.min() and density.max() <= 0.6


def test_classify_convex_corner_singular(grid129):
    sq = rectangle(grid129, -1.0, -1.0, 1.0, 1.0)
    s = math.sqrt(0.5)
    label, density, _ = classify_boundary(d=sq, bm=point_mesh([(1.0, 1.0)], [(s, s)]),
                                          radii=probe_radii(grid129))
    assert label.tolist() == ["SINGULAR_CANDIDATE"]
    assert density[0] < 0.35  # quarter-plane occupancy


def test_classify_reentrant_corner(grid129):
    lshape = difference(
        rectangle(grid129, -1.0, -1.0, 1.0, 1.0),
        rectangle(grid129, 0.0, 0.0, 1.2, 1.2),
    )
    label, density, _ = classify_boundary(lshape, point_mesh([(0.0, 0.0)]),
                                          probe_radii(grid129))
    assert density[0] == pytest.approx(0.75, abs=0.08)
    assert label.tolist() == ["SINGULAR_CANDIDATE"]


def test_classify_interior_point_cusp_branch(grid129):
    d = disk(grid129, (0.0, 0.0), 1.0)
    label, density, trend = classify_boundary(d, point_mesh([(0.0, 0.0)]),
                                              probe_radii(grid129))
    assert density[0] == pytest.approx(1.0, abs=1e-6)
    assert abs(trend[0]) < 1e-6
    assert label.tolist() == ["CUSP_CANDIDATE"]


def test_classify_slit_not_reduced(grid129):
    h = grid129.h
    slit = difference(
        disk(grid129, (0.0, 0.0), 1.0),
        rectangle(grid129, 0.0, -0.5 * h, 1.1, 0.5 * h),
    )
    label, density, _ = classify_boundary(slit, point_mesh([(0.5, 0.0)]),
                                          probe_radii(grid129))
    assert label.shape == (1,) and label[0] != "REDUCED"
    assert density[0] > 0.65


def _reference_classify_boundary(d, points, radii):
    """classify_boundary as a loop over points, as it was written before
    the density probes were batched."""
    labels = []
    for pt in points:
        rho = np.array([_reference_density_ratio(d, pt, r) for r in radii])
        rho0 = float(rho[0])
        trend = rho0 - float(rho[-1])
        if 0.35 <= rho0 <= 0.65 and float(rho.max() - rho.min()) <= 0.15:
            cls = "REDUCED"
        elif rho0 >= 0.9 and trend >= -0.02:
            cls = "CUSP_CANDIDATE"
        else:
            cls = "SINGULAR_CANDIDATE"
        labels.append((cls, rho0.hex(), trend.hex()))
    return labels


def test_classify_matches_per_point_loop(grid129, edge_disk):
    slit = difference(
        disk(grid129, (0.0, 0.0), 1.0),
        rectangle(grid129, 0.0, -0.5 * grid129.h, 1.1, 0.5 * grid129.h),
    )
    extra = [(0.0, 0.0), (-0.5, 0.0), (1.4, -1.4), (1.97, -1.97), (9.0, 9.0)]
    for d in (edge_disk[0], slit):
        pts = np.vstack([extract_boundary(d).points, extra])
        label, density, trend = classify_boundary(d, point_mesh(pts), probe_radii(grid129))
        got = [(lab, dens.hex(), tr.hex())
               for lab, dens, tr in zip(label.tolist(), density.tolist(), trend.tolist())]
        assert got == _reference_classify_boundary(d, pts, probe_radii(grid129))
        assert set(label.tolist()) == {"REDUCED", "SINGULAR_CANDIDATE", "CUSP_CANDIDATE"}


def test_classify_builds_the_domain_indicator_once(grid129, monkeypatch):
    # the smoothed indicator of the whole grid, GridDomain.smooth_inside, is
    # taken once per call, not once per radius; the ball windows take theirs
    # on window stacks, through the diagnostics module's own name
    d = disk(grid129, (0.2, -0.1), 0.9)
    bm = extract_boundary(d)
    radii = probe_radii(grid129)
    want = classify_boundary(d, bm, radii)
    whole = []

    def counting(phi, eps):
        if np.shape(phi) == d.phi.shape:
            whole.append(eps)
        return inside_fraction(phi, eps)

    monkeypatch.setattr("eigenshape.domain.inside_fraction", counting)
    got = classify_boundary(d, bm, radii)
    assert whole == [1.5 * grid129.h]
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_classify_validation(grid129):
    d = disk(grid129, (0.0, 0.0), 1.0)
    bm = point_mesh([(1.0, 0.0)])
    h = grid129.h
    with pytest.raises(ValueError, match="ascending"):
        classify_boundary(d, bm, (8 * h, 4 * h))
    with pytest.raises(ValueError, match="4h"):
        classify_boundary(d, bm, (3 * h, 8 * h))


def test_probe_radii_rule():
    h = 0.125
    assert diagnostics.probe_radii([0.5, 1], h) == (0.5, 1.0)
    assert diagnostics.probe_radii(np.array([4 * h - 1e-13]), h) == (4 * h - 1e-13,)
    for radii, match in [((), "one or more"), ((0.5, math.inf), "finite"),
                         ((0.75, 0.5), "ascending"), ((0.5, 0.5), "ascending"),
                         ((0.25, 0.5), "4h")]:
        with pytest.raises(ValueError, match=match):
            diagnostics.probe_radii(radii, h)


# ---- torsion nondegeneracy probe --------------------------------------


@pytest.fixture(scope="module")
def ball_torsion(grid129):
    d = disk(grid129, (0.0, 0.0), 1.0)
    return d, solve_torsion(d)


def test_torsion_ball_mean_oracle(ball_torsion):
    d, tv = ball_torsion
    for x, r in [((0.0, 0.0), 0.3), ((0.3, 0.2), 0.2), ((0.6, 0.0), 0.25)]:
        mean, = _ball_means(d.grid, tv, [x], r)
        exact = (1.0 - (x[0] ** 2 + x[1] ** 2)) / 4.0 - r**2 / 8.0
        assert mean == pytest.approx(exact, rel=0.02)


def test_torsion_probe_ok_on_ball(ball_torsion):
    d, tv = ball_torsion
    h = d.grid.h
    s = math.sqrt(0.5)
    for pt in [(1.0, 0.0), (0.0, 1.0), (s, s), (-1.0, 0.0), (0.0, 0.0)]:
        for r in (4 * h, 8 * h):
            assert torsion_probe(d, tv, [pt], r).tolist() == [False]


def test_torsion_probe_violation_on_flat_field(ball_torsion):
    d, _ = ball_torsion
    flat = np.where(d.inside, 1e-6, 0.0)
    assert torsion_probe(d, flat, [(0.0, 0.0)], 0.3).tolist() == [True]


def test_torsion_probe_vacuous_ok(ball_torsion):
    d, _ = ball_torsion
    zero = np.zeros_like(d.phi)
    assert torsion_probe(d, zero, [(0.0, 0.0)], 0.3).tolist() == [False]
    assert torsion_probe(d, zero, [(1.8, 1.8)], 0.3).tolist() == [False]


def test_torsion_probe_validation(ball_torsion):
    d, tv = ball_torsion
    with pytest.raises(ValueError, match="4h"):
        torsion_probe(d, tv, [(0.0, 0.0)], 3 * d.grid.h)
    with pytest.raises(ValueError, match="4h"):
        torsion_probe(d, tv, np.zeros((3, 2)), 3 * d.grid.h)


def _reference_ball_mean(d, field, x, r):
    """_ball_mean one centre at a time, as the torsion probe measured it."""
    centre = np.asarray(x, dtype=float).reshape(1, 2)
    (_, rows, cols, wts), = _ball_windows(d.grid, centre, r)
    wts = wts[0]
    total = float(wts.sum())
    if total <= 0.0:
        return 0.0, 0.0
    f = field[rows[0, :, None], cols[0]]
    return float((wts * f).sum() / total), float(np.abs(f[wts > 0]).max())


def _reference_torsion_probe(d, v, x, r, c0=0.06, vtol=1e-8):
    """Whether the probe at one centre ``x`` is a violation."""
    mean_r, _ = _reference_ball_mean(d, v, x, r)
    if mean_r > c0 * r:
        return False
    _, inner_max = _reference_ball_mean(d, v, x, max(r / 4.0, 1.5 * d.grid.h))
    return inner_max > vtol


def test_torsion_probe_batch_matches_single_centres(edge_disk):
    d = edge_disk[0]
    h = d.grid.h
    tv = solve_torsion(d)
    flat = np.where(d.inside, 1e-6, 0.0)
    centres = np.vstack([
        extract_boundary(d).points,
        np.column_stack([np.linspace(0.3, 2.0, 60), np.linspace(-2.0, -0.3, 60)]),
        [(1.97, -1.97), (2.0, -2.0), (-2.0, 2.0), (9.0, 9.0), (1.99, 2.6)],
    ])
    seen = set()
    for field in (tv, flat):
        for r in (4 * h, 12 * h, 0.6):
            means = _ball_means(d.grid, field, centres, r)
            violations = torsion_probe(d, field, centres, r)
            assert violations.dtype == bool and violations.shape == (len(centres),)
            for x, mean, bad in zip(centres, means, violations.tolist()):
                ref_mean, _ = _reference_ball_mean(d, field, x, r)
                assert mean.hex() == ref_mean.hex()
                assert bad is _reference_torsion_probe(d, field, x, r)
                seen.add(bad)
    assert seen == {False, True}
    one = torsion_probe(d, flat, centres[:1], 4 * h)  # a one-row stack
    assert one.tolist() == [_reference_torsion_probe(d, flat, centres[0], 4 * h)]


# ---- cluster structure --------------------------------------------------


@pytest.fixture(scope="module")
def disk_sp(grid129):
    return solve_spectrum(disk(grid129, (0.0, 0.0), 1.0), 3)


def test_simplicity_reports(grid129, disk_sp):
    rep = simplicity_report(disk_sp)
    assert len(rep["rel_gaps"]) == 2
    assert rep["clusters"] == [[0], [1, 2]]
    assert min(rep["rel_gaps"]) < 1e-3  # the degenerate pair
    sq = solve_spectrum(rectangle(grid129, -1.0, -1.0, 1.0, 1.0), 4)
    rep_sq = simplicity_report(sq)
    assert rep_sq["clusters"] == [[0], [1, 2], [3]]
    assert rep_sq["rel_gaps"][0] > 0.5  # well-separated ground state
