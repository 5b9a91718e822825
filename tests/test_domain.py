"""Grid, level-set domain, boundary extraction, and measure tests."""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from eigenshape.domain import (
    Grid,
    GridDomain,
    bilinear,
    connected_components,
    difference,
    disk,
    extract_boundary,
    inside_fraction,
    read_field_dump,
    read_grid_dump,
    rectangle,
    reinitialize,
    split_components,
    star_blob,
    volume,
    write_field_dump,
    write_grid_dump,
)
from eigenshape import domain

from shapes import cli_shape, dilate, flagship_config, flagship_shape, perimeter, roundness


@pytest.fixture(scope="module")
def grid():
    return Grid.from_box(-2.0, -2.0, 2.0, 2.0, 129, 129)


def test_grid_geometry(grid):
    assert grid.h == pytest.approx(4.0 / 128)
    assert grid.xs[0] == -2.0 and grid.xs[-1] == 2.0
    assert grid.ys[0] == -2.0 and grid.ys[-1] == 2.0
    X, Y = grid.meshgrid()
    assert X.shape == (129, 129)
    assert X[0, 5] == pytest.approx(grid.xs[5])
    assert Y[7, 0] == pytest.approx(grid.ys[7])


def test_grid_rejects_anisotropic_spacing():
    with pytest.raises(ValueError):
        Grid.from_box(0.0, 0.0, 1.0, 2.0, 11, 11)


@pytest.mark.parametrize("nx", [1, 0, -3, 7])
def test_grid_from_box_rejects_fewer_than_8_nodes(nx):
    # checked before the spacing (x1 - x0) / (nx - 1) is taken
    with pytest.raises(ValueError, match="at least 8x8"):
        Grid.from_box(-2.0, -2.0, 2.0, 2.0, nx, 9)
    with pytest.raises(ValueError, match="at least 8x8"):
        Grid.from_box(-2.0, -2.0, 2.0, 2.0, 9, nx)


@pytest.mark.parametrize("h, origin", [
    (math.inf, (0.0, 0.0)), (math.nan, (0.0, 0.0)), (0.1, (0.0, math.nan)),
    (0.1, (-math.inf, 0.0)),
])
def test_grid_rejects_nonfinite(h, origin):
    with pytest.raises(ValueError):
        Grid(nx=8, ny=8, h=h, origin=origin)


def test_domain_phi_is_read_only(grid):
    d = disk(grid, (0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        d.phi[0, 0] = 5.0
    d2 = d.with_phi(d.phi + 0.1)
    assert d2.generation == d.generation + 1


def test_volume_disk(grid):
    d = disk(grid, (0.1, -0.2), 1.1)
    assert volume(d) == pytest.approx(math.pi * 1.1**2, rel=1e-3)


def test_volume_full_box_is_exact(grid):
    d = GridDomain(grid, -np.ones((grid.ny, grid.nx)))
    assert volume(d) == pytest.approx(16.0, rel=1e-12)


def test_dilate_scales_volume(grid):
    d = disk(grid, (0.0, 0.0), 0.7)
    big = dilate(d, 1.5)
    assert volume(big) == pytest.approx(1.5**2 * volume(d), rel=2e-3)
    with pytest.raises(ValueError):
        dilate(d, 0.0)


def test_extract_boundary_disk(grid):
    d = disk(grid, (0.0, 0.0), 1.0)
    bm = extract_boundary(d)
    assert len(bm) > 100
    radial = np.hypot(bm.points[:, 0], bm.points[:, 1])
    assert np.all(np.abs(radial - 1.0) < grid.h)
    # normals point outward and are unit length
    outward = (bm.points * bm.normals).sum(axis=1) / radial
    assert outward.min() > 0.95
    assert np.allclose(np.hypot(bm.normals[:, 0], bm.normals[:, 1]), 1.0)
    assert bm.weights.min() > 0.0
    assert bm.weights.sum() == pytest.approx(2 * math.pi, rel=2e-3)


def _reference_boundary_weights(d):
    """extract_boundary as it was written with a Python loop over the cells:
    its crossing points, normals and per-cell segment weights."""
    phi, grid, h = d.phi, d.grid, d.grid.h
    inside = phi < 0
    hx_mask = inside[:, :-1] != inside[:, 1:]
    vy_mask = inside[:-1, :] != inside[1:, :]
    jH, iH = np.nonzero(hx_mask)
    jV, iV = np.nonzero(vy_mask)
    phiH1, phiH2 = phi[jH, iH], phi[jH, iH + 1]
    phiV1, phiV2 = phi[jV, iV], phi[jV + 1, iV]
    pts = np.vstack([
        np.column_stack([grid.xs[iH] + phiH1 / (phiH1 - phiH2) * h, grid.ys[jH]]),
        np.column_stack([grid.xs[iV], grid.ys[jV] + phiV1 / (phiV1 - phiV2) * h]),
    ])
    n_h = len(jH)

    gy, gx = np.gradient(phi, h)
    nx_, ny_ = bilinear(grid, gx, pts), bilinear(grid, gy, pts)
    norms = np.hypot(nx_, ny_)
    bad = norms < 1e-12
    if bad.any():
        fall = np.zeros((len(pts), 2))
        fall[:n_h, 0] = np.sign(phiH2 - phiH1)
        fall[n_h:, 1] = np.sign(phiV2 - phiV1)
        nx_ = np.where(bad, fall[:, 0], nx_)
        ny_ = np.where(bad, fall[:, 1], ny_)
        norms = np.where(bad, np.hypot(nx_, ny_), norms)
    normals = np.column_stack([nx_ / norms, ny_ / norms])

    Hid = np.full(hx_mask.shape, -1, dtype=int)
    Hid[jH, iH] = np.arange(n_h)
    Vid = np.full(vy_mask.shape, -1, dtype=int)
    Vid[jV, iV] = np.arange(len(jV)) + n_h
    weights = np.zeros(len(pts))
    cell_mask = hx_mask[:-1, :] | hx_mask[1:, :] | vy_mask[:, :-1] | vy_mask[:, 1:]

    def _add_segment(a, b):
        seg = 0.5 * math.hypot(pts[a, 0] - pts[b, 0], pts[a, 1] - pts[b, 1])
        weights[a] += seg
        weights[b] += seg

    for j, i in zip(*np.nonzero(cell_mask)):
        bottom, top, left, right = Hid[j, i], Hid[j + 1, i], Vid[j, i], Vid[j, i + 1]
        ids = [k for k in (bottom, right, top, left) if k >= 0]
        if len(ids) == 2:
            _add_segment(ids[0], ids[1])
        elif len(ids) == 4:
            center = 0.25 * (phi[j, i] + phi[j, i + 1] + phi[j + 1, i] + phi[j + 1, i + 1])
            if (center < 0) == inside[j, i]:
                _add_segment(bottom, right)
                _add_segment(top, left)
            else:
                _add_segment(bottom, left)
                _add_segment(top, right)
    return pts, normals, weights


def _assert_boundary_matches_reference(d):
    bm = extract_boundary(d)
    pts, normals, weights = _reference_boundary_weights(d)
    assert np.array_equal(bm.points, pts)
    assert np.array_equal(bm.normals, normals)
    assert np.array_equal(bm.weights, weights)
    return bm


@pytest.mark.parametrize("ini", [
    flagship_config("fk"),
    flagship_config("ks"),
    "[grid]\nnx = 65\nny = 65\n[shape]\nkind = lshape\nside = 2.5",
    "[grid]\nnx = 129\nny = 129\n[shape]\nkind = disk\nr = 1.0",
    "[grid]\nnx = 97\nny = 97\n[shape]\nkind = disk\ncx = 0.13\ncy = -0.29\nr = 1.37",
    # crosses the right and bottom box edges: one-sided differences in the normals
    "[grid]\nnx = 65\nny = 65\n[shape]\nkind = disk\ncx = 1.5\ncy = -1.2\nr = 1.0",
], ids=["fk", "ks", "lshape", "disk", "offcentre_disk", "disk_past_box_edge"])
def test_extract_boundary_matches_cell_loop_bits(ini):
    d = cli_shape(ini)
    _assert_boundary_matches_reference(d)
    # noise makes saddle cells (h-sized noise: dozens on fk and ks, of both pairings)
    noise = d.grid.h * np.random.default_rng(5).standard_normal(d.phi.shape)
    for scale in (0.3, 1.0):
        _assert_boundary_matches_reference(d.with_phi(d.phi + scale * noise))


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.int8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=8, max_side=14),
                  elements=st.integers(-2, 2), fill=st.nothing()))
def test_extract_boundary_matches_cell_loop_on_quantized_fields(levels):
    # few levels, each node drawn: exact zeros at nodes and at cell centres,
    # and saddles of both pairings (about 8 per field)
    ny, nx = levels.shape
    d = GridDomain(Grid(nx=nx, ny=ny, h=0.25), 0.5 * levels)
    if not d.inside.any() or d.inside.all():
        assert len(extract_boundary(d)) == 0
        return
    _assert_boundary_matches_reference(d)


@pytest.mark.parametrize("b, c, joined", [(0.5, 1.5, False), (0.5, 0.5, True)],
                         ids=["centre_zero_apart", "centre_negative_joined"])
def test_extract_boundary_saddle_pairings(b, c, joined):
    # a checkerboard cell with corners (3, 3) and (4, 4) inside (-1) and
    # (3, 4) = b, (4, 3) = c outside; every other node is +1. Its centre
    # value 0.25 * (b + c - 2) is 0 (the inside corners stay apart) or -0.25
    # (they join). The crossings below are in cell units from node (3, 3).
    phi = np.ones((8, 8))
    phi[3, 3] = phi[4, 4] = -1.0
    phi[3, 4], phi[4, 3] = b, c
    bm = _assert_boundary_matches_reference(GridDomain(Grid(nx=8, ny=8, h=1.0), phi))
    bottom, left = (1 / (1 + b), 0.0), (0.0, 1 / (1 + c))
    right, top = (1.0, b / (b + 1)), (c / (c + 1), 1.0)
    outer = (2 * math.hypot(0.5, 0.5) + math.hypot(bottom[0], 0.5) + math.hypot(0.5, left[1])
             + math.hypot(0.5, 1 - right[1]) + math.hypot(1 - top[0], 0.5))
    apart = math.dist(bottom, left) + math.dist(top, right)
    together = math.dist(bottom, right) + math.dist(top, left)
    assert abs(apart - together) > 0.1
    expected = outer + (together if joined else apart)
    assert bm.weights.sum() == pytest.approx(expected, rel=1e-12)


def test_perimeter_and_roundness(grid):
    d = disk(grid, (0.0, 0.0), 1.2)
    assert perimeter(d) == pytest.approx(2 * math.pi * 1.2, rel=2e-3)
    assert roundness(d) == pytest.approx(1.0, abs=0.01)
    sq = rectangle(grid, -1.0, -1.0, 1.0, 1.0)
    assert roundness(sq) == pytest.approx(math.pi / 4, rel=0.02)


def test_components_and_split(grid):
    one = disk(grid, (0.0, 0.0), 0.8)
    a, b = disk(grid, (-1.0, 0.0), 0.5), disk(grid, (1.0, 0.3), 0.7)
    two = a.with_phi(np.minimum(a.phi, b.phi))
    assert connected_components(one) == 1
    assert connected_components(two) == 2
    parts = split_components(two)
    assert len(parts) == 2
    assert volume(parts[0]) >= volume(parts[1])
    assert volume(parts[0]) + volume(parts[1]) == pytest.approx(volume(two), rel=1e-6)
    assert volume(parts[0]) == pytest.approx(math.pi * 0.49, rel=2e-3)


def test_boolean_operations(grid):
    ring = difference(disk(grid, (0.0, 0.0), 1.0), disk(grid, (0.0, 0.0), 0.5))
    assert volume(ring) == pytest.approx(math.pi * (1.0 - 0.25), rel=2e-3)


def test_inside_fraction_profile():
    eps = 0.3
    assert inside_fraction(np.array([-2 * eps]), eps)[0] == 1.0
    assert inside_fraction(np.array([2 * eps]), eps)[0] == pytest.approx(0.0, abs=1e-15)
    assert inside_fraction(np.array([0.0]), eps)[0] == pytest.approx(0.5)
    xs = np.linspace(-2 * eps, 2 * eps, 101)
    vals = inside_fraction(xs, eps)
    assert np.all(np.diff(vals) <= 1e-12)


def _closed_inside_fraction(phi, eps):
    """inside_fraction as the closed formula, with the sine on every node."""
    with np.errstate(over="ignore"):
        t = np.clip(phi / eps, -1.0, 1.0)
    return np.clip(0.5 * (1.0 - t - np.sin(np.pi * t) / np.pi), 0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), ndim=st.integers(1, 3), h=st.floats(1e-3, 1.0),
       factor=st.sampled_from([1.0, 1.5]))
def test_inside_fraction_ramp_only_matches_closed_formula_bits(data, ndim, h, factor):
    # off the ramp the closed formula rounds to exactly 1.0 or 0.0, so the
    # sine taken on the ramp alone gives every node the same bits
    eps = factor * h
    edges = [eps, -eps, np.nextafter(eps, 0.0), np.nextafter(-eps, 0.0),
             np.nextafter(eps, 1.0), np.nextafter(-eps, -1.0), 0.0, -0.0,
             5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300]
    elements = st.one_of(st.sampled_from(edges), st.floats(-2 * eps, 2 * eps),
                         st.floats(allow_nan=False))
    phi = data.draw(hnp.arrays(float, hnp.array_shapes(min_dims=ndim, max_dims=ndim,
                                                       max_side=7), elements=elements))
    got = inside_fraction(phi, eps)
    assert got.shape == phi.shape and got.dtype == np.float64
    assert got.tobytes() == _closed_inside_fraction(phi, eps).tobytes()
    edge = np.array(edges).reshape(2, 1, 7)  # every edge value, in 3-D
    assert inside_fraction(edge, eps).tobytes() == _closed_inside_fraction(edge, eps).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2),
    px=st.floats(-1.9, 1.9), py=st.floats(-1.9, 1.9),
)
def test_bilinear_exact_on_affine(a, b, c, px, py):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 33, 33)
    X, Y = g.meshgrid()
    field = a * X + b * Y + c
    got = bilinear(g, field, np.array([[px, py]]))[0]
    assert got == pytest.approx(a * px + b * py + c, abs=1e-9 + 1e-9 * abs(c))


def test_reinitialize_preserves_interface(grid):
    d = disk(grid, (0.2, -0.1), 1.0)
    warped = d.with_phi(d.phi * (2.0 + np.sin(3 * d.phi)))  # same zero set
    r = reinitialize(warped)
    assert volume(r) == pytest.approx(volume(d), rel=5e-3)
    # signed-distance property in a band near the interface
    band = np.abs(r.phi) < 0.3
    gy, gx = np.gradient(r.phi, grid.h, grid.h)
    norms = np.hypot(gx, gy)[band]
    assert abs(np.median(norms) - 1.0) < 0.05


def _reference_reinitialize(d, tol=1e-3, max_iter=400):
    """The Godunov relaxation written directly on phi, with per-side upwind
    gradients: the oracle that ``reinitialize`` must match bit for bit."""
    h = d.grid.h
    phi0 = d.phi.copy()
    phi = phi0.copy()

    sign0 = np.where(phi0 >= 0, 1.0, -1.0)
    smooth_sign = phi0 / np.sqrt(phi0**2 + h**2)

    inside = phi0 < 0
    iface = np.zeros_like(inside)
    iface[:, :-1] |= inside[:, :-1] != inside[:, 1:]
    iface[:, 1:] |= inside[:, :-1] != inside[:, 1:]
    iface[:-1, :] |= inside[:-1, :] != inside[1:, :]
    iface[1:, :] |= inside[:-1, :] != inside[1:, :]

    gy, gx = np.gradient(phi0, h)
    gnorm = np.maximum(np.hypot(gx, gy), 1e-6)
    target = np.clip(phi0 / gnorm, -h, h)

    dtau = 0.5 * h
    for _ in range(max_iter):
        pad_x = np.pad(phi, ((0, 0), (1, 1)), mode="edge")
        pad_y = np.pad(phi, ((1, 1), (0, 0)), mode="edge")
        dxm = (phi - pad_x[:, :-2]) / h
        dxp = (pad_x[:, 2:] - phi) / h
        dym = (phi - pad_y[:-2, :]) / h
        dyp = (pad_y[2:, :] - phi) / h
        gp = np.sqrt(
            np.maximum(np.maximum(dxm, 0.0) ** 2, np.minimum(dxp, 0.0) ** 2)
            + np.maximum(np.maximum(dym, 0.0) ** 2, np.minimum(dyp, 0.0) ** 2)
        )
        gm = np.sqrt(
            np.maximum(np.minimum(dxm, 0.0) ** 2, np.maximum(dxp, 0.0) ** 2)
            + np.maximum(np.minimum(dym, 0.0) ** 2, np.maximum(dyp, 0.0) ** 2)
        )
        grad = np.where(phi0 >= 0, gp, gm)
        update = -dtau * smooth_sign * (grad - 1.0)
        update_if = -(dtau / h) * (sign0 * np.abs(phi) - sign0 * np.abs(target))
        update = np.where(iface, update_if, update)
        phi += update
        if np.max(np.abs(update)) < tol:
            break
    return d.with_phi(phi)


def _assert_same_bits(d, **kw):
    """``reinitialize`` against the oracle; ``tol`` and ``max_iter`` in ``kw``
    replace the module's stopping constants for this call."""
    stops = {"_REINIT_TOL": kw.get("tol", domain._REINIT_TOL),
             "_REINIT_MAX_ITER": kw.get("max_iter", domain._REINIT_MAX_ITER)}
    with mock.patch.multiple(domain, **stops):
        out = reinitialize(d)
    ref = _reference_reinitialize(d, **kw)
    # tobytes, not array_equal: -0.0 and 0.0 must not count as equal
    assert out.phi.tobytes() == ref.phi.tobytes()


def _warped_disk():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 129, 129)
    d = disk(g, (0.3, -0.2), 1.0)
    return d.with_phi(d.phi * (2.0 + np.sin(3 * d.phi)))


def _zeros_at_nodes():
    # quarter-h quantized distances put phi0 == 0 (and -0.0) on nodes
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = g.meshgrid()
    phi = np.round(16 * (np.hypot(X, Y) - 0.5)) / 16
    phi[np.abs(X) < 0.2] *= -0.0
    return GridDomain(g, phi)


@pytest.mark.parametrize("make, kw", [
    (lambda: flagship_shape("fk"), {}),
    (_warped_disk, {}),
    (_warped_disk, {"tol": 0.0}),
    (lambda: flagship_shape("ks"), {}),
    (lambda: disk(Grid.from_box(-2.0, -2.0, 2.0, 2.0, 65, 65), (1.7, -1.1), 0.8), {}),
    (lambda: disk(Grid.from_box(0.0, 0.0, 7.0, 7.0, 8, 8), (3.3, 3.6), 2.2), {}),
    (lambda: flagship_shape("fk"), {"max_iter": 3}),
    (_zeros_at_nodes, {}),
    (_zeros_at_nodes, {"tol": 0.0, "max_iter": 25}),
], ids=["fk_blob", "warped_disk", "warped_disk_400_sweeps", "two_blobs", "crosses_box_edge", "grid_8x8",
        "max_iter_3", "zeros_at_nodes", "zeros_at_nodes_tol0"])
def test_reinitialize_bitwise_matches_reference(make, kw):
    _assert_same_bits(make(), **kw)


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(8, 14), ny=st.integers(8, 14),
    seed=st.integers(0, 2**32 - 1), quantum=st.sampled_from([0.25, 0.1, 1 / 16]),
    max_iter=st.integers(1, 40),
)
def test_reinitialize_bitwise_random_fields(nx, ny, seed, quantum, max_iter):
    rng = np.random.default_rng(seed)
    phi = np.round(rng.standard_normal((ny, nx)) / quantum) * quantum
    phi[rng.random(phi.shape) < 0.1] = -0.0
    _assert_same_bits(GridDomain(Grid(nx=nx, ny=ny, h=0.25), phi), max_iter=max_iter)


def test_star_blob_reproducible_and_mirror(grid):
    d1 = star_blob(grid, (0.0, 0.0), 0.9, 0.2, 5, np.random.default_rng(4))
    d2 = star_blob(grid, (0.0, 0.0), 0.9, 0.2, 5, np.random.default_rng(4))
    assert np.array_equal(d1.phi, d2.phi)
    d3 = star_blob(grid, (0.0, 0.0), 0.9, 0.2, 5, np.random.default_rng(5))
    assert not np.array_equal(d1.phi, d3.phi)
    sym = star_blob(grid, (0.0, 0.0), 0.9, 0.2, 5, np.random.default_rng(4),
                    mirror_x=True)
    assert np.allclose(sym.phi, sym.phi[::-1, :], atol=1e-12)


def test_grid_dump_roundtrip(tmp_path, grid):
    d = star_blob(grid, (0.1, 0.2), 0.8, 0.15, 4, np.random.default_rng(1))
    path = tmp_path / "domain.grid"
    write_grid_dump(d, path)
    back = read_grid_dump(path)
    assert back.grid == d.grid
    assert np.array_equal(back.phi, d.phi)


def _zeros_field(grid, seed):
    """Nonzero values with interior exact zeros, -0.0, all-zero rows, an
    all -0.0 row and rows with no zero at all."""
    rng = np.random.default_rng(seed)
    field = rng.standard_normal((grid.ny, grid.nx)) * 10.0 ** rng.integers(-8, 8, (grid.ny, grid.nx))
    field[rng.random(field.shape) < 0.3] = 0.0
    field[rng.random(field.shape) < 0.05] = -0.0
    field[:, :7] = 0.0
    field[3] = 0.0
    field[-1] = 0.0
    field[5] = -0.0
    field[8, ::2] = -0.0
    field[9, 1::2] = 0.0
    return field


@pytest.mark.parametrize("seed", [0, 1])
def test_field_dump_roundtrip_bits(tmp_path, grid, seed):
    field = _zeros_field(grid, seed)
    fields = [field, np.zeros_like(field), np.full_like(field, -0.0),
              disk(grid, (1.5, -1.5), 0.9).phi]
    for k, f in enumerate(fields):
        path = tmp_path / f"v2_{k}.grid"
        write_field_dump(grid, f, path)
        with open(path, "rb") as dump:  # the layout that the README documents
            assert dump.readline() == (f"GRIDDUMP v2 {grid.nx} {grid.ny} {grid.h!r} "
                                       f"{grid.origin[0]!r} {grid.origin[1]!r}\n").encode()
            assert dump.read() == f.astype("<f8").tobytes()
        g2, back = read_field_dump(path)
        assert g2 == grid and back.dtype == np.float64
        assert back.tobytes() == f.tobytes()  # -0.0 keeps its sign


class _CountingFile(io.FileIO):
    """An unbuffered file that counts the bytes read from it."""

    nread = 0

    def read(self, size=-1):
        data = super().read(size)
        _CountingFile.nread += len(data)
        return data


@pytest.mark.parametrize("header", [b"GRIDDUMP v1 8 8 0.5 -2.0 -2.0\n",
                                    b"GRIDDUMP v1 1000000 1000000 0.1 0.0 0.0\n",
                                    b"GRIDDUMP v1\n"], ids=["8x8", "huge", "no_sizes"])
def test_read_field_dump_rejects_v1_from_its_header_line(tmp_path, monkeypatch, header):
    path = tmp_path / "v1.grid"
    path.write_bytes(header + b"7" * (4 << 20))
    monkeypatch.setattr(_CountingFile, "nread", 0)
    monkeypatch.setattr("eigenshape.domain.open", lambda p, mode: _CountingFile(p, "r"),
                        raising=False)
    with pytest.raises(ValueError, match="not a GRIDDUMP v2 header line: b'GRIDDUMP v1"):
        read_field_dump(path)
    assert _CountingFile.nread == len(header) <= 256


def test_field_dump_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(2)
    field = rng.standard_normal((grid.ny, grid.nx))
    path = tmp_path / "field.grid"
    write_field_dump(grid, field, path)
    g2, f2 = read_field_dump(path)
    assert g2 == grid
    assert np.array_equal(f2, field)
