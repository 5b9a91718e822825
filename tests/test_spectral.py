"""Eigensolver, torsion solver, and boundary-derivative checks.

Oracles: closed-form Dirichlet spectra of the disk (Bessel roots) and the
axis-aligned square (separable sines), dense eigendecompositions of the
assembled matrix on small domains, observed orders under grid refinement,
the paraboloid torsion function of the disk, scale covariance
lambda(t * Omega) = lambda(Omega) / t^2, and the COO assembly that the
direct CSC assembly must reproduce bit for bit.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, eigsh as scipy_eigsh

from eigenshape import (
    BoundaryMesh,
    Grid,
    GridDomain,
    SpectralError,
    difference,
    disk,
    extract_boundary,
    normal_derivative,
    rectangle,
    solve_spectrum,
    solve_torsion,
    star_blob,
    volume,
)
from eigenshape.domain import _cell_corners, bilinear
from eigenshape.objective import kappa_clusters
from eigenshape.cli import write_spectrum_csv
from eigenshape.spectral import _DIRS, _TOL, THETA_FLOOR, assemble_laplacian, torsion_field

from shapes import dilate

J01 = 2.404825557695773  # first zero of J0
J11 = 3.8317059702075125  # first zero of J1


@pytest.fixture(scope="module")
def grid129():
    return Grid.from_box(-2.0, -2.0, 2.0, 2.0, 129, 129)


@pytest.fixture(scope="module")
def unit_disk(grid129):
    return disk(grid129, (0.0, 0.0), 1.0)


@pytest.fixture(scope="module")
def disk_spectrum(unit_disk):
    return solve_spectrum(unit_disk, M=5, seed=3)


def test_disk_eigenvalues(disk_spectrum):
    lam = disk_spectrum.lambdas
    assert lam[0] == pytest.approx(J01**2, rel=1e-3)
    assert lam[1] == pytest.approx(J11**2, rel=5e-3)
    assert lam[2] == pytest.approx(J11**2, rel=5e-3)
    # the two angular modes are exactly degenerate on the symmetric grid
    assert abs(lam[2] - lam[1]) / lam[1] < 1e-6
    assert np.all(np.diff(lam) >= -1e-12)
    assert np.all(disk_spectrum.resid <= 1e-9)


def test_square_eigenvalues_and_clusters(grid129):
    sq = rectangle(grid129, -1.0, -1.0, 1.0, 1.0)
    sp = solve_spectrum(sq, M=4, seed=0)
    base = math.pi**2 / 4.0  # side-2 square: lambda_mn = base * (m^2 + n^2)
    assert sp.lambdas[0] == pytest.approx(2 * base, rel=5e-3)
    assert sp.lambdas[1] == pytest.approx(5 * base, rel=5e-3)
    assert sp.lambdas[2] == pytest.approx(5 * base, rel=5e-3)
    assert sp.lambdas[3] == pytest.approx(8 * base, rel=5e-3)
    assert abs(sp.lambdas[2] - sp.lambdas[1]) / sp.lambdas[1] < 1e-8
    assert kappa_clusters(sp.lambdas) == ((0,), (1, 2), (3,))


def test_dilate_scaling(grid129):
    small = disk(grid129, (0.0, 0.0), 0.8)
    big = dilate(small, 1.25)
    lam_small = solve_spectrum(small, M=3, seed=0).lambdas
    lam_big = solve_spectrum(big, M=3, seed=0).lambdas
    assert lam_big == pytest.approx(lam_small / 1.25**2, rel=5e-3)


def test_nested_domain_monotonicity(grid129):
    inner = disk(grid129, (0.1, 0.0), 0.7)
    outer = disk(grid129, (0.0, 0.0), 1.1)
    box = rectangle(grid129, -1.3, -1.3, 1.3, 1.3)
    lam_in = solve_spectrum(inner, M=3, seed=0).lambdas
    lam_out = solve_spectrum(outer, M=3, seed=0).lambdas
    lam_box = solve_spectrum(box, M=3, seed=0).lambdas
    assert np.all(lam_in >= lam_out)  # smaller domain, larger eigenvalues
    assert np.all(lam_out >= lam_box)


def test_orthonormality_support_and_signs(unit_disk, disk_spectrum):
    modes = disk_spectrum.modes
    h = unit_disk.grid.h
    flat = modes.reshape(len(disk_spectrum), -1)
    gram = h * h * (flat @ flat.T)
    assert np.max(np.abs(gram - np.eye(len(disk_spectrum)))) < 1e-8
    outside = ~unit_disk.inside
    assert np.all(modes[:, outside] == 0.0)
    for k in range(len(disk_spectrum)):
        u = modes[k]
        assert u.flat[np.abs(u).argmax()] > 0.0
    # the ground state of a connected domain has one sign
    assert modes[0].min() >= -1e-10


def test_eigenvalue_ratio_bound(disk_spectrum, grid129):
    # lambda_2 / lambda_1 is maximal for the ball (= (j11/j01)^2 ~ 2.5387)
    ratio_disk = disk_spectrum.lambdas[1] / disk_spectrum.lambdas[0]
    assert ratio_disk == pytest.approx((J11 / J01) ** 2, rel=1e-2)
    rng = np.random.default_rng(7)
    blob = star_blob(grid129, (0.0, 0.0), 1.0, 0.2, 4, rng)
    lam = solve_spectrum(blob, M=2, seed=0).lambdas
    assert lam[1] / lam[0] <= 2.5397


def test_mode_sup_bound(disk_spectrum):
    # L2-normalized modes stay well under the generic sup bound 2 sqrt(lambda)
    for k in range(len(disk_spectrum)):
        assert np.max(np.abs(disk_spectrum.modes[k])) <= 2.0 * math.sqrt(
            disk_spectrum.lambdas[k]
        )


def test_determinism(grid129):
    d = disk(grid129, (0.2, -0.1), 0.75)
    a = solve_spectrum(d, M=3, seed=5)
    b = solve_spectrum(d, M=3, seed=5)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.modes, b.modes)


def test_warm_start_matches_cold(grid129):
    d0 = disk(grid129, (0.0, 0.0), 0.9)
    sp0 = solve_spectrum(d0, M=3, seed=0)
    d1 = dilate(d0, 1.02)
    cold = solve_spectrum(d1, M=3, seed=0)
    warm = solve_spectrum(d1, M=3, seed=0, warm=sp0)
    assert warm.lambdas == pytest.approx(cold.lambdas, rel=1e-8)
    assert warm.generation == d1.generation


def _reference_assemble_laplacian(d):
    """assemble_laplacian as it was written with padded fields, per-direction
    COO lists and one ``tocsc`` sort."""
    phi = d.phi
    ny, nx = phi.shape
    h2 = d.grid.h ** 2
    inside = phi < 0
    n = int(inside.sum())
    if n == 0:
        raise ValueError("domain has no active nodes")
    idx = np.full(phi.shape, -1, dtype=np.int64)
    idx[inside] = np.arange(n)
    phi_pad = np.pad(phi, 1, constant_values=0.0)
    inside_pad = np.pad(inside, 1, constant_values=False)
    idx_pad = np.pad(idx, 1, constant_values=-1)
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    for dj, di in _DIRS:
        phi_q = phi_pad[1 + dj : 1 + dj + ny, 1 + di : 1 + di + nx]
        ins_q = inside_pad[1 + dj : 1 + dj + ny, 1 + di : 1 + di + nx]
        idx_q = idx_pad[1 + dj : 1 + dj + ny, 1 + di : 1 + di + nx]
        both = inside & ins_q
        p = idx[both]
        diag[p] += 1.0 / h2
        rows.append(p)
        cols.append(idx_q[both])
        vals.append(np.full(p.size, -1.0 / h2))
        cut = inside & ~ins_q
        p = idx[cut]
        theta = np.clip(phi[cut] / (phi[cut] - phi_q[cut]), THETA_FLOOR, 1.0)
        diag[p] += 1.0 / (theta * h2)
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag)
    A = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return A.tocsc(), np.flatnonzero(inside.ravel())


def _assert_assembly_matches_reference(d):
    A, active = assemble_laplacian(d)
    ref, ref_active = _reference_assemble_laplacian(d)
    assert isinstance(A, sparse.csc_matrix) and A.shape == ref.shape
    assert A.indptr.dtype == ref.indptr.dtype == np.int32
    assert A.indices.dtype == ref.indices.dtype == np.int32
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    # tobytes, not array_equal: -0.0 and 0.0 must not count as equal
    assert A.data.dtype == ref.data.dtype and A.data.tobytes() == ref.data.tobytes()
    assert active.dtype == ref_active.dtype and np.array_equal(active, ref_active)
    assert A.has_canonical_format
    return A


def _strips_and_isolated_nodes():
    # isolated nodes, one-node-wide strips along both axes, exact 0.0 and
    # -0.0 neighbours (outside), and cut links clamped at THETA_FLOOR
    phi = np.ones((12, 14))
    phi[2, 2] = phi[9, 12] = -1.0
    phi[5, 1:9] = -0.5
    phi[5, 4] = -0.01
    phi[1:11, 10] = -0.25
    phi[4, 3], phi[6, 6], phi[5, 9] = 0.0, -0.0, -0.0
    phi[0, 0] = phi[11, 13] = -0.75  # box corners: two ghost links each
    return GridDomain(Grid(nx=14, ny=12, h=0.25), phi)


def _lshape():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 65, 65)
    box = rectangle(g, -1.25, -1.25, 1.25, 1.25)
    return difference(box, rectangle(g, 0.0, 0.0, 1.25 + g.h, 1.25 + g.h))


def _disk_past_box_edge():
    d = disk(Grid.from_box(-2.0, -2.0, 2.0, 2.0, 65, 65), (1.5, -1.2), 1.0)
    assert d.inside[:, -1].any() and d.inside[0, :].any()  # ghost links in use
    return d


def _fk_blob():
    # the initial shape of the fk flagship run ([run] seed = 11)
    return star_blob(Grid.from_box(-2.0, -2.0, 2.0, 2.0, 257, 257), (0.0, 0.0), 0.9, 0.22, 5,
                     np.random.default_rng(11))


def _ks_blobs():
    # the initial shape of the ks flagship run ([run] seed = 11)
    left = star_blob(Grid.from_box(-2.4, -2.4, 2.4, 2.4, 241, 241), (-1.05, 0.0), 0.8, 0.18,
                     4, np.random.default_rng(11), mirror_x=True)
    return left.with_phi(np.minimum(left.phi, left.phi[:, ::-1]))


@pytest.mark.parametrize("make", [
    _fk_blob,
    _ks_blobs,
    _lshape,
    _disk_past_box_edge,
    _strips_and_isolated_nodes,
], ids=["fk", "ks", "lshape", "disk_past_box_edge", "strips_and_isolated_nodes"])
def test_assembly_matches_coo_reference_bits(make):
    A = _assert_assembly_matches_reference(make())
    assert (A != A.T).nnz == 0


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=8, max_side=14),
                  elements=st.sampled_from([-1.0, -0.5, -0.3, -0.01, -0.0, 0.0, 0.3, 1.0]),
                  fill=st.nothing()))
def test_assembly_matches_coo_reference_on_quantized_fields(phi):
    d = GridDomain(Grid(nx=phi.shape[1], ny=phi.shape[0], h=0.25), phi)
    if not d.inside.any():
        with pytest.raises(ValueError, match="no active nodes"):
            assemble_laplacian(d)
        return
    _assert_assembly_matches_reference(d)


def _two_disks(grid, r):
    """Two congruent disks, exact mirror images on the node lattice."""
    left = disk(grid, (-1.0, 0.0), r)
    return left.with_phi(np.minimum(left.phi, left.phi[:, ::-1]))


def _assert_matches_dense(d, sp):
    """Eigenvalues equal the dense ones; each mode lies in its dense eigenspace."""
    A, active = assemble_laplacian(d)
    lam, V = scipy.linalg.eigh(A.toarray())
    M = len(sp)
    assert sp.lambdas == pytest.approx(lam[:M], rel=1e-10)
    X = sp.modes.reshape(M, -1)[:, active].T * d.grid.h  # unit 2-norm columns
    for k in range(M):
        Q = V[:, np.abs(lam - lam[k]) <= 1e-6 * lam[k]]
        assert np.linalg.norm(X[:, k] - Q @ (Q.T @ X[:, k])) < 1e-7


@pytest.fixture(scope="module")
def grid41():
    return Grid.from_box(-2.0, -2.0, 2.0, 2.0, 41, 41)


def test_dense_oracle_blob(grid41):
    blob = star_blob(grid41, (0.0, 0.0), 1.2, 0.2, 4, np.random.default_rng(3))
    _assert_matches_dense(blob, solve_spectrum(blob, M=4, seed=0))


def test_dense_oracle_degenerate_cluster(grid41):
    d = _two_disks(grid41, 0.8)
    cold = solve_spectrum(d, M=3, seed=0)
    # lambda_1 = lambda_2 (one per disk), then the disks' second eigenvalue
    assert abs(cold.lambdas[1] - cold.lambdas[0]) / cold.lambdas[0] < 1e-10
    assert cold.lambdas[2] / cold.lambdas[1] > 2.0
    _assert_matches_dense(d, cold)
    prev = solve_spectrum(_two_disks(grid41, 0.84), M=3, seed=1)
    warm = solve_spectrum(d, M=3, seed=0, warm=prev)
    _assert_matches_dense(d, warm)


def test_refinement_order_off_center_disk():
    # unit disk off the grid's symmetry axes, h = 3/64, 3/128, 3/256
    hs, lam_err, unu_err = [], [], []
    unu = J01 / math.sqrt(math.pi)  # |u_nu| of the normalized ground state
    for n in (65, 129, 257):
        grid = Grid.from_box(-1.5, -1.5, 1.5, 1.5, n, n)
        d = disk(grid, (0.13, -0.07), 1.0)
        sp = solve_spectrum(d, M=1, seed=0)
        unu_h, reliable = normal_derivative(sp.modes[0], extract_boundary(d), d)
        hs.append(grid.h)
        lam_err.append(abs(sp.lambdas[0] - J01**2) / J01**2)
        unu_err.append(np.median(np.abs(unu_h[reliable] - unu)) / unu)
    # observed order: least-squares slope of log(error) against log(h)
    assert np.all(np.diff(lam_err) < 0) and np.all(np.diff(unu_err) < 0)
    assert np.polyfit(np.log(hs), np.log(lam_err), 1)[0] >= 1.5
    assert np.polyfit(np.log(hs), np.log(unu_err), 1)[0] >= 0.9


def _message_residuals(err: SpectralError) -> np.ndarray:
    """The per-pair residuals that a SpectralError message lists, in order."""
    _, sep, tail = str(err).partition(" (residuals ")
    assert sep and tail.endswith(")")
    words = tail[:-1].split()
    assert all(f"{float(w):.3g}" == w for w in words)  # each printed with 3 digits
    return np.array([float(w) for w in words])


def test_solver_failure_reports_residuals(monkeypatch):
    # one Lanczos restart leaves the guard pair of 8 modes of a 65^2 unit
    # disk unconverged, while the 8 reported residuals all meet the bar: the
    # message names ARPACK's check, not the residual one
    d = disk(Grid.from_box(-2.0, -2.0, 2.0, 2.0, 65, 65), (0.0, 0.0), 1.0)
    monkeypatch.setattr("eigenshape.spectral._MAX_ITER", 1)
    with pytest.raises(SpectralError, match=r"^ARPACK converged 8 of 9 pairs in 1 "
                                            r"restarts \(residuals ") as exc:
        solve_spectrum(d, M=8)
    res = _message_residuals(exc.value)
    assert len(res) == 8
    assert np.all(res <= _TOL) and res.max() > 1e-9  # largest 2.69e-9


def test_solver_failure_counts_an_undelivered_pair_as_1(monkeypatch):
    # ARPACK gives up with one of the 3 pairs (M = 2 plus the guard): the
    # second reported residual is the 1 of a pair it never delivered
    def eigsh(*args, **kwargs):
        lam, X = scipy_eigsh(*args, **kwargs)
        raise ArpackNoConvergence("no convergence", lam[:1], X[:, :1])

    monkeypatch.setattr("eigenshape.spectral.eigsh", eigsh)
    d = disk(Grid.from_box(-2.0, -2.0, 2.0, 2.0, 65, 65), (0.0, 0.0), 1.0)
    with pytest.raises(SpectralError, match=r"^ARPACK converged 1 of 3 pairs in 200 "
                                            r"restarts \(residuals ") as exc:
        solve_spectrum(d, M=2)
    res = _message_residuals(exc.value)
    assert len(res) == 2 and res[0] <= _TOL and res[1] == 1.0


def test_solver_failure_names_a_residual_above_tol(monkeypatch):
    # ARPACK converges, but the eigenvalues it returns are off by 1e-6
    def eigsh(*args, **kwargs):
        lam, X = scipy_eigsh(*args, **kwargs)
        return lam * (1.0 + 1e-6), X

    monkeypatch.setattr("eigenshape.spectral.eigsh", eigsh)
    d = disk(Grid.from_box(-2.0, -2.0, 2.0, 2.0, 65, 65), (0.0, 0.0), 1.0)
    with pytest.raises(SpectralError, match=r"^eigenpair residual above tol=1e-08 "
                                            r"\(residuals ") as exc:
        solve_spectrum(d, M=2)
    res = _message_residuals(exc.value)
    assert len(res) == 2 and np.all(res > _TOL)


def test_input_validation(grid129):
    d = disk(grid129, (0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="at least one"):
        solve_spectrum(d, M=0)
    empty = d.with_phi(np.full_like(d.phi, 1.0))
    with pytest.raises(ValueError, match="^domain has no active nodes$"):
        solve_spectrum(empty, M=1)
    with pytest.raises(ValueError, match="^domain has no active nodes$"):
        solve_torsion(empty)
    tiny = disk(grid129, (0.0, 0.0), 0.2)
    with pytest.raises(ValueError, match="active nodes"):
        solve_spectrum(tiny, M=200)


def test_clusters_partition():
    lam = np.array([1.0, 1.0 + 1e-7, 2.0, 2.001, 3.0])
    assert kappa_clusters(lam) == ((0, 1), (2, 3), (4,))
    # relative gaps just below and just above 1e-3
    assert kappa_clusters([1.0, 1.0009, 1.0021]) == ((0, 1), (2,))


def _torsion_energy(d, v):
    """T(Omega) = int(|grad v|^2 / 2 - v), which the discrete equation
    collapses to -h^2 * sum(v) / 2."""
    return -0.5 * d.grid.h ** 2 * float(v.sum())


def test_torsion_disk(grid129, unit_disk):
    v = solve_torsion(unit_disk)
    # v = (1 - r^2) / 4 on the unit disk
    assert np.max(v) == pytest.approx(0.25, rel=1e-2)
    assert np.min(v) >= -1e-12
    assert np.max(v) <= 0.5  # diam^2 / 8
    assert _torsion_energy(unit_disk, v) == pytest.approx(-math.pi / 16.0, rel=1e-3)
    A, active = assemble_laplacian(unit_disk)
    assert np.max(np.abs(A @ v.ravel()[active] - 1.0)) <= 1e-8
    X, Y = np.meshgrid(grid129.xs, grid129.ys)
    r2 = X**2 + Y**2
    core = r2 < 0.8**2
    exact = (1.0 - r2) / 4.0
    assert np.max(np.abs(v[core] - exact[core])) < 2e-3


def test_torsion_field_checks_candidate(grid129, unit_disk):
    tv = solve_torsion(unit_disk)
    assert torsion_field(unit_disk, tv.copy()).tobytes() == tv.tobytes()
    for (j, i), dv in [((64, 64), 1e-6), ((64, 64), math.nan), ((0, 0), 1e-12)]:
        v = tv.copy()  # node (64, 64) is the centre, (0, 0) a box corner
        v[j, i] += dv
        with pytest.raises(SpectralError):
            torsion_field(unit_disk, v)
    with pytest.raises(SpectralError, match="off Omega"):
        torsion_field(unit_disk, solve_torsion(disk(grid129, (0.0, 0.0), 1.1)))
    with pytest.raises(SpectralError, match="residual"):
        torsion_field(unit_disk, solve_torsion(disk(grid129, (0.0, 0.0), 0.9)))


def test_torsion_energy_scaling(grid129):
    # T(t * Omega) = t^4 T(Omega)
    small, big = (disk(grid129, (0.0, 0.0), r) for r in (0.8, 1.2))
    ratio = _torsion_energy(big, solve_torsion(big)) / _torsion_energy(small, solve_torsion(small))
    assert ratio == pytest.approx((1.2 / 0.8) ** 4, rel=5e-3)


def test_normal_derivative_disk(unit_disk, disk_spectrum):
    bm = extract_boundary(unit_disk)
    values, reliable = normal_derivative(disk_spectrum.modes[0], bm, unit_disk)
    assert len(values) == len(bm)
    assert np.mean(reliable) >= 0.9
    vals = values[reliable]
    # |u_nu| = j01 / sqrt(pi) for the normalized ground state
    target = J01 / math.sqrt(math.pi)
    assert np.median(vals) == pytest.approx(target, rel=0.03)
    assert np.max(np.abs(vals - target)) / target < 0.15


def test_normal_derivative_empty_boundary(unit_disk, disk_spectrum):
    far = rectangle(unit_disk.grid, 1.5, 1.5, 1.9, 1.9)
    bm = extract_boundary(far)
    sub = bm.__class__(
        points=bm.points[:0], normals=bm.normals[:0], weights=bm.weights[:0]
    )
    values, reliable = normal_derivative(disk_spectrum.modes[0], sub, unit_disk)
    assert len(values) == 0 and len(reliable) == 0


def _reference_stencil_ok(grid, inside, pts):
    """The reliability rule of a probe point before it shared the corner
    rule of domain._cell_corners: its cell lies in the box unclamped, and
    the four corners of its clamped cell lie in Omega."""
    fx = (pts[:, 0] - grid.origin[0]) / grid.h
    fy = (pts[:, 1] - grid.origin[1]) / grid.h
    i0 = np.floor(fx).astype(int)
    j0 = np.floor(fy).astype(int)
    ok = (i0 >= 0) & (i0 + 1 <= grid.nx - 1) & (j0 >= 0) & (j0 + 1 <= grid.ny - 1)
    i0c = np.clip(i0, 0, grid.nx - 2)
    j0c = np.clip(j0, 0, grid.ny - 2)
    ok &= (inside[j0c, i0c] & inside[j0c, i0c + 1]
           & inside[j0c + 1, i0c] & inside[j0c + 1, i0c + 1])
    return ok


def _edge_points(grid, rng):
    """Points outside the box, on its first and last node rows and columns,
    just inside and outside them, and spread over the box."""
    x0, y0, x1, y1 = grid.xs[0], grid.ys[0], grid.xs[-1], grid.ys[-1]
    h = grid.h

    def ticks(lo, hi):
        return np.concatenate([[lo - h, lo - 1e-12, lo, lo + 0.5 * h, hi - 0.5 * h,
                                hi - 1e-12, hi, hi + 1e-12, hi + h],
                               rng.uniform(lo - 2 * h, hi + 2 * h, 40)])

    xs, ys = ticks(x0, x1), ticks(y0, y1)
    return np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)


def test_cell_corner_mask_matches_reference_rule(grid41):
    pts = _edge_points(grid41, np.random.default_rng(0))
    everywhere = np.ones((grid41.ny, grid41.nx), dtype=bool)
    _, _, _, in_box = _cell_corners(grid41, pts)
    assert in_box.tobytes() == _reference_stencil_ok(grid41, everywhere, pts).tobytes()
    assert 0 < in_box.sum() < len(pts)


@pytest.mark.parametrize("centre, r", [((0.0, 0.0), 1.0), ((1.2, -0.9), 1.1),
                                       ((0.0, 0.0), 2.5)])
def test_normal_derivative_matches_reference_bits(grid41, centre, r):
    # the probe points themselves (zero normals), then the real boundary
    d = disk(grid41, centre, r)
    modes = np.stack([np.where(d.inside, 1.0 + d.grid.meshgrid()[0], 0.0), -d.phi])
    pts = _edge_points(grid41, np.random.default_rng(1))
    bms = [BoundaryMesh(points=pts, normals=np.zeros_like(pts), weights=np.ones(len(pts))),
           extract_boundary(d)]
    for bm in bms:
        got_values, got_reliable = normal_derivative(modes, bm, d)
        q1 = bm.points - 1.5 * grid41.h * bm.normals
        q2 = bm.points - 3.0 * grid41.h * bm.normals
        values = np.abs(4.0 * bilinear(grid41, modes, q1) - bilinear(grid41, modes, q2))
        assert got_values.tobytes() == (values / (3.0 * grid41.h)).tobytes()
        reliable = (_reference_stencil_ok(grid41, d.inside, q1)
                    & _reference_stencil_ok(grid41, d.inside, q2))
        assert got_reliable.tobytes() == reliable.tobytes()
        assert got_reliable.any()


def test_spectrum_csv_roundtrip(tmp_path, disk_spectrum):
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(disk_spectrum, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,lambda,resid"
    assert len(lines) == 1 + len(disk_spectrum)
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == k + 1
        assert float(cells[1]) == disk_spectrum.lambdas[k]  # repr round-trips
        assert float(cells[2]) == disk_spectrum.resid[k]


def test_volume_scale_consistency(grid129):
    # sanity tying the quadrature used for normalization to the domain measure
    d = disk(grid129, (0.0, 0.0), 1.0)
    assert volume(d) == pytest.approx(math.pi, rel=2e-3)
