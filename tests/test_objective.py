"""Objective families, tail regularization, weights, and anchoring penalty.

Closed-form oracles: for F = kappa_1 on one variable the regularized value
is kappa + 1/(2p) + kappa/p and its derivative is 1 + 1/p, both exact; for
F = kappa_2 at the degenerate point (c, c) the weight sum is 3/p + 2^(1/p)
and the weight gap xi_1 - xi_2 is exactly 1/p.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshape import (
    Grid,
    ObjectiveSpec,
    OptimizerConfig,
    PenaltySpec,
    disk,
    eval_F,
    eval_Fp,
    eval_penalty_E,
    extract_boundary,
    grad_Fp,
    volume,
)
from eigenshape.objective import _tau_all, eval_Gp, kappa_clusters, symmetrized, xi0_field

from conftest import smooth_g

#: test id -> spec; "single" names F = kappa_k, the linear family with a unit weight
SPECS = {
    "single1": ObjectiveSpec("linear", n=1, coeffs=(1,)),
    "single3": ObjectiveSpec("linear", n=3, coeffs=(0, 1, 0)),
    "linear3": ObjectiveSpec("linear", n=3, coeffs=(2.0, 1.0, 0.5)),
    "softmin2": ObjectiveSpec("softmin", n=2, beta=2.0),
    "softmin3": ObjectiveSpec("softmin", n=3, subset=(2, 3), beta=5.0),
}

kappa3 = st.lists(st.floats(1.0, 10.0), min_size=3, max_size=3).map(
    lambda v: np.sort(np.asarray(v))
)


# ---- family definitions and validation --------------------------------


def test_family_values():
    k = np.array([2.0, 3.0, 5.0])
    assert eval_F(ObjectiveSpec("linear", n=3, coeffs=(0, 0, 1)), k) == 5.0  # F = kappa_3
    assert eval_F(ObjectiveSpec("linear", n=3, coeffs=(1, 0, 0)), k) == 2.0
    lin = ObjectiveSpec("linear", n=3, coeffs=(2.0, 1.0, 0.5))
    assert eval_F(lin, k) == pytest.approx(2 * 2 + 3 + 0.5 * 5)
    sm = ObjectiveSpec("softmin", n=3, beta=4.0)
    val = eval_F(sm, k)
    exact = -math.log(np.mean(np.exp(-4.0 * k))) / 4.0
    assert val == pytest.approx(exact, rel=1e-12)
    # mean-form softmin brackets the min from above
    assert k.min() <= val <= k.min() + math.log(3) / 4.0
    sub = ObjectiveSpec("softmin", n=3, subset=(2, 3), beta=4.0)
    exact_sub = -math.log(0.5 * (math.exp(-12.0) + math.exp(-20.0))) / 4.0
    assert eval_F(sub, k) == pytest.approx(exact_sub, rel=1e-12)


def test_softmin_approaches_min():
    k = np.array([2.0, 3.0])
    betas = (1.0, 10.0, 100.0)
    vals = [eval_F(ObjectiveSpec("softmin", n=2, beta=b), k) for b in betas]
    assert np.all(np.diff(vals) < 0)  # tightens toward the min from above
    for b, v in zip(betas, vals):
        assert k.min() <= v <= k.min() + math.log(2) / b + 1e-12


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown family"):
        ObjectiveSpec("product", n=2)
    with pytest.raises(ValueError, match="unknown family"):  # a config spelling only
        ObjectiveSpec("single", n=2)
    with pytest.raises(ValueError, match="n must be"):
        ObjectiveSpec("linear", n=5, coeffs=(0, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="coefficients"):
        ObjectiveSpec("linear", n=2, coeffs=(1.0,))
    with pytest.raises(ValueError, match=">= 0"):
        ObjectiveSpec("linear", n=2, coeffs=(1.0, -0.1))
    with pytest.raises(ValueError, match=">= 0"):
        ObjectiveSpec("linear", n=2, coeffs=(0.0, 0.0))
    with pytest.raises(ValueError, match="subset"):
        ObjectiveSpec("softmin", n=2, subset=(0, 1))
    with pytest.raises(ValueError, match="beta"):
        ObjectiveSpec("softmin", n=2, beta=0.0)
    with pytest.raises(ValueError, match="positive"):
        eval_F(ObjectiveSpec("linear", n=2, coeffs=(0, 1)), (1.0, 0.0))


@settings(max_examples=60, deadline=None)
@given(k=kappa3, delta=st.floats(1e-3, 2.0), axis=st.integers(0, 2))
def test_F_nondecreasing(k, delta, axis):
    for spec in SPECS.values():
        kk = k[: spec.n].copy()
        if axis >= spec.n:
            continue
        bumped = kk.copy()
        bumped[axis] += delta
        assert eval_F(spec, bumped) >= eval_F(spec, kk) - 1e-12


# ---- running p-norms --------------------------------------------------


def test_tau_basic():
    k = np.array([2.0, 3.0, 5.0])
    assert _tau_all(k, 8.0)[0] == 2.0
    for p in (2.0, 8.0, 64.0):
        taus = _tau_all(k, p)
        assert np.all(np.diff(taus) > 0)  # strictly more mass each step
        for j in (1, 2, 3):
            assert taus[j - 1] >= max(k[:j]) * (1 - 1e-14)
    # enormous p: log-sum-exp keeps it finite and pins the max
    assert _tau_all(k, 1e8)[2] == pytest.approx(5.0, rel=1e-7)


def test_tau_two_equal():
    assert _tau_all(np.array([2.0, 2.0]), 8.0)[1] == pytest.approx(2.0 * 2 ** (1 / 8), rel=1e-14)


# ---- regularized objective -------------------------------------------


@settings(max_examples=60, deadline=None)
@given(k=kappa3, p=st.sampled_from([4.0, 8.0, 16.0, 32.0, 64.0]))
def test_Fp_dominates_F(k, p):
    for spec in SPECS.values():
        kk = k[: spec.n]
        assert eval_Fp(spec, kk, p) >= eval_F(spec, kk) - 1e-12


def test_Fp_gap_shrinks():
    spec = ObjectiveSpec("softmin", n=2, beta=3.0)
    k = np.array([2.0, 2.5])
    gaps = [eval_Fp(spec, k, p) - eval_F(spec, k) for p in (4, 8, 16, 32, 64)]
    assert np.all(np.array(gaps) > 0)
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < gaps[0] / 10


def test_one_variable_closed_form():
    spec = ObjectiveSpec("linear", n=1, coeffs=(1,))
    for kap in (0.7, 2.0, 9.3):
        for p in (2.0, 8.0, 32.0, 64.0):
            assert eval_Gp(spec, [kap], p) == pytest.approx(
                kap + 1 / (2 * p), rel=1e-14
            )
            assert eval_Fp(spec, [kap], p) == pytest.approx(
                kap + 1 / (2 * p) + kap / p, rel=1e-14
            )
            xi = grad_Fp(spec, [kap], p)
            assert xi[0] == pytest.approx(1.0 + 1.0 / p, abs=1e-15)


def test_degenerate_pair_closed_form():
    # F = kappa_2 at kappa = (2, 2): both weights are pinned by symmetry
    spec = ObjectiveSpec("linear", n=2, coeffs=(0, 1))
    for p in (16.0, 32.0, 64.0):
        xi = grad_Fp(spec, [2.0, 2.0], p)
        assert xi[0] - xi[1] == pytest.approx(1.0 / p, abs=1e-14)
        assert xi.sum() == pytest.approx(3.0 / p + 2 ** (1.0 / p), abs=2e-14)
        assert abs(xi.sum() - 1.0) <= 4.0 / p
        assert np.all(xi > 0)


def test_weights_localize_as_p_grows():
    # F = kappa_2 away from degeneracy: xi -> (0, 1)
    spec = ObjectiveSpec("linear", n=2, coeffs=(0, 1))
    xi = grad_Fp(spec, [1.0, 2.0], 64.0)
    assert xi[0] <= 0.05
    assert 0.95 <= xi[1] <= 1.02
    lo = grad_Fp(spec, [1.0, 2.0], 4.0)
    assert lo[0] > xi[0]  # smaller p spreads weight further down


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("p", [8.0, 32.0])
def test_gradient_matches_finite_differences(name, p):
    spec = SPECS[name]
    k = np.array([1.3, 2.1, 4.0])[: spec.n]
    xi = grad_Fp(spec, k, p)
    step = 1e-6
    for i in range(spec.n):
        e = np.zeros(spec.n)
        e[i] = step
        fd = (eval_Fp(spec, k + e, p) - eval_Fp(spec, k - e, p)) / (2 * step)
        assert xi[i] == pytest.approx(fd, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(k=kappa3, p=st.sampled_from([4.0, 16.0, 64.0]))
def test_weights_positive(k, p):
    for spec in SPECS.values():
        assert np.all(grad_Fp(spec, k[: spec.n], p) > 0)


# ---- clusters and weight symmetrization -------------------------------


def test_kappa_clusters():
    assert kappa_clusters([1.0, 2.0, 2.0001]) == ((0,), (1, 2))
    assert kappa_clusters([1.0, 2.0, 3.0]) == ((0,), (1,), (2,))
    assert kappa_clusters([5.0]) == ((0,),)


def test_symmetrized_preserves_cluster_sums():
    # the clusters are those of the first len(xi) eigenvalues: the pair
    # (2, 2.0001) shares one, and the fourth value 2.00011 is not a weight's
    xi = np.array([0.1, 0.2, 0.6])
    sym = symmetrized(xi, np.array([1.0, 2.0, 2.0001, 2.00011]))
    assert sym[0] == 0.1
    assert sym[1] == sym[2] == pytest.approx(0.4)
    assert sym.sum() == pytest.approx(xi.sum())
    assert xi.tolist() == [0.1, 0.2, 0.6]  # the input is not changed
    assert symmetrized(xi, np.array([1.0, 2.0, 3.0])).tolist() == xi.tolist()


def test_xi0_defaults_to_one():
    pts = np.array([[0.0, 0.0], [1.0, -1.0]])
    assert np.array_equal(xi0_field(pts, PenaltySpec(s=0.0), 2.0), np.ones(2))


# ---- anchoring penalty ------------------------------------------------


@pytest.fixture(scope="module")
def pen_grid():
    return Grid.from_box(-2.0, -2.0, 2.0, 2.0, 129, 129)


@pytest.fixture(scope="module")
def ref_disk(pen_grid):
    return disk(pen_grid, (0.0, 0.0), 1.0)


def test_penalty_builds_its_fields_once_when_active(ref_disk):
    from scipy import ndimage

    pen = PenaltySpec(s=0.02, reference=ref_disk)
    dist_ref, dist_comp, vol_ref = pen.fields
    h = ref_disk.grid.h
    want_ref = np.minimum(ndimage.distance_transform_edt(~ref_disk.inside, sampling=h), 1.0)
    want_comp = np.minimum(ndimage.distance_transform_edt(ref_disk.inside, sampling=h), 1.0)
    assert dist_ref.tobytes() == want_ref.tobytes()
    assert dist_comp.tobytes() == want_comp.tobytes()
    assert vol_ref == volume(ref_disk)
    assert PenaltySpec(s=0.0, reference=ref_disk).fields is None
    assert PenaltySpec(s=0.02).fields is None


def test_penalty_vanishes_at_reference(pen_grid, ref_disk):
    pen = PenaltySpec(s=0.05, reference=ref_disk)
    at_ref = eval_penalty_E(ref_disk, pen, volume(ref_disk))
    assert 0.0 <= at_ref < 1e-3
    shifted, shrunk = (eval_penalty_E(d, pen, volume(d)) for d in (
        disk(pen_grid, (0.4, 0.0), 1.0), disk(pen_grid, (0.0, 0.0), 0.8)))
    assert shifted > 50 * max(at_ref, 1e-6)
    assert shrunk > 50 * max(at_ref, 1e-6)


def test_penalty_off_switches(ref_disk):
    other = disk(ref_disk.grid, (0.5, 0.5), 0.6)
    assert eval_penalty_E(other, PenaltySpec(s=0.0, reference=ref_disk), volume(other)) == 0.0
    assert eval_penalty_E(other, PenaltySpec(s=0.05, reference=None), volume(other)) == 0.0


def test_penalty_grid_mismatch(ref_disk):
    g2 = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 65, 65)
    pen = PenaltySpec(s=0.05, reference=ref_disk)
    off_grid = disk(g2, (0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="different grids"):
        eval_penalty_E(off_grid, pen, volume(off_grid))


def test_chi_properties():
    assert PenaltySpec.chi(0.0) == 0.0
    assert PenaltySpec.chi_prime(0.0) == 0.0
    for t in (-3.0, -0.5, 0.5, 3.0):
        assert PenaltySpec.chi(t) > 0
        assert PenaltySpec.chi(t) == PenaltySpec.chi(-t)
        assert abs(PenaltySpec.chi_prime(t)) < 0.5
        fd = (PenaltySpec.chi(t + 1e-6) - PenaltySpec.chi(t - 1e-6)) / 2e-6
        assert PenaltySpec.chi_prime(t) == pytest.approx(fd, abs=1e-9)
    with pytest.raises(ValueError, match=">= 0"):
        PenaltySpec(s=-0.1)


def test_xi0_field_orientation(pen_grid, ref_disk):
    pen = PenaltySpec(s=0.1, reference=ref_disk)
    pts = np.array([[0.0, 0.0], [1.8, 0.0]])
    vals = xi0_field(pts, pen, volume(ref_disk))  # chi'(0) = 0
    assert vals[0] < 1.0  # deep inside the reference: flow outward is cheap
    assert vals[1] > 1.0  # far outside the reference: growth is penalized
    matched = xi0_field(pts, pen, current_volume=math.pi)
    assert matched == pytest.approx(vals, abs=1e-3)  # chi' ~ 0 at matched volume


@pytest.mark.parametrize("r, motion", [
    pytest.param(0.8, "uniform", id="smaller"),
    pytest.param(1.2, "uniform", id="larger"),
    pytest.param(0.8, "smooth", id="smaller-smooth"),
    pytest.param(1.2, "smooth", id="larger-smooth"),
])
def test_xi0_field_is_first_variation_of_volume_plus_E(r, motion):
    # |Omega| + E under the outward motion phi -> phi - t g, by central
    # differences, against the flow's boundary integral of xi0 g (phi is a
    # signed distance, so g is the normal speed); g = 1, or the non-uniform
    # smooth_g. The volume mismatch with the anchored reference is 36%
    # (smaller) and 44% (larger)
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 257, 257)
    pen = PenaltySpec(s=0.02, reference=disk(g, (0.1, 0.0), 1.0))
    d = disk(g, (0.0, 0.0), r)
    speed = (lambda x, y: np.ones_like(x)) if motion == "uniform" else smooth_g
    G = speed(*g.meshgrid())

    def cost(t):
        moved = d.with_phi(d.phi - t * G)
        vol = volume(moved)
        return vol + eval_penalty_E(moved, pen, vol)

    eps = 1e-3
    fd = (cost(eps) - cost(-eps)) / (2.0 * eps)
    bm = extract_boundary(d)
    xi0 = xi0_field(bm.points, pen, volume(d))
    flow = float(np.sum(bm.weights * xi0 * speed(bm.points[:, 0], bm.points[:, 1])))
    assert flow == pytest.approx(fd, rel=1e-3)


def test_regularization_params_validation():
    # the exponent p of the smoothing F_p is a field of OptimizerConfig
    spec = ObjectiveSpec("linear", n=1, coeffs=(1,))
    assert OptimizerConfig(spec).p == 32.0
    OptimizerConfig(spec, p=2.0)
    with pytest.raises(ValueError, match="p must be finite and >= 2"):
        OptimizerConfig(spec, p=1.5)
    with pytest.raises(ValueError, match="p must be finite and >= 2"):
        OptimizerConfig(spec, p=math.inf)
