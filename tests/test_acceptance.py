"""Acceptance gate: eight end-to-end criteria, one test (= one pass/fail
line under ``pytest -v``) per criterion, with pinned targets and tolerances.

Targets: the single-ball optimum 2*j01*sqrt(pi) ~ 8.52488 and the
two-ball optimum 2*sqrt(2*pi)*j01 ~ 12.05601 for the first and second
eigenvalue problems; closed-form regularization and weight limits; the
half-plane boundary energy pi/2; and byte-identical reruns.
"""

import itertools
import math

import numpy as np
import pytest

from eigenshape import (
    Grid,
    ObjectiveSpec,
    Spectrum,
    classify_boundary,
    disk,
    el_residual,
    eval_F,
    eval_Fp,
    extract_boundary,
    grad_Fp,
    simplicity_report,
    solve_spectrum,
    solve_torsion,
    split_components,
    symmetrized,
    volume,
    weiss_profile,
)
from eigenshape.cli import run_single
from eigenshape.diagnostics import _ball_means, _mode_gradients, density_ratio

from conftest import write_ini
from shapes import BALL_OPTIMUM, TWO_BALL_OPTIMUM, dilate, half_plane, roundness

FAMILIES = [
    ObjectiveSpec("linear", n=1, coeffs=(1,)),
    ObjectiveSpec("linear", n=2, coeffs=(0, 1)),
    ObjectiveSpec("linear", n=3, coeffs=(0, 0, 1)),
    ObjectiveSpec("linear", n=2, coeffs=(1.0, 1.0)),
    ObjectiveSpec("linear", n=3, coeffs=(2.0, 1.0, 0.5)),
    ObjectiveSpec("softmin", n=2, beta=3.0),
    ObjectiveSpec("softmin", n=3, subset=(2, 3), beta=5.0),
]


def kappa_grid(n):
    """Ascending tuples (with degenerate repeats) from {1, 3, 10}^n."""
    pts = [
        np.asarray(c, dtype=float)
        for c in itertools.combinations_with_replacement([1.0, 3.0, 10.0], n)
    ]
    return pts


def test_criterion_1_single_eigenvalue_reaches_ball_optimum(fk_run):
    objective_F = fk_run.manifest["objective_F"]
    dev = abs(objective_F - BALL_OPTIMUM) / BALL_OPTIMUM
    rnd = roundness(fk_run.domain)
    wall = fk_run.manifest["wall_time_s"]
    print(f"\n  objective_F={objective_F:.5f} target={BALL_OPTIMUM:.5f} "
          f"dev={dev:.4%} roundness={rnd:.4f} wall={wall:.1f}s")
    assert dev <= 0.02
    assert rnd >= 0.97
    assert wall <= 600.0
    assert fk_run.manifest["converged"] is True


def test_criterion_2_second_eigenvalue_reaches_two_ball_optimum(ks_run):
    objective_F = ks_run.manifest["objective_F"]
    dev = abs(objective_F - TWO_BALL_OPTIMUM) / TWO_BALL_OPTIMUM
    parts = split_components(ks_run.domain)
    lam = ks_run.spectrum.lambdas
    gap = (lam[1] - lam[0]) / lam[0]
    vols = sorted(volume(p) for p in parts)
    print(f"\n  objective_F={objective_F:.5f} target={TWO_BALL_OPTIMUM:.5f} "
          f"dev={dev:.4%} components={len(parts)} "
          f"lambda_gap={gap:.2e} volumes={vols[0]:.4f}/{vols[-1]:.4f}")
    assert dev <= 0.03
    assert len(parts) == 2
    assert gap < 0.01  # congruent components carry a matched pair
    assert vols[-1] - vols[0] <= 0.02 * vols[-1]
    assert ks_run.manifest["converged"] is True


def test_criterion_3_regularization_dominates_and_decays():
    p_grid = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    worst_slope = -math.inf
    worst_fd = 0.0
    for spec in FAMILIES:
        gaps = []
        for p in p_grid:
            gap_p = 0.0
            for kappa in kappa_grid(spec.n):
                gap = eval_Fp(spec, kappa, p) - eval_F(spec, kappa)
                assert gap >= -1e-12  # F_p dominates F everywhere
                gap_p = max(gap_p, gap)
            gaps.append(gap_p)
        slope = np.polyfit(np.log(p_grid), np.log(gaps), 1)[0]
        worst_slope = max(worst_slope, slope)
        for p in (8.0, 32.0):
            for kappa in kappa_grid(spec.n)[::2]:
                xi = grad_Fp(spec, kappa, p)
                for i in range(spec.n):
                    e = np.zeros(spec.n)
                    e[i] = 1e-6
                    fd = (eval_Fp(spec, kappa + e, p)
                          - eval_Fp(spec, kappa - e, p)) / 2e-6
                    worst_fd = max(worst_fd, abs(xi[i] - fd))
    print(f"\n  families={len(FAMILIES)} worst_gap_slope={worst_slope:.3f} "
          f"worst_grad_vs_fd={worst_fd:.2e}")
    assert worst_slope <= -0.9  # gap shrinks like 1/p
    assert worst_fd <= 1e-4


def test_criterion_4_weights_concentrate_on_active_eigenvalue():
    spec2 = ObjectiveSpec("linear", n=2, coeffs=(0, 1))
    xi = grad_Fp(spec2, [1.0, 2.0], 64.0)
    spec1 = ObjectiveSpec("linear", n=1, coeffs=(1,))
    max_err = max(
        abs(grad_Fp(spec1, [2.0], p)[0] - (1.0 + 1.0 / p))
        for p in (4.0, 8.0, 16.0, 32.0, 64.0)
    )
    print(f"\n  xi(p=64)=({xi[0]:.4f}, {xi[1]:.4f}) "
          f"one-variable |xi-(1+1/p)| max={max_err:.1e}")
    assert xi[0] <= 0.05
    assert 0.95 <= xi[1] <= 1.02
    assert max_err <= 1e-12


def test_criterion_5_boundary_optimality_residual(fk_run, ks_run):
    fk = el_residual(fk_run.domain, fk_run.spectrum, fk_run.xi, fk_run.mesh)
    ks = el_residual(ks_run.domain, ks_run.spectrum, ks_run.xi, ks_run.mesh)
    print(f"\n  fk median_abs={fk.median_abs:.4f} (<= 0.10)  "
          f"ks median_abs={ks.median_abs:.4f} (<= 0.15)")
    assert fk.median_abs <= 0.10
    assert ks.median_abs <= 0.15


def test_criterion_6_boundary_energy_windows(fk_run):
    # (a) half-plane oracle at the flagship resolution
    grid = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 257, 257)
    d = half_plane(grid, normal=(0.0, 1.0), offset=0.0)
    sp = Spectrum(lambdas=np.array([1.0]), modes=np.maximum(0.0, -d.phi)[None],
                  resid=np.zeros(1), generation=d.generation)
    h = grid.h
    ramp_devs = []
    for r in (8 * h, 0.15, 0.2):
        W, _ = weiss_profile(d, sp, np.array([1.0]), [(0.0, 0.0)], (r,))
        ramp_devs.append(abs(W[0, 0] - math.pi / 2) / (math.pi / 2))
    # (b) windows on the computed minimizer's boundary
    fk_h = fk_run.domain.grid.h
    radii = (4 * fk_h, 6 * fk_h, 8 * fk_h, 12 * fk_h)
    stride = max(1, len(fk_run.mesh) // 24)
    ws, chats = [], []
    for i in range(0, len(fk_run.mesh), stride):
        W, c_hat = weiss_profile(fk_run.domain, fk_run.spectrum, fk_run.xi,
                                 fk_run.mesh.points[i:i + 1], radii)
        ws.append(W[0, 0])
        chats.append(c_hat[0])
    ws, chats = np.asarray(ws), np.asarray(chats)
    print(f"\n  half-plane dev max={max(ramp_devs):.4%} (<= 5%)  "
          f"minimizer W(4h)/(pi/2) in [{ws.min() / (math.pi / 2):.3f}, "
          f"{ws.max() / (math.pi / 2):.3f}]  c_hat max={chats.max():.3f}")
    assert max(ramp_devs) <= 0.05
    assert np.all(ws >= 0.8 * math.pi / 2)
    assert np.all(ws <= 1.2 * math.pi / 2)
    assert np.all(np.isfinite(chats)) and chats.max() <= 0.5


def test_criterion_7_structural_invariants(fk_run, ks_run):
    notes = []
    # eigenvalue scale covariance on the computed minimizer
    t = 1.25
    lam0 = fk_run.spectrum.lambdas
    lam_t = solve_spectrum(dilate(fk_run.domain, t), len(lam0)).lambdas
    scale_dev = float(np.max(np.abs(lam_t * t**2 / lam0 - 1.0)))
    notes.append(f"scale_dev={scale_dev:.2e}")
    assert scale_dev <= 5e-3
    # domain monotonicity
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 129, 129)
    lam_small = solve_spectrum(disk(g, (0.0, 0.0), 0.7), 3).lambdas
    lam_big = solve_spectrum(disk(g, (0.0, 0.0), 1.1), 3).lambdas
    assert np.all(lam_small >= lam_big)
    # orthonormality of the shipped modes
    flat = fk_run.spectrum.modes.reshape(len(fk_run.spectrum), -1)
    gram = fk_run.domain.grid.h**2 * (flat @ flat.T)
    ortho = float(np.max(np.abs(gram - np.eye(len(gram)))))
    notes.append(f"ortho={ortho:.1e}")
    assert ortho <= 1e-6
    # torsion ball-mean oracle
    db = disk(g, (0.0, 0.0), 1.0)
    mean, = _ball_means(g, solve_torsion(db), [(0.3, 0.2)], 0.2)
    exact = (1.0 - 0.13) / 4.0 - 0.04 / 8.0
    torsion_dev = abs(mean - exact) / exact
    notes.append(f"torsion_dev={torsion_dev:.2e}")
    assert torsion_dev <= 0.02
    # uniform boundary density lower bound on both minimizers
    rho_min = math.inf
    for run in (fk_run, ks_run):
        hh = run.domain.grid.h
        stride = max(1, len(run.mesh) // 32)
        for i in range(0, len(run.mesh), stride):
            for r in (4 * hh, 0.05, 0.1):
                rho_min = min(rho_min, density_ratio(run.domain,
                                                     run.mesh.points[i:i + 1], r)[0])
    notes.append(f"pi*rho_min={math.pi * rho_min:.3f}")
    assert math.pi * rho_min >= 0.1
    # flat boundary classification on the ball
    label, _, _ = classify_boundary(db, extract_boundary(db),
                                    (4 * g.h, 6 * g.h, 8 * g.h, 12 * g.h))
    frac = np.mean(label == "REDUCED")
    notes.append(f"ball_reduced={frac:.3f}")
    assert frac >= 0.99
    # weighted boundary gradient bound on the minimizer
    d = fk_run.domain
    inside = d.inside
    nb = inside & ~(
        np.roll(inside, 1, 0) & np.roll(inside, -1, 0)
        & np.roll(inside, 1, 1) & np.roll(inside, -1, 1)
    )
    grads = _mode_gradients(fk_run.spectrum.modes, d.inside, d.grid.h)
    xis = symmetrized(fk_run.xi, fk_run.spectrum.lambdas)
    g2 = sum(xis[k] * (grads[k][0] ** 2 + grads[k][1] ** 2)
             for k in range(len(xis)))
    grad_max = float(g2[nb].max())
    notes.append(f"boundary_grad_max={grad_max:.3f}")
    assert grad_max <= 4.0
    # cluster structure: simple ground state (fk), matched pair (ks)
    rep_fk = simplicity_report(fk_run.spectrum)
    rep_ks = simplicity_report(ks_run.spectrum)
    assert all(gp >= 0 for gp in rep_fk["rel_gaps"] + rep_ks["rel_gaps"])
    assert rep_fk["clusters"][0] == [0]
    assert rep_ks["clusters"][0] == [0, 1]
    print("\n  " + "  ".join(notes))


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    cfg = write_ini(tmp_path / "det.ini", {
        "run": {"seed": 7},
        "grid": {"nx": 97, "ny": 97},
        "shape": {"kind": "blob", "r0": 1.0, "amp": 0.2, "modes": 4},
        "objective": {"family": "single", "n": 1, "index": 1},
        "regularization": {"p": 16},
        "optimizer": {"dt0": 0.4, "max_steps": 6, "conv_tol": 1e-6},
    })
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run_single("optimize", str(cfg), str(out), None, False) == 0
        outs.append(out)
    identical = []
    for artifact in ("trace.csv", "domain.grid", "spectrum.csv", "xi.csv",
                     "boundary.csv"):
        same = (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
        identical.append(same)
        assert same, f"{artifact} differs between identical reruns"
    print(f"\n  {sum(identical)}/{len(identical)} artifacts byte-identical "
          "across reruns")
