"""The benchmark's workloads: INI inputs generated from a seed, their
closed-form answers, and the checks their outputs must pass.

Only the standard library is used here, so the parent process and the tests
can import this module without numpy or the program on the path.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("fk", "ks", "solve_diagnose")

#: Seed of the flagship runs in tests/conftest.py, whose configurations fk
#: and ks reproduce exactly, and the program seed of every workload (it also
#: draws the eigensolver's cold start block, whose sweep count would
#: otherwise vary with the benchmark seed). The benchmark seed does not
#: change fk or ks: across
#: blob seeds the run length varies by up to 30% (ks: 45 to 58 accepted
#: steps over seeds 11 to 15), and even a translation of the ks pair breaks
#: its up-down symmetry and takes it from 45 to 54-60 accepted steps. Either
#: is wider than any bound the benchmark can hold, and ks would lose the
#: stall right after a reinit that the stop-rule work targets.
FLAGSHIP_SEED = 11

#: Seed, besides the default 11, on which the correctness checks were
#: confirmed on the unmodified program. Claims of later changes must also
#: hold on it.
HELD_OUT_SEED = 29

J01 = 2.404825557695773
BALL_OPTIMUM = 2.0 * J01 * math.sqrt(math.pi)            # fk: lambda_1 + |Omega|
TWO_BALL_OPTIMUM = 2.0 * math.sqrt(2.0 * math.pi) * J01   # ks: lambda_2 + |Omega|

#: Every Bessel zero j_{m,n} below 6.4; a disk's Dirichlet eigenvalues are
#: (j_{m,n} / r)^2, twice each for m > 0.
BESSEL_ZEROS = {
    (0, 1): 2.404825557695773,
    (1, 1): 3.831705970207512,
    (2, 1): 5.135622301840683,
    (0, 2): 5.520078110286311,
    (3, 1): 6.380161895923983,
}

DISK_MODES = 6
OPT_TOL = {"fk": 0.02, "ks": 0.03}       # acceptance-criterion tolerances
LAMBDA_TOL = 1e-3
TTA_REL = 0.01                           # accuracy that stops the tta clock


def disk_zeros(count: int) -> list[float]:
    """The ``count`` smallest j_{m,n} in eigenvalue order, with multiplicity."""
    zs = []
    for (m, _), z in BESSEL_ZEROS.items():
        zs.extend([z] * (1 if m == 0 else 2))
    zs.sort()
    if count > len(zs) or zs[count - 1] == zs[count]:
        raise ValueError(f"{count} modes would cut a degenerate pair or exceed the table")
    return zs[:count]


def ini_text(sections: dict) -> str:
    lines = []
    for name, kv in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
        lines.append("")
    return "\n".join(lines)


def _optimize_sections(grid: dict, shape: dict, n: int) -> dict:
    return {
        "run": {"seed": FLAGSHIP_SEED},
        "grid": grid,
        "shape": shape,
        "objective": {"family": "single", "n": n, "index": n},
        "regularization": {"p": 32},
        "optimizer": {"dt0": 0.5, "max_steps": 250, "conv_tol": 1e-6},
    }


def make_inputs(workload: str, seed: int) -> dict:
    """Input files (name -> text) and the closed-form answer for one run.

    Only solve_diagnose depends on ``seed``; fk and ks are the flagship runs.

    Returns ``{"files": {...}, "commands": [(command, ini, out_dir)], ...}``
    with every path relative to the run directory.
    """
    if workload == "fk":
        sections = _optimize_sections(
            {"x0": -2.0, "y0": -2.0, "x1": 2.0, "y1": 2.0, "nx": 257, "ny": 257},
            {"kind": "blob", "r0": 0.9, "amp": 0.22, "modes": 5},
            n=1,
        )
        return {"files": {"fk.ini": ini_text(sections)},
                "commands": [("optimize", "fk.ini", "optimize")],
                "optimum": BALL_OPTIMUM, "index": 1}
    if workload == "ks":
        sections = _optimize_sections(
            {"x0": -2.4, "y0": -2.4, "x1": 2.4, "y1": 2.4, "nx": 241, "ny": 241},
            {"kind": "two_blobs", "sep": 2.1, "r0": 0.8,
             "amp": 0.18, "modes": 4},
            n=2,
        )
        return {"files": {"ks.ini": ini_text(sections)},
                "commands": [("optimize", "ks.ini", "optimize")],
                "optimum": TWO_BALL_OPTIMUM, "index": 2}
    if workload == "solve_diagnose":
        rng = random.Random(seed)
        cx, cy = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
        # a narrow radius range: r in [1.3, 1.5] changes the unknowns by 33%
        r = rng.uniform(1.38, 1.42)
        solve = ini_text({
            "run": {"seed": FLAGSHIP_SEED},
            "grid": {"x0": -2.0, "y0": -2.0, "x1": 2.0, "y1": 2.0,
                     "nx": 513, "ny": 513},
            "shape": {"kind": "disk", "cx": repr(cx), "cy": repr(cy), "r": repr(r)},
            "solve": {"modes": DISK_MODES, "torsion": "true"},
        })
        diagnose = ini_text({
            "diagnose": {"domain": "solve/domain.grid",
                         "spectrum": "solve/spectrum.csv",
                         "xi": "xi.csv", "probes": 96},
        })
        return {"files": {"solve.ini": solve, "diagnose.ini": diagnose,
                          "xi.csv": "k,xi\n1,1.0\n"},
                "commands": [("solve", "solve.ini", "solve"),
                             ("diagnose", "diagnose.ini", "diagnose")],
                "lambdas": [(z / r) ** 2 for z in disk_zeros(DISK_MODES)]}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def time_to_accuracy(rows, accepted_returns, t_start, optimum, index, rel=TTA_REL):
    """Seconds from ``t_start`` to the return of the first accepted step whose
    F + |Omega| is within ``rel`` of ``optimum``; None if no step gets there.

    ``rows`` are trace.csv rows (step 0 is the initial shape, step k the k-th
    accepted step) and ``accepted_returns[k - 1]`` is the clock reading when
    the k-th accepted step returned. F + |Omega| is ``lambda<index> + volume``,
    the unregularized objective of the single family.
    """
    for row in rows:
        k = int(row["step"])
        F = float(row[f"lambda{index}"]) + float(row["volume"])
        if k >= 1 and abs(F - optimum) <= rel * optimum:
            return accepted_returns[k - 1] - t_start
    return None


def digits(rel_err: float) -> float:
    """Correct decimal digits of an answer with relative error ``rel_err``,
    from 0 (error of 100% or more) to 16."""
    return -math.log10(min(max(rel_err, 1e-16), 1.0))
