"""Where the traced run wraps the program, and the per-layer metrics it reports.

Each layer is one module of ``eigenshape``. Functions are wrapped in the
namespace of the module that calls them, so the program's own lookups go
through the wrapper; nothing in the program changes. ``per_layer_spec()``
lists every per-layer metric with the end-to-end metric and workload it
should move; BENCHMARK.json carries the same names, units and directions.
"""

from __future__ import annotations

from tracer import Tracer

#: (module:attribute replaced, span name). The spectral functions called by
#: solve_spectrum and solve_torsion are looked up in eigenshape.spectral.
SPANS = (
    ("eigenshape.optimizer:solve_spectrum", "spectral.solve_spectrum"),
    ("eigenshape.cli:solve_spectrum", "spectral.solve_spectrum"),
    ("eigenshape.spectral:assemble_laplacian", "spectral.assemble_laplacian"),
    ("eigenshape.cli:solve_torsion", "spectral.solve_torsion"),
    ("eigenshape.optimizer:reinitialize", "domain.reinitialize"),
    ("eigenshape.optimizer:advect", "optimizer.advect"),
    ("eigenshape.optimizer:shape_velocity", "optimizer.shape_velocity"),
    ("eigenshape.optimizer:extend_velocity", "optimizer.extend_velocity"),
    ("eigenshape.optimizer:eval_Fp", "objective.eval_Fp"),
    ("eigenshape.optimizer:grad_Fp", "objective.grad_Fp"),
    ("eigenshape.optimizer:eval_penalty_E", "objective.eval_penalty_E"),
    ("eigenshape.cli:el_residual", "diagnostics.el_residual"),
    ("eigenshape.cli:weiss_profile", "diagnostics.weiss_profile"),
    ("eigenshape.cli:classify_boundary", "diagnostics.classify_boundary"),
    ("eigenshape.cli:torsion_probe", "diagnostics.torsion_probe"),
    ("eigenshape.cli:write_grid_dump", "cli.write"),
    ("eigenshape.cli:write_boundary_csv", "cli.write"),
    ("eigenshape.cli:write_spectrum_csv", "cli.write"),
    ("eigenshape.cli:write_trace_csv", "cli.write"),
    ("eigenshape.cli:write_weiss_csv", "cli.write"),
    ("eigenshape.cli:write_xi_csv", "cli.write"),
    # cmd_solve and _write_spectrum_artifacts import it at call time
    ("eigenshape.domain:write_field_dump", "cli.write"),
    ("eigenshape.cli:write_manifest", "cli.write_manifest"),
    ("eigenshape.cli:read_grid_dump", "cli.read"),
    ("eigenshape.cli:read_field_dump", "cli.read"),
)


class _TracedLU:
    """A SuperLU factorization whose solves are spans counting right-hand sides."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the program for one traced run."""
    for target, name in SPANS:
        tracer.patch(target, name)

    def count_samples(stats, mesh):
        stats.add("samples", len(mesh))
        return mesh

    for target in ("eigenshape.optimizer:extract_boundary", "eigenshape.cli:extract_boundary"):
        tracer.patch(target, "domain.extract_boundary", count_samples)

    def count_accepted(stats, result):
        stats.add("accepted", 0 if result[2] else 1)
        return result

    tracer.patch("eigenshape.optimizer:step", "optimizer.step", count_accepted)

    def count_rhs(stats, x):
        stats.add("rhs", x.shape[1] if x.ndim == 2 else 1)
        return x

    def traced_lu(stats, lu):
        # SuperLU.nnz counts the stored entries of both factors; L.nnz + U.nnz
        # would copy the factors on every call inside the timed spans.
        stats.add("nnz", lu.nnz)
        return _TracedLU(lu, tracer.wrap(lu.solve, "spectral.lu_solve", count_rhs))

    tracer.patch("eigenshape.spectral:splu", "spectral.splu", traced_lu)


_FN = ("calls", "s", "self_s")
_LAT = ("ms_p50", "ms_tail", "ms_tail_pct")
# End-to-end names, with the per-command figure each stands for.
_OPT = "wall_s (optimize_s) and tta_s (tta_1pct_s) on fk, ks"
_OPT_WALL = "wall_s (optimize_s) on fk, ks"
_SOLVE = "tta_s and wall_s (solve_s) on solve_diagnose"
_DIAG = "wall_s (diagnose_s) on solve_diagnose only"

#: span -> (fields, what it should move). Fields are SpanStats attributes,
#: counters, or latency keys.
_SPAN_METRICS = {
    "spectral.solve_spectrum": (_FN + ("failed",) + _LAT, f"{_OPT}; {_SOLVE}"),
    "spectral.assemble_laplacian": (_FN + _LAT, f"{_OPT}; {_SOLVE}"),
    "spectral.splu": (("calls", "s", "nnz") + _LAT,
                      f"{_OPT}; {_SOLVE}; nnz also peak_rss_mb on solve_diagnose"),
    "spectral.lu_solve": (("calls", "rhs", "s") + _LAT, _OPT),
    "spectral.solve_torsion": (_FN, f"{_SOLVE} and wall_s (diagnose_s); "
                                    "never called on fk, ks"),
    "domain.reinitialize": (_FN, f"{_OPT_WALL}; never called on solve_diagnose"),
    "domain.extract_boundary": (_FN + ("samples",) + _LAT, _OPT_WALL),
    "optimizer.step": (("calls", "accepted", "s", "self_s") + _LAT,
                       f"{_OPT}; a stop-rule change moves calls and wall_s, not tta_s"),
    "optimizer.advect": (_FN + _LAT, f"{_OPT}; calls = line-search trials"),
    "optimizer.shape_velocity": (_FN + _LAT, _OPT_WALL),
    "optimizer.extend_velocity": (_FN + _LAT, _OPT_WALL),
    "objective.eval_Fp": (_FN + _LAT, f"{_OPT_WALL}; expected small, "
                                      "predicted no change on every workload"),
    "objective.grad_Fp": (_FN + _LAT, "as objective.eval_Fp"),
    "objective.eval_penalty_E": (_FN + _LAT, "as objective.eval_Fp"),
    "diagnostics.el_residual": (_FN, _DIAG),
    "diagnostics.weiss_profile": (_FN + _LAT, _DIAG),
    "diagnostics.classify_boundary": (_FN, _DIAG),
    "diagnostics.torsion_probe": (_FN + _LAT, _DIAG),
    "cli.write": (("calls", "s"), f"{_SOLVE}; a small part of {_OPT_WALL}"),
    "cli.write_manifest": (("calls", "s"), "tta_s on solve_diagnose and wall_s "
                                           "everywhere (hashing)"),
    "cli.read": (("calls", "s"), _DIAG),
}

#: Metrics not tied to one span: name -> (unit, better, what it should move).
_OTHER = {
    "optimizer.accept_ratio": ("1", "higher", "accepted steps / advect trials "
                               f"(base: optimizer.advect.calls); {_OPT}"),
    "diagnostics.el_median_abs": ("1", "lower", "EL residual median of the "
                                  "final artifacts; the optimality defect on fk, ks"),
    "cli.bytes_written": ("B", "lower", f"size of the run directories; {_SOLVE}"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall_s, the cost of "
                         "tracing; should stay within run-to-run noise everywhere"),
}

_UNITS = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower"),
          "failed": ("count", "lower"), "accepted": ("count", "lower"),
          "samples": ("count", "lower"), "rhs": ("count", "lower"),
          "nnz": ("count", "lower"), "ms_p50": ("ms", "lower"),
          "ms_tail": ("ms", "lower"), "ms_tail_pct": ("%", "higher")}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric: name, unit, better, moves."""
    out = []
    for span, (fields, moves) in _SPAN_METRICS.items():
        for field in fields:
            unit, better = _UNITS[field]
            out.append({"name": f"{span}.{field}", "unit": unit,
                        "better": better, "moves": moves})
    for name, (unit, better, moves) in _OTHER.items():
        out.append({"name": name, "unit": unit, "better": better, "moves": moves})
    return out


def span_values(tracer: Tracer) -> dict[str, float]:
    """Values of every span metric of ``per_layer_spec`` after a traced run."""
    values = {}
    for span, (fields, _) in _SPAN_METRICS.items():
        st = tracer.stat(span)
        lat = st.latency_ms()
        for field in fields:
            if field in lat:
                v = lat[field]
            elif field in ("calls", "s", "self_s", "failed"):
                v = getattr(st, field)
            else:
                v = st.counters.get(field, 0)
            values[f"{span}.{field}"] = v
    trials = tracer.stat("optimizer.advect").calls
    accepted = tracer.stat("optimizer.step").counters.get("accepted", 0)
    values["optimizer.accept_ratio"] = accepted / trials if trials else 0.0
    return values
