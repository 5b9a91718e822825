"""Tests of the benchmark's own logic: python -m pytest perfbench"""

import json
import pathlib

import pytest

import layers
import run
import tracer
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _rows(values, index=1):
    return [{"step": str(k), f"lambda{index}": repr(v), "volume": "0.0"}
            for k, v in enumerate(values)]


def test_tta_is_the_return_of_the_first_step_within_one_percent():
    opt = 10.0
    # step 0 is already within 1% but is not an accepted step; step 2 is the
    # first accepted step within 1%, step 3 falls back out
    rows = _rows([10.05, 11.0, 10.09, 10.2, 10.01])
    returns = [1.5, 2.25, 3.0, 4.0]
    assert workloads.time_to_accuracy(rows, returns, 0.5, opt, 1) == pytest.approx(1.75)


def test_tta_uses_the_index_column_and_volume():
    rows = [{"step": "0", "lambda1": "1.0", "lambda2": "9.0", "volume": "3.0"},
            {"step": "1", "lambda1": "1.0", "lambda2": "9.0", "volume": "3.05"}]
    assert workloads.time_to_accuracy(rows, [7.0], 5.0, 12.0, 2) == pytest.approx(2.0)
    assert workloads.time_to_accuracy(rows, [7.0], 5.0, 12.0, 1) is None


def test_tta_is_none_when_no_step_gets_within_tolerance():
    rows = _rows([12.0, 11.0, 10.2])
    assert workloads.time_to_accuracy(rows, [1.0, 2.0], 0.0, 10.0, 1) is None


@pytest.mark.parametrize("n, pct", [(0, None), (19, None), (20, 50.0), (39, 50.0),
                                    (40, 75.0), (100, 90.0), (150, 90.0), (199, 90.0),
                                    (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_calls_beyond_it(n, pct):
    assert tracer.tail_percentile(n) == pct


def test_latency_percentiles_need_twenty_calls():
    st = tracer.SpanStats(durations=[0.001 * k for k in range(1, 20)])
    assert st.latency_ms() == {"ms_p50": 0.0, "ms_tail": 0.0, "ms_tail_pct": 0.0}
    st = tracer.SpanStats(durations=[0.001 * k for k in range(100, 0, -1)])
    lat = st.latency_ms()
    assert lat["ms_p50"] == pytest.approx(50.0)
    assert lat["ms_tail"] == pytest.approx(90.0)
    assert lat["ms_tail_pct"] == 90.0


def test_disk_modes_follow_bessel_zero_order():
    z = workloads.BESSEL_ZEROS
    assert workloads.disk_zeros(6) == [z[0, 1], z[1, 1], z[1, 1], z[2, 1], z[2, 1], z[0, 2]]
    with pytest.raises(ValueError):
        workloads.disk_zeros(4)  # would keep one of the j21 pair


def test_bessel_table_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for (m, n), z in workloads.BESSEL_ZEROS.items():
        assert special.jn_zeros(m, n)[-1] == pytest.approx(z, rel=1e-14)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_wrapped_children():
    clk = FakeClock()
    tr = tracer.Tracer(clk)

    def inner():
        clk.now += 2.0

    inner_t = tr.wrap(inner, "inner")

    def outer():
        clk.now += 1.0
        inner_t()
        inner_t()
        clk.now += 3.0

    tr.wrap(outer, "outer")()
    assert tr.stats["outer"].s == pytest.approx(8.0)
    assert tr.stats["outer"].self_s == pytest.approx(4.0)
    assert tr.stats["inner"].calls == 2
    assert tr.stats["inner"].self_s == pytest.approx(4.0)


def test_nested_span_of_the_same_name_counts_once():
    clk = FakeClock()
    tr = tracer.Tracer(clk)

    def field_dump():
        clk.now += 1.0

    dump = tr.wrap(field_dump, "cli.write")

    def grid_dump():
        clk.now += 0.5
        dump()

    tr.wrap(grid_dump, "cli.write")()
    dump()
    st = tr.stats["cli.write"]
    assert (st.calls, st.s, st.self_s) == (2, pytest.approx(2.5), pytest.approx(2.5))


def test_failed_calls_are_counted_and_reraised():
    tr = tracer.Tracer(FakeClock())

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tr.wrap(boom, "f")()
    assert (tr.stats["f"].calls, tr.stats["f"].failed) == (1, 1)


def test_patch_replaces_and_restore_puts_back():
    import statistics
    original = statistics.median
    tr = tracer.Tracer(FakeClock())
    tr.patch("statistics:median", "m", lambda st, r: r + 1)
    assert statistics.median([1, 3]) == 3
    tr.restore()
    assert statistics.median is original
    assert tr.stats["m"].calls == 1


def test_inputs_depend_on_the_seed_only_where_stated():
    for w in ("fk", "ks"):
        assert workloads.make_inputs(w, 11) == workloads.make_inputs(w, 12)
    a = workloads.make_inputs("solve_diagnose", 11)
    assert a == workloads.make_inputs("solve_diagnose", 11)
    assert a != workloads.make_inputs("solve_diagnose", 12)


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert spec["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")}
                                 for m in layers.per_layer_spec()]
