"""Tests of the benchmark's own arithmetic: the tail-percentile rule, the
per-iteration cost, nested self time, failure counting, and agreement with
BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

import importlib.util
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


# -- tail percentile ------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [(1, None), (10, None), (20, None), (21, 52),
                                         (40, 75), (100, 90), (1000, 99)])
def test_tail_percentile_values(n, expected):
    assert bench.tail_percentile(n) == expected


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(21, 400):
        p = bench.tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < 10


def test_percentile_nearest_rank_and_summary():
    samples = list(range(100, 0, -1))
    assert bench.percentile(samples, 90) == 90
    assert bench.percentile(samples, 50) == 50
    s = bench.timing_summary(samples)
    assert (s["n"], s["p50"], s["tail_pct"], s["tail"]) == (100, 50.5, 90, 90)
    assert bench.timing_summary([3.0, 1.0, 2.0])["tail"] is None


# -- us_per_iter and the fixed sweep ---------------------------------------------

def test_fast_cost_takes_a_low_percentile_per_kind_weighted_by_units():
    slow = [("a", 2.0, 1)] * 60
    fast = [("a", 1.0, 1)] * 40
    assert bench.fast_cost(slow + fast) == 1.0
    # kind b costs 3 per unit and carries a quarter of the units
    segs = fast + [("b", 30.0, 10)] * 3 + [("b", 0.0, 0)]
    assert bench.fast_cost(segs) == pytest.approx((1.0 * 40 + 3.0 * 30) / 70)


def test_step_clock_blocks_and_check_units():
    clock = tr.StepClock(block=4)
    clock.stamps = [0.1 * i for i in range(11)]
    clock.end_run()
    assert [(k, round(s, 9), u) for k, s, u in clock.segments] == \
        [("optimizer.prgd_step", 0.4, 4), ("optimizer.prgd_step", 0.4, 4)]
    assert clock.stamps == []
    check = clock._check("check_two_step", lambda: SimpleNamespace(n_samples=50))
    check(), check()
    assert [(k, u) for k, _, u in clock.segments[2:]] == \
        [("verify.check_two_step#0", 50), ("verify.check_two_step#1", 50)]


def test_sweep_runs_are_fixed_by_seed_and_seconds():
    assert bench.run_seeds("kpca-grassmann", 3, 5) == bench.run_seeds("kpca-grassmann", 3, 5)
    assert bench.run_seeds("kpca-grassmann", 3, 5) != bench.run_seeds("kpca-grassmann", 4, 5)
    assert bench.run_count("bm-oblique", 1) == 1
    assert bench.run_count("kpca-grassmann", 17) == 10
    assert bench.run_count("kpca-grassmann", 17, per_seed=2) == 5


# -- self time ------------------------------------------------------------------

def _tracer_with(spans):
    t = tr.Tracer()
    for name, start, end, parent in spans:
        t.name_id.append(t.intern(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.run.append(0)
    return t


def test_self_time_subtracts_direct_children_only():
    t = _tracer_with([("root", 0.0, 10.0, -1), ("mid", 1.0, 4.0, 0),
                      ("leaf", 2.0, 3.0, 1), ("mid", 5.0, 9.0, 0)])
    assert t.self_times() == [3.0, 2.0, 1.0, 4.0]
    stats = tr.aggregate(t)
    assert (stats["mid"].calls, stats["mid"].incl_s, stats["mid"].self_s) == (2, 7.0, 6.0)
    assert sum(s.self_s for s in stats.values()) == 10.0
    assert t.inside("mid") == [False, True, True, True]
    assert tr.count_inside(t, lambda n: n == "leaf", "mid") == (1, 1.0)
    assert tr.count_inside(t, lambda n: n == "leaf", "other") == (0, 0.0)


def test_wrapped_calls_nest_and_self_times_sum_to_root():
    t = tr.Tracer()
    leaf = t.wrap("leaf", lambda: sum(range(1000)))
    mid = t.wrap("mid", lambda: [leaf() for _ in range(3)])
    root = t.wrap("root", lambda: (mid(), leaf()))
    root()
    names = [t.names[i] for i in t.name_id]
    assert names == ["root", "mid", "leaf", "leaf", "leaf", "leaf"]
    assert list(t.parent) == [-1, 0, 1, 1, 1, 0]
    root_dur = t.end[0] - t.start[0]
    assert sum(t.self_times()) == pytest.approx(root_dur, rel=1e-9)
    assert all(s >= 0 for s in t.self_times())


def test_instrument_records_real_nesting_and_restores():
    from geodescent import Grassmann, Sphere, harness, objectives

    original = Grassmann.transport
    man = Grassmann(5, 2)
    rng = np.random.default_rng(0)
    x = man.random_point(rng)
    y = man.exp(x, man.sample_tangent_ball(x, 0.3, rng))
    w = man.sample_tangent_ball(x, 0.5, rng)
    t = tr.Tracer()
    with tr.instrument(t):
        assert harness.min_hess_eig.__wrapped__ is objectives.min_hess_eig.__wrapped__
        man.transport(x, y, w)
    names = [t.names[i] for i in t.name_id]
    assert names == ["manifolds.grassmann.transport", "manifolds.grassmann.log",
                     "manifolds.grassmann.dist"]
    assert list(t.parent) == [-1, 0, 1]
    assert Grassmann.transport is original
    assert "sample_tangent_ball" not in Sphere.__dict__
    assert not hasattr(harness.min_hess_eig, "__wrapped__")


# -- failure counting -----------------------------------------------------------

def _loop_outcome(code=0, final_f=-4.5, angle=0.0, decrease=1.0,
                  classification="second-order"):
    status = "second-order-point"
    return SimpleNamespace(exit_code=code, status=status, classification=classification,
                           messages=[], summary={"final_f": final_f, "decrease": decrease,
                                                 "principal_angle_max": angle})


def test_kpca_criteria():
    ok = bench.check_outcome("kpca-grassmann", _loop_outcome())
    assert (ok["attempted"], ok["failed"], ok["problems"]) == (1, 0, [])
    bad = bench.check_outcome("kpca-grassmann", _loop_outcome(final_f=-4.49, angle=0.1))
    assert (bad["failed"], len(bad["failures"]), bad["problems"]) == (1, 2, [])


def test_bm_criteria_and_exit_code_consistency():
    ok = bench.check_outcome("bm-oblique", _loop_outcome(decrease=5.0))
    assert ok["failed"] == 0
    flat = bench.check_outcome("bm-oblique", _loop_outcome(decrease=0.0))
    assert flat["failed"] == 1 and not flat["problems"]
    saddle = bench.check_outcome("bm-oblique", _loop_outcome(code=1, classification="saddle"))
    assert saddle["failed"] == 1 and not saddle["problems"]
    lying = bench.check_outcome("bm-oblique", _loop_outcome(code=0, classification="saddle"))
    assert lying["problems"]


def _verify_outcome(failing=(), coupling="coupling: PASS (growth fraction 1.000)", code=None):
    ids = ["descent", "descent-negative-control", "two-step", "log-bilipschitz",
           "transport-contraction", "holonomy", "linearization", "gradient-taylor"]
    reports = [SimpleNamespace(lemma_id=i, passed=i not in failing) for i in ids]
    messages = [coupling] if coupling else []
    all_ok = not failing and coupling and "PASS" in coupling
    return SimpleNamespace(exit_code=(0 if all_ok else 1) if code is None else code,
                           reports=reports, messages=messages)


def test_verify_counts_one_operation_per_check():
    ok = bench.check_outcome("verify-sphere", _verify_outcome())
    assert (ok["attempted"], ok["failed"], ok["problems"]) == (8, 0, [])
    descent = bench.check_outcome("verify-sphere", _verify_outcome(failing=("descent",)))
    assert (descent["failed"], descent["failures"]) == (1, ["descent: FAIL"])
    control = bench.check_outcome("verify-sphere",
                                  _verify_outcome(failing=("descent-negative-control",)))
    assert control["failed"] == 1
    skipped = bench.check_outcome("verify-sphere", _verify_outcome(coupling="coupling: skipped"))
    assert skipped["failed"] == 1 and not skipped["problems"]
    two = bench.check_outcome("verify-sphere", _verify_outcome(failing=("holonomy", "two-step")))
    assert two["failed"] == 2
    lying = bench.check_outcome("verify-sphere", _verify_outcome(failing=("holonomy",), code=0))
    assert lying["problems"]


# -- BENCHMARK.json ---------------------------------------------------------------

def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.per_layer_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)
