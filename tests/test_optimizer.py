import dataclasses
import math
import re
import tracemalloc
from collections.abc import Sequence
from dataclasses import fields

import numpy as np
import pytest

from geodescent import (
    AssumptionParams,
    BurerMonteiro,
    DiagonalQuadratic,
    Euclidean,
    Grassmann,
    KPCA,
    Oblique,
    Objective,
    OptState,
    RunResult,
    Sphere,
    classify_stationarity,
    derive_thresholds,
    min_hess_eig,
    practical_thresholds,
    prgd_step,
    rgd_baseline,
    run,
)
from geodescent.harness import (
    _build_problem,
    _seed_streams,
    _TRACE_ROWS_KEPT,
    _thresholds_for,
    fmt,
    parse_config,
    write_trace_csv,
)
from geodescent.optimizer import Trace, TraceRow, clamped_step

D_FIG = np.array([1.0, -1.0, 4.0])


def fig_objective():
    return DiagonalQuadratic(D_FIG)


def fig_thresholds():
    # the Figure-1 practical parameters
    return practical_thresholds(8.0, 8.0, 1e-4, dim_d=2,
                                eta=0.05, r=1e-3, g_thres=1e-4, t_thres=200,
                                f_thres=1e-8)


class Constant(Objective):
    def __init__(self, manifold, c=0.0):
        self.manifold = manifold
        self.c = c

    def value(self, x):
        return self.c

    def ambient_grad(self, x):
        return np.zeros(self.manifold.shape)


class Bad(Constant):
    def value(self, x):
        return math.nan


class TestDeriveThresholds:
    PARAMS = AssumptionParams(beta=8.0, rho=8.0, epsilon=0.1, delta=0.1,
                              f_gap=2.0, dim_d=2, injectivity=math.pi)

    def test_c_max_maximal_admissible(self):
        thr = derive_thresholds(self.PARAMS, c_hat=4.0)
        assert thr.c_max == pytest.approx((1.0 / 896.0) ** 2, rel=1e-15)
        assert math.sqrt(thr.c_max) <= 1.0 / (56.0 * 16.0) + 1e-18

    def test_chi_clamps_at_twelve(self):
        # log(d beta f_gap / (c_hat eps^2 delta)) = log(1) = 0 clamps to 4
        p = AssumptionParams(beta=1.0, rho=1.0, epsilon=1.0, delta=0.5,
                             f_gap=1.0, dim_d=2)
        thr = derive_thresholds(p, c_hat=4.0)
        assert thr.chi == pytest.approx(12.0)

    def test_full_set_matches_independent_evaluation(self):
        # frozen values from a spreadsheet-style evaluation of the parameter
        # box for (d=2, beta=8, rho_hat=8, eps=0.1, delta=0.1, f_gap=2, c_hat=4)
        thr = derive_thresholds(self.PARAMS, c_hat=4.0)
        expected = {
            "c_max": 1.2456154336734693e-06,
            "chi": 26.96159046198592,
            "r": 1.535327310012351e-07,
            "f_thres": 7.105627953361329e-13,
            "g_thres": 1.535327310012351e-07,
            "eta": 1.5570192920918366e-07,
            "gamma": 0.8944271909999159,
            "kappa": 8.94427190999916,
            "script_F": 9.980542489349673e-11,
            "script_G": 4.148605105382996e-06,
            "script_S": 2.4057586190595688e-05,
            "script_T": 37243969.23704066,
        }
        for name, val in expected.items():
            assert getattr(thr, name) == pytest.approx(val, rel=1e-12), name
        assert thr.t_thres == 193600521

    def test_c_hat_below_four_rejected(self):
        with pytest.raises(ValueError, match="c_hat"):
            derive_thresholds(self.PARAMS, c_hat=3.0)

    def test_epsilon_bound_violation_warns_not_raises(self):
        # with the tiny theory step size the bound only binds for large
        # fitted curvature constants
        p = AssumptionParams(beta=8.0, rho=8.0, epsilon=10.0, delta=0.1,
                             f_gap=2.0, dim_d=2, injectivity=math.pi)
        with pytest.warns(RuntimeWarning, match="admissible accuracy bound"):
            derive_thresholds(p, c_hat=4.0, c2=1e9, c3=1e9)

    @pytest.mark.parametrize("name,val", [
        ("beta", math.nan), ("rho", math.inf), ("rho_hat", math.nan), ("epsilon", math.inf),
        ("f_gap", math.nan), ("beta", -1.0),
        # the injectivity radius may be infinite (flat space), never <= 0 or nan
        ("injectivity", -math.pi), ("injectivity", 0.0), ("injectivity", math.nan),
    ])
    def test_assumptions_reject_values_not_finite_and_positive(self, name, val):
        args = {"beta": 8.0, "rho": 8.0, "epsilon": 0.1, "delta": 0.1, "f_gap": 2.0,
                "dim_d": 2, name: val}
        rule = "positive" if name == "injectivity" else "finite and positive"
        with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {val}$"):
            AssumptionParams(**args)

    @pytest.mark.parametrize("name, val, message", [
        ("delta", 1.0, r"delta must lie in \(0, 1\)"), ("dim_d", 0, "dim_d must be >= 1"),
    ])
    def test_assumptions_reject_delta_and_dimension_out_of_range(self, name, val, message):
        args = {"beta": 8.0, "rho": 8.0, "epsilon": 0.1, "delta": 0.1, "f_gap": 2.0,
                "dim_d": 2, name: val}
        with pytest.raises(ValueError, match=f"^{message}$"):
            AssumptionParams(**args)


class TestPracticalThresholds:
    def test_documented_defaults(self):
        thr = practical_thresholds(8.0, 8.0, 1e-2)
        assert thr.eta == pytest.approx(0.1 / 8.0)
        assert thr.r == pytest.approx(0.1)
        assert thr.g_thres == pytest.approx(1e-2)
        assert thr.t_thres == math.ceil(4.0 / (thr.eta * math.sqrt(8.0 * 1e-2)))
        assert thr.f_thres == pytest.approx(0.1 * math.sqrt(1e-6 / 8.0))
        assert thr.mode == "practical"

    def test_overrides_win(self):
        thr = practical_thresholds(8.0, 8.0, 1e-2, eta=0.3, r=1e-5, t_thres=77)
        assert (thr.eta, thr.r, thr.t_thres) == (0.3, 1e-5, 77)

    @pytest.mark.parametrize("kwargs", [
        {"beta_hat": math.nan}, {"rho_hat": math.inf}, {"epsilon": math.nan},
        {"epsilon": -1e-4}, {"eta": math.inf}, {"r": math.nan}, {"g_thres": math.inf},
        {"f_thres": math.nan}, {"f_thres": 0.0},
        {"t_thres": math.inf}, {"t_thres": math.nan}, {"t_thres": 2.5}, {"t_thres": 0},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_rejects_values_not_finite_and_positive(self, kwargs):
        args = {"beta_hat": 8.0, "rho_hat": 8.0, "epsilon": 1e-4, **kwargs}
        (name, val), = kwargs.items()
        rule = "an integer >= 1" if name == "t_thres" else "finite and positive"
        with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {val}$"):
            practical_thresholds(**args)


class TestPrgdStep:
    def test_large_gradient_takes_descending_step(self):
        obj = fig_objective()
        man = obj.manifold
        thr = fig_thresholds()
        x0 = man.random_point(np.random.default_rng(0))
        state = OptState.initial(x0, thr)
        f0 = obj.value(x0)
        g0 = obj.rgrad(x0)
        out = prgd_step(state, thr, obj, np.random.default_rng(1))
        assert isinstance(out, OptState)
        assert not out.trace.rows[-1].perturbed
        if g0.norm() > thr.g_thres:
            eta_bar = min(thr.eta, math.pi / g0.norm())
            assert obj.value(out.x) <= f0 - 0.5 * eta_bar * g0.norm() ** 2 + 1e-12

    def test_small_gradient_perturbs_within_radius(self):
        obj = fig_objective()
        man = obj.manifold
        thr = fig_thresholds()
        x0 = man.point([1.0, 0.0, 0.0])  # exact saddle: zero gradient
        state = OptState.initial(x0, thr)
        out = prgd_step(state, thr, obj, np.random.default_rng(2))
        assert isinstance(out, OptState)
        row = out.trace.rows[-1]
        assert row.perturbed
        # replay the draw: the row is taken at the kicked point, within r of x0
        kicked = man.exp(x0, man.sample_tangent_ball(x0, thr.r, np.random.default_rng(2)))
        assert row.f == obj.value(kicked)
        assert man.dist(kicked, x0) <= thr.r + 1e-12
        assert out.x_tilde is not None and np.array_equal(out.x_tilde.coords, x0.coords)

    def test_window_without_decrease_terminates_with_anchor(self):
        man = Sphere(3)
        obj = Constant(man, 0.0)
        thr = practical_thresholds(1.0, 1.0, 1e-2,
                                   eta=0.1, r=1e-3, t_thres=5, f_thres=1e-8)
        x0 = man.point([1.0, 0.0, 0.0])
        state = OptState.initial(x0, thr)
        rng = np.random.default_rng(3)
        result = None
        for _ in range(100):
            out = prgd_step(state, thr, obj, rng)
            if isinstance(out, RunResult):
                result = out
                break
            state = out
        assert result is not None
        assert result.status == "second-order-point"
        assert np.array_equal(result.final_point.coords, x0.coords)
        assert result.final_f == 0.0
        assert result.iterations == thr.t_thres + 1

    def test_nonfinite_cost_is_step_failure(self):
        man = Sphere(3)
        thr = fig_thresholds()
        state = OptState.initial(man.point([1.0, 0, 0]), thr)
        out = prgd_step(state, thr, Bad(man), np.random.default_rng(0))
        assert isinstance(out, RunResult)
        assert out.status == "step-failure"


def parent_prgd_run(obj, x0, thr, max_iters, rng):
    """`run` stepping as it did before steps were replayed: each step computes
    its gradient and its next point.  The reference for `TestReplay`; returns
    the trace and the final point."""
    man, x = obj.manifold, x0
    t, t_noise, x_tilde = 0, -thr.t_thres - 1, None
    trace = Trace()
    for _ in range(max_iters):
        fx, grad = obj.value_and_rgrad(x)
        gnorm = grad.norm()
        perturbed = False
        if gnorm <= thr.g_thres and t - t_noise > thr.t_thres:
            t_noise, x_tilde = t, x
            x = man.exp(x, man.sample_tangent_ball(x, thr.r, rng))
            perturbed = True
            fx, grad = obj.value_and_rgrad(x)
            gnorm = grad.norm()
        if (t - t_noise == thr.t_thres and x_tilde is not None
                and fx - obj.value(x_tilde) > -thr.f_thres):
            trace.append(fx, gnorm, 0.0, False)
            return trace, x_tilde
        x, eta_bar = clamped_step(man, x, grad, gnorm, thr.eta, obj._step_rows)
        trace.append(fx, gnorm, eta_bar * gnorm, perturbed)
        t += 1
    return trace, x


def bm_problem(seed, extra=""):
    """Criterion 2's Burer-Monteiro instance, start and thresholds at `seed`,
    and its run's generator."""
    cfg = parse_config(f"experiment = burer-monteiro\nseed = {seed}\ndim_d = 100\np = 20\n"
                       f"block = 5\nepsilon = 1e-3\n{extra}")
    rng_data, rng_smooth, rng_run, _ = _seed_streams(seed)
    obj, x0, _ = _build_problem(cfg, rng_data)
    thr, _ = _thresholds_for(cfg, obj, x0, rng_smooth)
    return obj, x0, thr, rng_run


def count_calls(monkeypatch, obj, name):
    """The points each call of `obj.<name>` receives, in order."""
    seen, original = [], getattr(obj, name)

    def counting(x, *args):
        seen.append(x)
        return original(x, *args)

    monkeypatch.setattr(obj, name, counting)
    return seen


class SignedZeroStep(Objective):
    """A constant cost on R^2 whose first step moves x0 = (-0.0, 1.0) to
    (-0.0, 0.5); from there a step adds +0.0 to the first coordinate, which
    turns -0.0 into +0.0, and moves the second by less than its rounding."""

    def __init__(self, eta):
        self.manifold = Euclidean(2)
        self.eta = eta

    def value(self, x):
        return 0.0

    def ambient_grad(self, x):
        if x.coords[1] == 1.0:
            return np.array([0.0, 0.5 / self.eta])
        return np.array([-0.0, 1e-20])


class TestReplay:
    """A step is a pure function of x's bytes, the thresholds and the
    objective, so `prgd_step` replays a step from a remembered iterate."""

    # criterion 2's Burer-Monteiro seeds: period 2, a fixed point and period 3;
    # each cycle starts within 280 steps
    SEEDS = (0, 2, 7)
    STEPS = 1_500

    def replayed_run(self, monkeypatch, seed, extra=""):
        """Criterion 2's run at `seed`, capped at STEPS, against the reference
        loop: the same trace, final point and draws.  Returns the run and the
        points its gradients were computed at."""
        obj, x0, thr, rng = bm_problem(seed, extra)
        want_rng = _seed_streams(seed)[2]
        want, want_x = parent_prgd_run(obj, x0, thr, self.STEPS, want_rng)
        calls = count_calls(monkeypatch, obj, "value_and_rgrad")
        result = run(obj, x0, thr, self.STEPS, rng)
        for col in ("f", "gradnorm", "step_norm", "perturbed"):
            assert getattr(result.trace, col).tobytes() == getattr(want, col).tobytes()
        assert result.final_point.coords.tobytes() == want_x.coords.tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state
        return result, calls

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_cycle_replays_with_the_same_bits(self, monkeypatch, seed):
        """Capped at STEPS, a run stays in its first window and ends in its
        cycle.  Each distinct iterate's gradient is computed once, where every
        step computed one before."""
        result, calls = self.replayed_run(monkeypatch, seed)
        assert result.status == "iteration-cap"
        iterates = {x.coords.tobytes() for x in calls}
        perturbations, closes = sum(result.trace.perturbed), 1  # the cap's call
        assert len(calls) <= len(iterates) + perturbations + closes < result.iterations / 4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_perturbation_after_replayed_steps_draws_as_before(self, monkeypatch, seed):
        """With t_thres = 400 a run perturbs twice, the second time after
        replayed steps, and closes its second window, with the reference
        loop's bits and draws.  (Seed 7's second window cycles with period 20,
        which the memo does not hold.)"""
        result, calls = self.replayed_run(monkeypatch, seed, "t_thres = 400\n")
        assert result.status == "second-order-point" and sum(result.trace.perturbed) == 2
        assert len(calls) < result.iterations

    def test_equal_but_not_the_same_bytes_is_a_new_point(self, monkeypatch):
        """A next point equal under == to a remembered iterate, with other
        bytes (+0.0 for -0.0), is a new Point; the step from it then lands on
        its own bytes, keeps that Point and replays."""
        thr = practical_thresholds(1.0, 1.0, 1e-2, eta=0.1, g_thres=1e-30)
        obj = SignedZeroStep(thr.eta)
        x0 = obj.manifold.point([-0.0, 1.0])
        calls = count_calls(monkeypatch, obj, "value_and_rgrad")
        state = OptState.initial(x0, thr)
        xs = []
        for _ in range(4):
            state = prgd_step(state, thr, obj, None)
            xs.append(state.x)
        x1, x2, x3, x4 = xs
        assert x1.coords.tobytes() == np.array([-0.0, 0.5]).tobytes()
        assert np.array_equal(x2.coords, x1.coords) and x2 is not x1
        assert x2.coords.tobytes() == np.array([0.0, 0.5]).tobytes()
        assert x3 is x2 and x4 is x2
        assert calls == [x0, x1, x2]  # the step from x2 replays

    def test_other_thresholds_or_objective_compute_the_step(self, monkeypatch):
        """A memo serves the objective and thresholds objects it was built
        with: an equal ThresholdSet or another objective computes its step."""
        thr = practical_thresholds(1.0, 1.0, 1e-2, eta=0.1, g_thres=1e-30)
        obj, other = SignedZeroStep(thr.eta), SignedZeroStep(thr.eta)
        state = OptState.initial(obj.manifold.point([-0.0, 1.0]), thr)
        for _ in range(3):
            state = prgd_step(state, thr, obj, None)
        fixed = state.x
        calls = count_calls(monkeypatch, obj, "value_and_rgrad")
        other_calls = count_calls(monkeypatch, other, "value_and_rgrad")
        equal = dataclasses.replace(thr)
        assert equal == thr and equal is not thr
        state = prgd_step(state, thr, obj, None)
        assert state.x is fixed and calls == []  # replayed
        state = prgd_step(state, equal, obj, None)
        assert calls == [fixed] and other_calls == []
        state = prgd_step(state, equal, other, None)
        assert len(calls) == 1 and len(other_calls) == 1
        assert state.x.coords.tobytes() == fixed.coords.tobytes()


class TestRun:
    def test_figure_one_scenario_escapes_to_minimum(self):
        obj = fig_objective()
        man = obj.manifold
        thr = fig_thresholds()
        x0 = man.point([1.0, 0.0, 0.0])
        result = run(obj, x0, thr, 100_000, np.random.default_rng(7))
        assert result.status == "second-order-point"
        assert abs(result.final_f - (-1.0)) <= 1e-6
        target = min(man.dist(result.final_point, man.point([0.0, 1.0, 0.0])),
                     man.dist(result.final_point, man.point([0.0, -1.0, 0.0])))
        assert target <= 1e-3

    def test_window_closes_read_the_saved_anchor_values(self):
        """A perturbation saves f and the gradient norm of its anchor with it, so
        a run never evaluates `value`: a window close compares with the saved
        f, and the second-order stop returns the saved pair, with the bits
        of the anchor's own evaluation."""
        calls = []

        class Counted(DiagonalQuadratic):
            def value(self, x):
                calls.append(x)
                return super().value(x)

        obj = Counted(D_FIG)
        x0 = obj.manifold.point([1.0, 0.0, 0.0])
        result = run(obj, x0, fig_thresholds(), 100_000, np.random.default_rng(7))
        assert result.status == "second-order-point" and sum(result.trace.perturbed) >= 2
        assert calls == []
        f, g = fig_objective().value_and_rgrad(result.final_point)
        assert (result.final_f, result.final_gradnorm) == (f, g.norm())

    def test_start_at_exact_minimum_terminates_after_one_window(self):
        obj = fig_objective()
        man = obj.manifold
        thr = fig_thresholds()
        x0 = man.point([0.0, 1.0, 0.0])
        result = run(obj, x0, thr, 100_000, np.random.default_rng(8))
        assert result.status == "second-order-point"
        assert np.array_equal(result.final_point.coords, x0.coords)
        assert result.iterations == thr.t_thres + 1

    def test_zero_objective_terminates_at_first_window(self):
        man = Sphere(4)
        obj = Constant(man, 0.0)
        thr = practical_thresholds(1.0, 1.0, 1e-2,
                                   eta=0.1, r=1e-2, t_thres=10, f_thres=1e-9)
        x0 = man.point([0.0, 0.0, 0.0, 1.0])
        result = run(obj, x0, thr, 1000, np.random.default_rng(9))
        assert result.status == "second-order-point"
        assert result.final_f == 0.0
        assert result.iterations == thr.t_thres + 1

    def test_iteration_cap(self):
        obj = fig_objective()
        x0 = obj.manifold.random_point(np.random.default_rng(1))
        result = run(obj, x0, fig_thresholds(), 3, np.random.default_rng(1))
        assert result.status == "iteration-cap"
        assert result.iterations == 3

    @pytest.mark.parametrize("max_iters", [-1, -5])
    def test_negative_cap_rejected(self, max_iters):
        obj = fig_objective()
        x0 = obj.manifold.random_point(np.random.default_rng(1))
        message = f"^max_iters must be >= 0, got {max_iters}$"
        with pytest.raises(ValueError, match=message):
            run(obj, x0, fig_thresholds(), max_iters, np.random.default_rng(1))
        with pytest.raises(ValueError, match=message):
            rgd_baseline(obj, x0, 0.05, 1e-6, max_iters)

    @pytest.mark.parametrize("obj, other", [
        (DiagonalQuadratic(D_FIG), Euclidean(3)),
        (KPCA(np.diag([0.0, 1.0, 2.0, 3.0, 4.0]), 3), Oblique(5, 3)),
        (BurerMonteiro(np.diag([1.0, 2.0, 3.0, 4.0]), 2), Grassmann(4, 2)),
    ], ids=["diagonal-quadratic", "kpca", "burer-monteiro"])
    def test_start_on_another_manifold_rejected(self, obj, other):
        """x0 has the objective's shape but lies on another manifold."""
        x0 = other.random_point(np.random.default_rng(1))
        with pytest.raises(ValueError, match=f"^point on {re.escape(other.name)}, "
                                             f"expected {re.escape(obj.manifold.name)}$"):
            run(obj, x0, fig_thresholds(), 10, np.random.default_rng(1))

    def test_deterministic_traces(self):
        obj = fig_objective()
        x0 = obj.manifold.point([1.0, 0.0, 0.0])
        thr = fig_thresholds()
        r1 = run(obj, x0, thr, 50_000, np.random.default_rng(21))
        r2 = run(obj, x0, thr, 50_000, np.random.default_rng(21))
        assert r1.iterations == r2.iterations
        assert r1.status == r2.status
        for a, b in zip(r1.trace.rows, r2.trace.rows):
            assert (a.t, a.f, a.gradnorm, a.step_norm, a.perturbed) == \
                   (b.t, b.f, b.gradnorm, b.step_norm, b.perturbed)
        assert np.array_equal(r1.final_point.coords, r2.final_point.coords)


class TestTrace:
    STEPS = 20_000

    def long_run(self):
        """The Figure-1 saddle with a window longer than the cap: one
        perturbation, then plain steps up to STEPS rows."""
        obj = fig_objective()
        thr = practical_thresholds(8.0, 8.0, 1e-4, dim_d=2, eta=0.05, r=1e-3, g_thres=1e-4,
                                   t_thres=2 * self.STEPS, f_thres=1e-8)
        result = run(obj, obj.manifold.point([1.0, 0.0, 0.0]), thr, self.STEPS,
                     np.random.default_rng(7))
        assert result.status == "iteration-cap" and result.iterations == self.STEPS
        return result

    @staticmethod
    def escape_run():
        obj = fig_objective()
        return run(obj, obj.manifold.point([1.0, 0.0, 0.0]), fig_thresholds(), 100_000,
                   np.random.default_rng(7))

    def test_footprint_per_row(self):
        self.long_run()  # warm-up: first-call allocations and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = self.long_run()
            per_row = (tracemalloc.get_traced_memory()[0] - before) / result.iterations
        finally:
            tracemalloc.stop()
        assert per_row <= 40, f"{per_row:.1f} B per trace row"

    def test_iterating_rows_does_not_build_them_all(self):
        rows = self.long_run().trace.rows
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            count = sum(1 for _ in rows)
            grown = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert count == self.STEPS
        assert grown <= 64 * 1024, f"iteration peaked {grown} B above its start"

    def test_row_t_is_its_index(self):
        obj = fig_objective()
        baseline = rgd_baseline(obj, obj.manifold.random_point(np.random.default_rng(4)),
                                eta=0.05, g_tol=1e-6, max_iters=10_000)
        for result in (self.escape_run(), baseline):
            rows = result.trace.rows
            assert len(rows) == result.iterations > 1
            assert [row.t for row in rows] == list(range(len(rows)))
            assert all(rows[i].t == i for i in range(len(rows)))

    def test_rows_view(self, tmp_path):
        result = self.escape_run()
        trace, rows = result.trace, result.trace.rows
        n = len(rows)
        assert isinstance(rows, Sequence) and n == len(trace) == result.iterations
        assert rows[-1] == rows[n - 1] and rows[-1].t == n - 1
        assert rows[-n] == rows[0] and rows[0].perturbed  # step 0 kicks off the saddle
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                rows[bad]
        assert rows[2:5] == [rows[2], rows[3], rows[4]]
        assert rows[::-1][0] == rows[-1] and rows[5:2] == [] and len(rows[:-1]) == n - 1
        with pytest.raises(TypeError):
            rows[0] = rows[1]
        assert not hasattr(rows, "append")
        write_trace_csv(str(tmp_path / "trace.csv"), result)
        header, *lines = (tmp_path / "trace.csv").read_text().splitlines()
        listed = list(rows)
        assert len(listed) == len(lines) == n
        for row, line in zip(listed, lines):
            assert type(row) is TraceRow and isinstance(row.perturbed, bool)
            assert line == ",".join(fmt(getattr(row, f.name)) for f in fields(row))
        assert header == ",".join(f.name for f in fields(TraceRow))

    def test_writer_keeps_the_bytes_of_repeated_rows(self, tmp_path):
        """Rows that cycle, rows equal under == with other bits (signed zeros),
        NaN rows, and more distinct rows than the writer keeps formatted, all
        written with the bytes of the reference writer."""
        cycle = [(0.0, 1.0, -0.0, True), (-0.0, 1.0, 0.0, False), (math.nan, math.inf, -0.0, False)]
        spread = [(float(i), 0.5, 0.25, False) for i in range(3 * _TRACE_ROWS_KEPT)]
        trace = Trace()
        for row in 50 * cycle + spread + spread + 50 * cycle[::-1]:
            trace.append(*row)
        result = RunResult("iteration-cap", None, 0.0, 0.0, len(trace), trace)
        write_trace_csv(str(tmp_path / "trace.csv"), result)
        parent_write_trace_csv(str(tmp_path / "want.csv"), result)
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def parent_write_trace_csv(path, result):
    """`write_trace_csv` formatting each row on its own: the reference."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,f,gradnorm,step_norm,perturbed\n")
        tr = result.trace
        for t, (f, g, s, p) in enumerate(zip(tr.f, tr.gradnorm, tr.step_norm, tr.perturbed)):
            fh.write(f"{t},{fmt(f)},{fmt(g)},{fmt(s)},{fmt(bool(p))}\n")


class TestRunInvariants:
    def test_descent_outside_perturbation_and_step_clamp(self):
        obj = fig_objective()
        man = obj.manifold
        thr = fig_thresholds()  # eta = 0.05 <= 1/beta_hat = 0.1
        result = run(obj, man.point([1.0, 0.0, 0.0]), thr, 100_000,
                     np.random.default_rng(13))
        rows = result.trace.rows
        for a, b in zip(rows, rows[1:]):
            assert a.step_norm <= min(thr.eta * a.gradnorm, math.pi) + 1e-15
            if b.perturbed or a.gradnorm == 0.0:
                continue
            eta_bar = a.step_norm / a.gradnorm
            assert b.f <= a.f - 0.5 * eta_bar * a.gradnorm ** 2 + 1e-12

    def test_step_clamped_at_the_manifold_injectivity_radius(self):
        # eta = 10 makes eta * |grad| about 374 at the start; the sphere clamps it to pi
        obj = DiagonalQuadratic([1.0, -1.0, 40.0])
        thr = practical_thresholds(beta_hat=0.01, rho_hat=8.0, epsilon=1e-4)
        result = run(obj, obj.manifold.point([0.6, 0.0, 0.8]), thr, 2_000,
                     np.random.default_rng(0))
        rows = result.trace.rows
        assert rows[0].step_norm == pytest.approx(math.pi)
        assert all(row.step_norm <= math.pi + 1e-12 for row in rows)

    def test_perturbation_displacement_bounded(self, monkeypatch):
        obj = fig_objective()
        man = obj.manifold
        thr = fig_thresholds()
        draws = []
        sample = Sphere.sample_tangent_ball

        def recording(self, x, radius, rng):
            xi = sample(self, x, radius, rng)
            draws.append((x, xi))
            return xi

        monkeypatch.setattr(Sphere, "sample_tangent_ball", recording)
        result = run(obj, man.point([1.0, 0.0, 0.0]), thr, 100_000,
                     np.random.default_rng(14))
        perturbed_rows = [r for r in result.trace.rows if r.perturbed]
        assert perturbed_rows, "expected at least one perturbation"
        assert len(draws) == len(perturbed_rows)
        for x, xi in draws:
            assert man.dist(man.exp(x, xi), x) <= thr.r + 1e-12

    def test_termination_soundness_over_seeds(self):
        obj = fig_objective()
        man = obj.manifold
        thr = fig_thresholds()
        epsilon, rho_hat, delta = 1e-4, 8.0, 0.1
        bad = 0
        for seed in range(50):
            result = run(obj, man.point([1.0, 0.0, 0.0]), thr, 100_000,
                         np.random.default_rng(seed))
            assert result.status == "second-order-point"
            lam, _ = min_hess_eig(obj, result.final_point, 1e-4,
                                  np.random.default_rng(seed + 1000))
            ok = (result.final_gradnorm <= thr.g_thres
                  and lam >= -math.sqrt(rho_hat * epsilon) - 1e-4)
            bad += 0 if ok else 1
        assert bad <= delta * 50


class TestBenchmarkHooks:
    """The benchmark times `us_per_iter` by wrapping these module globals, so
    the loops must look them up at call time."""

    def test_run_calls_prgd_step_once_per_iteration(self, monkeypatch):
        import geodescent.optimizer as optimizer

        calls = []
        original = optimizer.prgd_step

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer, "prgd_step", counting)
        obj = fig_objective()
        result = run(obj, obj.manifold.point([1.0, 0.0, 0.0]), fig_thresholds(),
                     100_000, np.random.default_rng(7))
        assert result.status == "second-order-point"
        assert len(calls) == result.iterations > 0

    def test_rgd_baseline_calls_prgd_step_once_per_iteration(self, monkeypatch):
        import geodescent.optimizer as optimizer

        calls = []
        original = optimizer.prgd_step

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer, "prgd_step", counting)
        obj = fig_objective()
        result = rgd_baseline(obj, obj.manifold.random_point(np.random.default_rng(4)),
                              0.05, 1e-6, 10_000)
        assert result.status == "first-order-point"
        assert len(calls) == result.iterations > 1

    def test_run_experiment_calls_check_two_step_through_verify(self, monkeypatch, tmp_path):
        import geodescent.verify as geoverify
        from geodescent.harness import parse_config, run_experiment

        calls = []
        original = geoverify.check_two_step

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(geoverify, "check_two_step", counting)
        cfg = parse_config("experiment = verify\nseed = 7\nchecks = two-step, holonomy\n"
                           "n_samples = 20\n")
        out = run_experiment(cfg, out_dir=str(tmp_path / "v"))
        assert len(calls) == 1
        assert [rep.lemma_id for rep in out.reports] == ["two-step", "holonomy"]


class TestBaseline:
    def test_stalls_at_exact_saddle(self):
        obj = fig_objective()
        x0 = obj.manifold.point([1.0, 0.0, 0.0])
        result = rgd_baseline(obj, x0, eta=0.05, g_tol=1e-4, max_iters=10_000)
        assert result.status == "first-order-point"
        assert result.iterations == 1
        assert np.array_equal(result.final_point.coords, x0.coords)
        assert result.final_f == pytest.approx(1.0)

    def test_generic_start_reaches_tolerance(self):
        obj = fig_objective()
        x0 = obj.manifold.random_point(np.random.default_rng(4))
        result = rgd_baseline(obj, x0, eta=0.05, g_tol=1e-6, max_iters=10_000)
        assert result.status == "first-order-point"
        assert result.final_gradnorm <= 1e-6

    def test_deterministic(self):
        obj = fig_objective()
        x0 = obj.manifold.random_point(np.random.default_rng(5))
        r1 = rgd_baseline(obj, x0, 0.05, 1e-6, 10_000)
        r2 = rgd_baseline(obj, x0, 0.05, 1e-6, 10_000)
        assert r1.iterations == r2.iterations
        assert [(a.f, a.gradnorm) for a in r1.trace.rows] == \
               [(b.f, b.gradnorm) for b in r2.trace.rows]

    @pytest.mark.parametrize("eta, seed, max_iters", [
        (0.05, 4, 10_000), (0.05, 5, 10_000), (10.0, 6, 50),
    ], ids=["eta-0.05", "second-seed", "eta-10-to-cap"])
    def test_is_prgd_up_to_its_stop(self, eta, seed, max_iters):
        obj = DiagonalQuadratic([1.0, -1.0, 2.0])
        thr = practical_thresholds(8.0, 8.0, 1e-4, dim_d=2, eta=eta, r=1e-3,
                                   g_thres=1e-4, t_thres=200, f_thres=1e-8)
        x0 = obj.manifold.random_point(np.random.default_rng(seed))
        base = rgd_baseline(obj, x0, thr.eta, thr.g_thres, max_iters)
        full = run(obj, x0, thr, max_iters, np.random.default_rng(seed))
        last = len(base.trace) - 1
        assert last > 0
        for column in ("f", "gradnorm", "step_norm", "perturbed"):
            assert getattr(base.trace, column)[:last] == getattr(full.trace, column)[:last]
        if eta == 10.0:  # every step clamped to the injectivity radius pi
            assert base.status == full.status == "iteration-cap"
            assert list(base.trace.step_norm) == pytest.approx([math.pi] * max_iters)
        else:  # where the baseline stops, PRGD perturbs
            assert base.status == "first-order-point"
            assert full.trace.perturbed[last]

    @pytest.mark.parametrize("status, obj, max_iters, iterations", [
        ("step-failure", Bad(Sphere(3)), 10_000, 0),
        ("iteration-cap", fig_objective(), 3, 3),
    ])
    def test_other_exits(self, status, obj, max_iters, iterations):
        x0 = obj.manifold.random_point(np.random.default_rng(4))
        result = rgd_baseline(obj, x0, 0.05, 1e-6, max_iters)
        assert result.status == status
        assert result.iterations == len(result.trace) == iterations
        if status == "iteration-cap":
            x = result.final_point
            assert result.final_f == obj.value(x)
            assert result.final_gradnorm == obj.rgrad(x).norm()

    @pytest.mark.parametrize("eta, g_tol, message", [
        (-0.05, 1e-6, "eta must be finite and positive, got -0.05"),
        (0.0, 1e-6, "eta must be finite and positive, got 0.0"),
        (math.nan, 1e-6, "eta must be finite and positive, got nan"),
        (math.inf, 1e-6, "eta must be finite and positive, got inf"),
        (0.05, -1.0, "g_tol must be finite and >= 0, got -1.0"),
        (0.05, math.nan, "g_tol must be finite and >= 0, got nan"),
        (0.05, math.inf, "g_tol must be finite and >= 0, got inf"),
    ], ids=["eta-negative", "eta-0", "eta-nan", "eta-inf", "g_tol-negative", "g_tol-nan",
            "g_tol-inf"])
    def test_rejects_bad_step_or_tolerance(self, eta, g_tol, message):
        obj = fig_objective()
        x0 = obj.manifold.random_point(np.random.default_rng(4))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rgd_baseline(obj, x0, eta, g_tol, 10)

    def test_zero_tolerance_runs_to_the_cap(self):
        obj = fig_objective()
        x0 = obj.manifold.random_point(np.random.default_rng(4))
        assert rgd_baseline(obj, x0, 0.05, 0.0, 5).status == "iteration-cap"


class TestClassify:
    def test_examples(self):
        assert classify_stationarity(0.0, -4.0, 0.1, 8.0) == "saddle"
        assert classify_stationarity(0.0, 4.0, 0.1, 8.0) == "second-order"
        assert classify_stationarity(1.0, -4.0, 0.1, 8.0) == "non-stationary"

    def test_boundary_ties_resolve_to_saddle(self):
        thresh = -math.sqrt(8.0 * 0.1)
        assert classify_stationarity(0.1, thresh, 0.1, 8.0) == "saddle"

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            classify_stationarity(0.0, 0.0, -1.0, 8.0)

    @pytest.mark.parametrize("args, want", [
        ((0.0, math.nan, 1e-4, 1.0), "saddle"),
        ((math.nan, 4.0, 1e-4, 1.0), "non-stationary"),
        ((math.nan, math.nan, 1e-4, 1.0), "non-stationary"),
        ((0.0, 4.0, math.nan, 1.0), ValueError),
        ((0.0, 4.0, 1e-4, math.nan), ValueError),
    ], ids=["lambda", "gradnorm", "both", "epsilon", "rho_hat"])
    def test_nan_never_certifies(self, args, want):
        if want is ValueError:
            with pytest.raises(ValueError, match="must be positive"):
                classify_stationarity(*args)
        else:
            assert classify_stationarity(*args) == want
