import math

import numpy as np
import pytest

from geodescent import (
    DiagonalQuadratic,
    Euclidean,
    Grassmann,
    KPCA,
    Objective,
    Oblique,
    Point,
    Sphere,
    Tangent,
    check_descent,
    check_gradient_taylor,
    check_holonomy,
    check_linearization,
    check_log_bilipschitz,
    check_transport_contraction,
    check_two_step,
    coupling_probe,
    estimate_smoothness,
    practical_thresholds,
)
from geodescent import verify as geoverify
from geodescent.objectives import unit_tangent
from geodescent.verify import render_report

import oracles

S3 = Sphere(3)
SCALES = [0.2, 0.1, 0.05, 0.025]
D_FIG = np.array([1.0, -1.0, 4.0])


def saddle():
    return S3.point([1.0, 0.0, 0.0])


class Constant(Objective):
    def __init__(self, manifold, c=0.0):
        self.manifold = manifold
        self.c = c

    def value(self, x):
        return self.c

    def ambient_grad(self, x):
        return np.zeros(self.manifold.shape)


class Linear(Objective):
    """f(x) = <c, x> with constant ambient gradient (zero Hessian variation)."""

    def __init__(self, manifold, c):
        self.manifold = manifold
        self.c = np.asarray(c, dtype=float)

    def value(self, x):
        return float(np.sum(self.c * x.coords))

    def ambient_grad(self, x):
        return self.c


class TestTwoStep:
    def test_zero_displacement_gives_zero_residual(self):
        x = saddle()
        y = S3.tangent(x, [0.0, 0.3, -0.1])
        z = S3.exp(x, S3.tangent(x, np.zeros(3)))  # a = 0 so z = x
        p1 = S3.exp(x, y)
        p2 = S3.exp(z, S3.transport(x, z, y))
        assert S3.dist(p1, p2) == 0.0

    def test_zero_second_leg_gives_zero_residual(self):
        # y = 0: both sides equal exp(x, a); this case forces the
        # min(|a|, |y|) factor in the bound
        x = saddle()
        a = S3.tangent(x, [0.0, 0.4, 0.2])
        z = S3.exp(x, a)
        p1 = S3.exp(x, a)
        p2 = S3.exp(z, S3.transport(x, z, S3.tangent(x, np.zeros(3))))
        assert S3.dist(p1, p2) <= 1e-12

    def test_cubic_scaling_on_sphere(self):
        rep = check_two_step(S3, 300, SCALES, np.random.default_rng(0))
        assert rep.passed
        assert 2.7 <= rep.fitted_slope <= 3.3
        assert math.isfinite(rep.fitted_constant)

    def test_negative_control_fails(self):
        rep = check_two_step(S3, 300, SCALES, np.random.default_rng(0), falsify=True)
        assert not rep.passed

    def test_deterministic(self):
        a = check_two_step(S3, 100, SCALES, np.random.default_rng(5))
        b = check_two_step(S3, 100, SCALES, np.random.default_rng(5))
        assert a.max_residual_per_scale == b.max_residual_per_scale
        assert a.fitted_slope == b.fitted_slope


class TestLogBiLipschitz:
    def test_identical_points_both_sides_zero(self):
        x = saddle()
        y = S3.exp(x, S3.tangent(x, [0.0, 0.2, 0.1]))
        assert np.linalg.norm(S3.log(x, y).coords - S3.log(x, y).coords) == 0.0
        assert S3.dist(y, y) == 0.0

    def test_collinear_points_give_equality(self):
        x = saddle()
        u = S3.tangent(x, [0.0, 1.0, 0.0])
        y = S3.exp(x, Tangent(x, 0.3 * u.coords))
        z = S3.exp(x, Tangent(x, 0.7 * u.coords))
        lhs = np.linalg.norm(S3.log(x, y).coords - S3.log(x, z).coords)
        assert lhs == pytest.approx(S3.dist(y, z), abs=1e-12)

    def test_quadratic_deviation_scaling(self):
        rep = check_log_bilipschitz(S3, 300, [0.5, 0.25, 0.125, 0.0625],
                                    np.random.default_rng(1))
        assert rep.passed
        assert 1.7 <= rep.fitted_slope <= 2.3
        # positive curvature contracts: the lower-side constant stays tiny
        assert rep.details["c2"] <= 1e-6
        assert rep.details["c3"] > 0

    def test_negative_control_fails(self):
        rep = check_log_bilipschitz(S3, 300, [0.5, 0.25, 0.125, 0.0625],
                                    np.random.default_rng(1), falsify=True)
        assert not rep.passed


class TestTransportContraction:
    def test_same_point_gives_zero(self):
        x = saddle()
        w = S3.tangent(x, [0.0, 0.4, 0.3])
        assert S3.dist(S3.exp(x, w), S3.exp(x, S3.transport(x, x, w))) <= 1e-12

    def test_zero_vector_reduces_to_distance(self):
        x, y = saddle(), S3.point([0.0, 1.0, 0.0])
        lhs = S3.dist(S3.exp(x, S3.tangent(x, np.zeros(3))),
                      S3.exp(y, S3.transport(x, y, S3.tangent(x, np.zeros(3)))))
        assert lhs == pytest.approx(S3.dist(x, y), abs=1e-15)

    def test_sphere_contracts(self):
        rep = check_transport_contraction(S3, 400, np.random.default_rng(2))
        assert rep.passed
        assert rep.fitted_constant <= 1.0 + 0.05

    def test_negative_control_fails(self):
        rep = check_transport_contraction(S3, 400, np.random.default_rng(2), falsify=True)
        assert not rep.passed

    @pytest.mark.parametrize("man", [S3, Oblique(4, 3), Grassmann(5, 2), Euclidean(3)],
                             ids=lambda m: m.name)
    def test_shared_pass_rule_linear_decay(self, man):
        rep = check_transport_contraction(man, 200, np.random.default_rng(0))
        assert rep.passed
        assert rep.slope_window == (0.7, 1.3)
        assert len(rep.details["ratio_per_scale"]) == 4
        falsified = check_transport_contraction(man, 200, np.random.default_rng(0), falsify=True)
        assert not falsified.passed


class TestHolonomy:
    def test_collinear_transports_compose(self):
        x = saddle()
        u = S3.tangent(x, [0.0, 0.8, 0.0])
        y = S3.exp(x, Tangent(x, 0.4 * u.coords))
        z = S3.exp(x, u)
        w = S3.tangent(x, [0.0, 0.1, 0.7])
        via = S3.transport(y, z, S3.transport(x, y, w))
        direct = S3.transport(x, z, w)
        assert np.linalg.norm(via.coords - direct.coords) <= 1e-10

    def test_octant_triangle_frozen_value(self):
        x, y, z = saddle(), S3.point([0.0, 1.0, 0.0]), S3.point([0.0, 0.0, 1.0])
        w = S3.tangent(x, [0.0, 0.0, 1.0])
        via = S3.transport(y, z, S3.transport(x, y, w))
        direct = S3.transport(x, z, w)
        res = np.linalg.norm(via.coords - direct.coords)
        assert res == pytest.approx(math.sqrt(2.0), abs=1e-12)
        ratio = res / (S3.dist(x, y) * S3.dist(y, z))
        assert ratio == pytest.approx(0.5731591682507563, abs=1e-12)

    def test_quadratic_residual_decay(self):
        rep = check_holonomy(S3, 300, SCALES, np.random.default_rng(3))
        assert rep.passed
        assert 1.7 <= rep.fitted_slope <= 2.3
        # the octant configuration bounds the fitted constant from below
        assert rep.fitted_constant >= 0.25

    def test_negative_control_fails(self):
        rep = check_holonomy(S3, 300, SCALES, np.random.default_rng(3), falsify=True)
        assert not rep.passed


class TestLinearization:
    def test_identical_points_give_zero(self):
        obj = DiagonalQuadratic(D_FIG)
        x = saddle()
        u = S3.exp(x, S3.tangent(x, [0.0, 0.05, 0.02]))
        lv = S3.log(x, u).coords - S3.log(x, u).coords
        assert np.linalg.norm(lv) == 0.0

    def test_euclidean_quadratic_is_exact(self):
        man = Euclidean(3)
        obj = DiagonalQuadratic(D_FIG, man)
        x0 = man.point(np.zeros(3))
        rep = check_linearization(obj, man, x0, 100, [0.1, 0.03, 0.01],
                                  eta=0.05, rng=np.random.default_rng(4))
        assert rep.passed
        assert max(rep.details["max_raw_residual_per_scale"]) <= 1e-10

    def test_sphere_quadratic_slope(self):
        obj = DiagonalQuadratic(D_FIG)
        rep = check_linearization(obj, S3, saddle(), 300,
                                  [1e-1, 3e-2, 1e-2, 3e-3, 1e-3],
                                  eta=0.05, rng=np.random.default_rng(5))
        assert rep.passed
        assert 0.7 <= rep.fitted_slope <= 1.3

    def test_negative_control_fails(self):
        obj = DiagonalQuadratic(D_FIG)
        rep = check_linearization(obj, S3, saddle(), 300,
                                  [1e-1, 3e-2, 1e-2, 3e-3, 1e-3],
                                  eta=0.05, rng=np.random.default_rng(5), falsify=True)
        assert not rep.passed

    def test_finite_difference_hessian_on_kpca(self):
        # closed form withheld: hess_operator differences gradients on Grassmann
        obj = KPCA(np.diag([0.0, 1.0, 2.0, 3.0, 4.0]), 3)
        obj.exact_hess = None
        x = obj.manifold.point(np.eye(5)[:, 1:4])
        scales = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        rep = check_linearization(obj, obj.manifold, x, 100, scales, 0.05,
                                  np.random.default_rng(5))
        assert rep.passed
        falsified = check_linearization(obj, obj.manifold, x, 100, scales, 0.05,
                                        np.random.default_rng(5), falsify=True)
        assert not falsified.passed

    def test_closed_form_hessian_on_kpca(self):
        # hess_operator takes the quadratic form's closed-form Hessian on Grassmann
        obj = KPCA(np.diag([0.0, 1.0, 2.0, 3.0, 4.0]), 3)
        x = obj.manifold.point(np.eye(5)[:, 1:4])
        scales = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        rep = check_linearization(obj, obj.manifold, x, 100, scales, 0.05,
                                  np.random.default_rng(5))
        assert rep.passed
        falsified = check_linearization(obj, obj.manifold, x, 100, scales, 0.05,
                                        np.random.default_rng(5), falsify=True)
        assert not falsified.passed


class TestGradientTaylor:
    def test_same_point_zero_residual(self):
        obj = DiagonalQuadratic(D_FIG)
        x = saddle()
        zero = S3.tangent(x, np.zeros(3))
        res = (S3.transport(x, x, obj.rgrad(x)).coords - obj.rgrad(x).coords
               - obj.exact_hess(x, zero).coords)
        assert np.linalg.norm(res) == 0.0

    def test_linear_objective_on_euclidean_is_exact(self):
        man = Euclidean(4)
        obj = Linear(man, [1.0, -2.0, 0.5, 3.0])
        rep = check_gradient_taylor(obj, man, 50, SCALES, np.random.default_rng(6))
        assert rep.passed
        assert max(rep.max_residual_per_scale) <= 1e-10

    def test_sphere_quadratic_quadratic_decay(self):
        obj = DiagonalQuadratic(D_FIG)
        rep = check_gradient_taylor(obj, S3, 300, SCALES, np.random.default_rng(7))
        assert rep.passed
        assert 1.7 <= rep.fitted_slope <= 2.3

    def test_negative_control_fails(self):
        obj = DiagonalQuadratic(D_FIG)
        rep = check_gradient_taylor(obj, S3, 300, SCALES, np.random.default_rng(7),
                                    falsify=True)
        assert not rep.passed


class TestDescent:
    def test_constant_objective_no_violations(self):
        obj = Constant(S3)
        rep = check_descent(obj, (saddle(), 1.0), 200, 0.1, np.random.default_rng(8))
        assert rep.passed
        assert rep.max_residual_per_scale == [0.0]

    def test_safe_step_has_no_violations(self):
        obj = DiagonalQuadratic(D_FIG)
        center = S3.random_point(np.random.default_rng(9))
        est = estimate_smoothness(obj, center, 1.0, 20, np.random.default_rng(9))
        rep = check_descent(obj, (center, 1.0), 1000, 0.9 / est.beta_hat,
                            np.random.default_rng(10))
        assert rep.passed

    def test_overstepping_violates(self):
        obj = DiagonalQuadratic(D_FIG)
        center = S3.random_point(np.random.default_rng(11))
        est = estimate_smoothness(obj, center, 1.0, 20, np.random.default_rng(11))
        rep = check_descent(obj, (center, 1.0), 1000, 10.0 / est.beta_hat,
                            np.random.default_rng(12))
        assert not rep.passed
        assert rep.details["violations"] > 0


class TestCouplingProbe:
    def thresholds(self):
        return practical_thresholds(8.0, 8.0, 1e-4, dim_d=2)

    def test_mu_zero_keeps_sequences_identical(self):
        obj = DiagonalQuadratic(D_FIG)
        rep = coupling_probe(obj, S3, saddle(), self.thresholds(), mu=0.0,
                             T_max=50, rng=np.random.default_rng(13))
        assert all(p == 0.0 for p in rep.psi)
        assert rep.escape_t is None

    def test_unit_mu_grows_geometrically(self):
        # exact tangent eigenvalue -4 predicts per-step ratio about 1 + 4 eta
        obj = DiagonalQuadratic(D_FIG)
        thr = self.thresholds()
        rep = coupling_probe(obj, S3, saddle(), thr, mu=1.0, T_max=2000,
                             rng=np.random.default_rng(14))
        assert rep.stop_reason == "escaped"
        assert rep.escape_t is not None
        assert rep.growth_threshold == pytest.approx(1.0 + thr.eta * thr.gamma / 2.0)
        assert rep.frac_growth_ok >= 0.9
        mid = rep.ratios[len(rep.ratios) // 2]
        assert mid == pytest.approx(1.0 + 4.0 * thr.eta, rel=0.05)
        # trace audit data for the stay-close/escape dichotomy
        assert rep.dist_budget > 0
        assert 0 < rep.max_dist_from_start < math.pi

    def test_rejects_non_saddle_base(self):
        obj = DiagonalQuadratic(D_FIG)
        x_min = S3.point([0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="saddle"):
            coupling_probe(obj, S3, x_min, self.thresholds(), 1.0, 10,
                           np.random.default_rng(15))


@pytest.mark.parametrize("check", [check_two_step, check_log_bilipschitz, check_holonomy],
                         ids=lambda check: check.__name__)
def test_flat_space_passes_and_its_control_fails(check):
    # on Euclidean space each defect is zero up to rounding: there is no
    # slope to fit, so the check passes and its falsified control fails
    man = Euclidean(3)
    rep = check(man, 200, SCALES, np.random.default_rng(7))
    assert max(rep.max_residual_per_scale) <= 1e-10
    assert rep.passed
    assert not check(man, 200, SCALES, np.random.default_rng(7), falsify=True).passed
    # no samples measure nothing, which is not an exact case
    assert not check(man, 0, SCALES, np.random.default_rng(7)).passed


def test_render_report_contains_table():
    rep = check_two_step(S3, 50, SCALES, np.random.default_rng(16))
    text = render_report(rep)
    assert "lemma = two-step" in text
    assert "fitted_slope" in text
    assert "scale max_residual" in text
    assert len(text.strip().splitlines()) >= 6 + len(SCALES)


STACKED = {"two-step": lambda man, n, rng: check_two_step(man, n, SCALES, rng),
           "log-bilipschitz": lambda man, n, rng: check_log_bilipschitz(man, n, SCALES, rng),
           "transport-contraction": lambda man, n, rng: check_transport_contraction(man, n, rng),
           "holonomy": lambda man, n, rng: check_holonomy(man, n, SCALES, rng)}


@pytest.mark.parametrize("man, seed", [(S3, 0), (S3, 7), (Oblique(4, 3), 0), (Grassmann(5, 2), 0),
                                       (Euclidean(3), 0)], ids=lambda a: getattr(a, "name", a))
@pytest.mark.parametrize("lemma", list(STACKED))
def test_stacked_check_renders_the_one_at_a_time_report(lemma, man, seed):
    """Drawn sample by sample and evaluated as a stack, each geometry check
    gives the bytes of the same samples drawn and evaluated one at a time."""
    rep = STACKED[lemma](man, 150, np.random.default_rng(seed))
    ref = oracles.reference_report(lemma, man, 150, rep.scales, np.random.default_rng(seed))
    assert render_report(rep) == render_report(ref)
    if man.name != "euclidean(3)":  # flat space's defects are exactly 0
        assert min(rep.max_residual_per_scale) > 0.0


def test_chunked_stacks_give_the_unchunked_report(monkeypatch):
    """A scale's samples split into stacks of 2, 2 and 1 give the bytes of one
    stack of 5."""
    whole = {lemma: render_report(check(S3, 5, np.random.default_rng(3)))
             for lemma, check in STACKED.items()}
    monkeypatch.setattr(geoverify, "STACK_FLOATS", 7)  # two sphere(3) samples
    calls = []
    sweep = geoverify._sweep

    def spy(n, scales, width, sample, chunk):
        calls.append(chunk)
        return sweep(n, scales, width, sample, chunk)

    monkeypatch.setattr(geoverify, "_sweep", spy)
    for lemma, check in STACKED.items():
        assert render_report(check(S3, 5, np.random.default_rng(3))) == whole[lemma]
    assert calls == [2] * len(STACKED)


def _kpca_start():
    obj = KPCA(np.diag([0.0, 1.0, 2.0, 3.0, 4.0]), 3)
    return obj, obj.manifold.point(np.eye(5)[:, 1:4])


# problem name -> (objective, the saddle or center its checks run at)
OBJECTIVE_PROBLEMS = {
    "sphere(3)": lambda: (DiagonalQuadratic(D_FIG), saddle()),
    "euclidean(3)": lambda: (DiagonalQuadratic(D_FIG, Euclidean(3)), Euclidean(3).point(np.zeros(3))),
    "kpca-grassmann(5,3)": _kpca_start,  # closed-form Hessian with Grassmann's Weingarten term
}


def _linearization(check):
    return lambda obj, x, n, rng: check(obj, obj.manifold, x, n, SCALES, 0.05, rng)


def _descent(check, eta):
    return lambda obj, x, n, rng: check(obj, (x, 1.0), n, eta, rng)


# lemma -> (stacked check, its one-at-a-time reference), both called as (obj, x, n, rng)
STACKED_OBJECTIVE = {
    "linearization": (
        _linearization(check_linearization),
        _linearization(lambda obj, man, x, n, scales, eta, rng: oracles.reference_report(
            "linearization", man, n, scales, rng, obj=obj, saddle_x=x, eta=eta))),
    "gradient-taylor": (
        lambda obj, x, n, rng: check_gradient_taylor(obj, obj.manifold, n, SCALES, rng),
        lambda obj, x, n, rng: oracles.reference_report("gradient-taylor", obj.manifold, n,
                                                        SCALES, rng, obj=obj)),
    "descent": (_descent(check_descent, 0.09), _descent(oracles.reference_descent, 0.09)),
    "descent-overstep": (_descent(check_descent, 1.0), _descent(oracles.reference_descent, 1.0)),
}


@pytest.mark.parametrize("problem, seed", [("sphere(3)", 0), ("sphere(3)", 7), ("euclidean(3)", 0),
                                           ("kpca-grassmann(5,3)", 0)])
@pytest.mark.parametrize("lemma", list(STACKED_OBJECTIVE))
def test_stacked_objective_check_renders_the_one_at_a_time_report(lemma, problem, seed):
    """Drawn sample by sample and evaluated as a stack, each check that calls
    the objective gives the bytes of the same samples drawn and evaluated one
    at a time."""
    stacked, reference = STACKED_OBJECTIVE[lemma]
    obj, x = OBJECTIVE_PROBLEMS[problem]()
    rep = stacked(obj, x, 150, np.random.default_rng(seed))
    assert render_report(rep) == render_report(reference(obj, x, 150, np.random.default_rng(seed)))
    if lemma == "descent-overstep":
        assert rep.details["violations"] > 0
    elif lemma != "descent" and problem != "euclidean(3)":  # exact on flat space
        assert min(rep.max_residual_per_scale) > 0.0


@pytest.mark.parametrize("problem, floats", [("sphere(3)", 7), ("kpca-grassmann(5,3)", 30)])
def test_chunked_objective_checks_give_the_unchunked_report(problem, floats, monkeypatch):
    """A scale's samples split into stacks of 2, 2 and 1 give the bytes of one
    stack of 5, for the checks that call the objective."""
    obj, x = OBJECTIVE_PROBLEMS[problem]()
    whole = {lemma: render_report(check(obj, x, 5, np.random.default_rng(3)))
             for lemma, (check, _) in STACKED_OBJECTIVE.items()}
    monkeypatch.setattr(geoverify, "STACK_FLOATS", floats)  # two samples
    calls = []
    sweep = geoverify._sweep

    def spy(n, scales, width, sample, chunk):
        calls.append(chunk)
        return sweep(n, scales, width, sample, chunk)

    monkeypatch.setattr(geoverify, "_sweep", spy)
    for lemma, (check, _) in STACKED_OBJECTIVE.items():
        assert render_report(check(obj, x, 5, np.random.default_rng(3))) == whole[lemma]
    assert calls == [2] * len(STACKED_OBJECTIVE)


@pytest.mark.parametrize("lemma", list(STACKED_OBJECTIVE))
def test_an_objective_written_for_one_point_renders_the_one_at_a_time_report(lemma):
    """On a stack, `Linear.value` returns one float and `Linear.ambient_grad`
    one gradient for all samples.  The checks call each at every sample
    instead, so they render the report of the samples taken one at a time."""
    stacked, reference = STACKED_OBJECTIVE[lemma]
    obj, x = Linear(S3, [1.0, -2.0, 0.5]), saddle()
    rep = stacked(obj, x, 150, np.random.default_rng(4))
    assert render_report(rep) == render_report(reference(obj, x, 150, np.random.default_rng(4)))


class NanGradient(DiagonalQuadratic):
    """x^T diag(d) x with an ambient gradient that is NaN throughout."""

    def ambient_grad(self, x):
        return np.full(x.coords.shape, math.nan)


@pytest.mark.parametrize("lemma, problem", [("gradient-taylor", "sphere(3)"), ("descent", "sphere(3)"),
                                            ("linearization", "euclidean(3)")])
def test_a_nan_gradient_fails_its_check(lemma, problem):
    """A NaN residual or violation fails its check, although the per-scale
    maxima pass over it: the residual's ratio reads inf, and descent counts
    the violation."""
    obj, x = OBJECTIVE_PROBLEMS[problem]()
    rep = STACKED_OBJECTIVE[lemma][0](NanGradient(obj.diag, obj.manifold), x, 50,
                                      np.random.default_rng(0))
    assert not rep.passed
    if lemma == "descent":
        assert rep.details["violations"] == 50
    else:
        assert rep.fitted_constant == math.inf


def test_sweep_maxima_skip_nan_and_degenerate_draws():
    """The per-scale maxima are those of a running max(acc, value) from 0.0:
    a NaN never wins, a skipped draw counts for nothing, and a value that is
    negative throughout reads 0.0."""
    draws = [(0.5, -1.0, -1.0), None, (math.nan, -2.0, -2.0), (0.25, math.nan, math.nan),
             (2.0, math.inf, -0.5), (math.nan, -3.0, -3.0), None, (-1.0, -0.5, -4.0)] * 3

    def one_at_a_time():
        it = iter(draws)
        return lambda s: next(it)

    sample = oracles.one_at_a_time(one_at_a_time(), 3)
    scales, got = geoverify._sweep(8, [0.1, 0.3, 0.2], 3, sample, 3)  # stacks of 3, 3 and 2
    assert scales == [0.3, 0.2, 0.1]
    assert got == oracles.reference_maxima(8, [0.1, 0.3, 0.2], 3, one_at_a_time())
    assert got == [[2.0] * 3, [math.inf] * 3, [0.0] * 3]


def test_a_vanishing_projected_draw_raises():
    """A projected normal of norm at most 1e-12 (probability zero) raises, in
    a stack and at a single point alike."""
    x = Point(S3, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    norm = np.array([1.0, 0.5])
    with pytest.raises(RuntimeError, match="nonzero tangent direction"):
        geoverify._tangents(S3, x, norm, np.array([[0.0, 1.0, 0.0], [0.0, 1e-13, 0.0]]))
    got = geoverify._tangents(S3, x, norm, np.array([[0.0, 2.0, 0.0], [3.0, 0.0, 0.0]]))
    assert np.array_equal(got.coords, [[0.0, 1.0, 0.0], [0.5, 0.0, 0.0]])

    class Normal:  # draws along the point, which project to zero
        def standard_normal(self, shape):
            return np.array([2.0, 0.0, 0.0])

    one = Point(S3, np.array([1.0, 0.0, 0.0]))
    for draw in (lambda: unit_tangent(S3, one, Normal()), lambda: S3.sample_tangent_ball(one, 0.5, Normal())):
        with pytest.raises(RuntimeError, match="nonzero tangent direction"):
            draw()


def test_draws_take_each_kind_from_its_own_spawned_stream():
    """`_draws` gives each entry the draws of its own child of one
    `rng.spawn`, its uniforms have the bits of `rng.uniform`, a stream cut
    into calls of 3 and 47 gives the bits of one call of 50, and the parent
    stream does not move."""
    a, b, c = (np.random.default_rng(9) for _ in range(3))
    gx, u, g = geoverify._draws(a, (2, 3), None, (0.3, 0.5), None)(50)
    kids = b.spawn(3)
    assert np.array_equal(gx, kids[0].standard_normal((50, 2, 3)))
    assert np.array_equal(u, [kids[1].uniform(0.3, 0.5) for _ in range(50)])
    assert np.array_equal(g, kids[2].standard_normal((50, 2, 3)))
    draw = geoverify._draws(c, (2, 3), None, (0.3, 0.5), None)
    for whole, first, rest in zip((gx, u, g), draw(3), draw(47)):
        assert np.array_equal(whole, np.concatenate([first, rest]))
    assert a.random() == np.random.default_rng(9).random()


@pytest.mark.parametrize("n", [0, 5])
@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_descent_rejects_a_radius_that_is_not_positive(radius, n):
    """A radius that is not positive, NaN included, raises before any sample
    is drawn, so a run of no samples cannot pass on it."""
    obj, x = OBJECTIVE_PROBLEMS["sphere(3)"]()
    with pytest.raises(ValueError, match="radius must be positive"):
        check_descent(obj, (x, radius), n, 0.09, np.random.default_rng(0))
    with pytest.raises(ValueError, match="radius must be positive"):
        S3.sample_tangent_ball(x, radius, np.random.default_rng(0))
