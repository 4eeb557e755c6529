import ast
import copy
import inspect
import math
import os
import pickle
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from geodescent import (
    KPCA,
    DiagonalQuadratic,
    Euclidean,
    GeometryError,
    Grassmann,
    Manifold,
    Oblique,
    Point,
    Sphere,
    Tangent,
    manifolds,
    objectives,
)
from geodescent.manifolds import CUT_MARGIN, TANGENT_TOL

import oracles

S3 = Sphere(3)


def sphere_point(*coords):
    return S3.point(np.array(coords, dtype=float))


class TestSphereExamples:
    def test_exp_zero_is_fixed_point(self):
        x = sphere_point(1, 0, 0)
        y = S3.exp(x, S3.tangent(x, [0.0, 0.0, 0.0]))
        assert np.array_equal(y.coords, x.coords)

    def test_exp_quarter_circle(self):
        x = sphere_point(1, 0, 0)
        y = S3.exp(x, S3.tangent(x, [0.0, math.pi / 2, 0.0]))
        assert np.allclose(y.coords, [0, 1, 0], atol=1e-15)

    def test_log_quarter_circle(self):
        x, y = sphere_point(1, 0, 0), sphere_point(0, 1, 0)
        assert np.allclose(S3.log(x, y).coords, [0, math.pi / 2, 0], atol=1e-15)

    def test_log_identity(self):
        x = sphere_point(1, 0, 0)
        assert np.allclose(S3.log(x, x).coords, 0.0)

    def test_log_antipodal_raises(self):
        x, y = sphere_point(1, 0, 0), sphere_point(-1, 0, 0)
        with pytest.raises(GeometryError, match="injectivity"):
            S3.log(x, y)

    def test_dist_quarter(self):
        assert S3.dist(sphere_point(1, 0, 0), sphere_point(0, 0, 1)) == pytest.approx(math.pi / 2)

    def test_dist_antipodal(self):
        x = sphere_point(1, 0, 0)
        assert S3.dist(x, sphere_point(-1, 0, 0)) == pytest.approx(math.pi)

    def test_transport_normal_vector_fixed(self):
        x, y = sphere_point(1, 0, 0), sphere_point(0, 1, 0)
        out = S3.transport(x, y, S3.tangent(x, [0, 0, 1.0]))
        assert np.allclose(out.coords, [0, 0, 1], atol=1e-15)

    def test_transport_velocity_stays_tangent(self):
        x, y = sphere_point(1, 0, 0), sphere_point(0, 1, 0)
        out = S3.transport(x, y, S3.tangent(x, [0, 1.0, 0]))
        assert np.allclose(out.coords, [-1, 0, 0], atol=1e-15)

    def test_transport_identity(self):
        x = sphere_point(1, 0, 0)
        w = S3.tangent(x, [0, 0.3, -0.2])
        assert np.allclose(S3.transport(x, x, w).coords, w.coords, atol=1e-15)

    def test_transport_antipodal_raises(self):
        x, y = sphere_point(1, 0, 0), sphere_point(-1, 0, 0)
        with pytest.raises(GeometryError):
            S3.transport(x, y, S3.tangent(x, [0, 0, 1.0]))

    def test_project(self):
        x = sphere_point(1, 0, 0)
        assert np.allclose(S3.project_tangent(x, [5.0, 1.0, 2.0]).coords, [0, 1, 2])

    def test_project_idempotent_on_tangent(self):
        x = sphere_point(1, 0, 0)
        a = np.array([0.0, 1.0, 2.0])
        assert np.allclose(S3.project_tangent(x, a).coords, a)

    def test_inner(self):
        x = sphere_point(1, 0, 0)
        u = S3.tangent(x, [0, 1.0, 0])
        v = S3.tangent(x, [0, 0, 1.0])
        assert S3.inner(x, u, v) == 0.0
        assert S3.inner(x, u, u) == pytest.approx(1.0)
        w = S3.tangent(x, [0, 0.5, -0.25])
        assert S3.inner(x, u, w) == S3.inner(x, w, u)


class TestValidation:
    def test_infeasible_point_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            S3.point([1.0, 1.0, 0.0])

    def test_non_tangent_rejected(self):
        x = sphere_point(1, 0, 0)
        with pytest.raises(ValueError, match="not tangent"):
            S3.tangent(x, [1.0, 0.0, 0.0])

    def test_shape_mismatch(self):
        x = sphere_point(1, 0, 0)
        with pytest.raises(ValueError, match="shape"):
            S3.project_tangent(x, np.zeros(4))
        with pytest.raises(ValueError, match="shape"):
            S3.point(np.zeros(4))
        for man in (S3, Euclidean(3), Oblique(2, 3), Grassmann(3, 1)):
            x = man.random_point(np.random.default_rng(0))
            bad = np.zeros(man.shape + (1,))
            for call, what in ((lambda: man.point(bad), "coords of shape"),
                               (lambda: man.tangent(x, bad), "tangent of shape"),
                               (lambda: man.project_tangent(x, bad), "shape")):
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == f"{man.name}: expected {what} {man.shape}, got {bad.shape}"

    def test_manifold_mismatch(self):
        x4 = Sphere(4).point([1.0, 0, 0, 0])
        with pytest.raises(ValueError, match="sphere"):
            S3.dist(sphere_point(1, 0, 0), x4)

    def test_nonpositive_ball_radius(self):
        x = sphere_point(1, 0, 0)
        with pytest.raises(ValueError, match="radius"):
            S3.sample_tangent_ball(x, 0.0, np.random.default_rng(0))

    def test_geometry_constants(self):
        assert S3.geometry().injectivity_radius == math.pi
        assert S3.geometry().dimension == 2
        ob = Oblique(4, 3).geometry()
        assert (ob.injectivity_radius, ob.dimension) == (math.pi, 8)
        eu = Euclidean(5).geometry()
        assert (eu.injectivity_radius, eu.dimension) == (math.inf, 5)


class TestSampleBall:
    def test_norm_inside_radius(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = S3.random_point(rng)
            r = rng.uniform(0.1, 2.0)
            assert S3.sample_tangent_ball(x, r, rng).norm() <= r

    def test_mean_norm_matches_uniform_ball(self):
        # S^2 has intrinsic dimension 2: E||xi|| = r * d/(d+1) = 2/3 at r=1
        rng = np.random.default_rng(7)
        x = sphere_point(1, 0, 0)
        norms = [S3.sample_tangent_ball(x, 1.0, rng).norm() for _ in range(100_000)]
        assert np.mean(norms) == pytest.approx(2.0 / 3.0, abs=0.01)

    def test_fixed_seed_reproducible(self):
        x = sphere_point(1, 0, 0)
        a = S3.sample_tangent_ball(x, 0.5, np.random.default_rng(11)).coords
        b = S3.sample_tangent_ball(x, 0.5, np.random.default_rng(11)).coords
        assert np.array_equal(a, b)


class TestObliqueExamples:
    def test_quarter_turn_row_distance(self):
        # product metric: l2 combination of per-row great-circle distances
        man = Oblique(2, 3)
        y = man.point(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        y2 = man.point(np.array([[1.0, 0, 0], [0, 0, 1.0]]))
        rows = [math.acos(np.clip(np.dot(y.coords[i], y2.coords[i]), -1, 1)) for i in range(2)]
        oracle = math.hypot(*rows)
        assert oracle == pytest.approx(math.pi / 2)
        assert man.dist(y, y2) == pytest.approx(oracle, abs=1e-12)

    def test_rowwise_exp_matches_sphere(self):
        man = Oblique(2, 3)
        y = man.point(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        v = man.tangent(y, np.array([[0, math.pi / 2, 0], [0, 0, 0.0]]))
        out = man.exp(y, v)
        assert np.allclose(out.coords[0], [0, 1, 0], atol=1e-15)
        assert np.allclose(out.coords[1], [0, 1, 0], atol=1e-15)

    def test_row_cut_locus_raises(self):
        man = Oblique(2, 3)
        y = man.point(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        y2 = man.point(np.array([[-1.0, 0, 0], [0, 1.0, 0]]))
        with pytest.raises(GeometryError, match=r"^log undefined: distance 3\.14159 >= "
                                                r"injectivity radius 3\.14159 of oblique\(2,3\)$"):
            man.log(y, y2)

    def test_near_antipodal_row_transport_raises(self):
        """A row whose cosine with x rounds to -1 sits at its factor's cut
        locus: transport raises instead of dividing by 1 + c = 0."""
        man = Oblique(2, 3)
        x = man.point(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        row = np.array([-1.0, 1e-9, 0])
        y = man.point(np.array([row / np.linalg.norm(row), [0, 1.0, 0]]))
        assert x.coords[0] @ y.coords[0] == -1.0
        w = man.tangent(x, np.array([[0, 1.0, 0], [1.0, 0, 0]]))
        with pytest.raises(GeometryError, match=r"^transport undefined: distance 3\.14159 >= "):
            man.transport(x, y, w)

    def test_nan_row_fails_the_cut_locus_guard(self):
        """A NaN row distance fails the guard, as in `_check_injectivity`;
        `dist` returns NaN, as `Sphere.dist` does."""
        man = Oblique(3, 2)
        rng = np.random.default_rng(0)
        x = man.random_point(rng)
        yc = man.random_point(rng).coords.copy()
        yc[1, 0] = np.nan
        y = Point(man, yc)
        w = man.project_tangent(x, rng.standard_normal(man.shape))
        for what, call in (("log", lambda: man.log(x, y)),
                           ("transport", lambda: man.transport(x, y, w))):
            with pytest.raises(GeometryError, match=rf"^{what} undefined: distance nan >= "
                                                    r"injectivity radius 3\.14159 of oblique\(3,2\)$"):
                call()
        assert math.isnan(man.dist(x, y))


@pytest.mark.parametrize("m", [1.01e-4, 1e-3])
def test_transport_of_an_off_unit_pair_near_the_cut_locus(m):
    """x and y 9e-11 off unit norm, which `point` accepts, at angle pi - m:
    transport stays within 1e-6 |w| of the unit pair's, on the sphere and on
    an oblique row.  Dividing by the unnormalised 1 + x.y was 7% off at
    m = 1.01e-4 and 0.07% off at m = 1e-3."""
    scale = 1.0 + 9e-11
    x, y = np.array([1.0, 0.0, 0.0]), np.array([-math.cos(m), math.sin(m), 0.0])
    w, e3 = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
    # the oblique case adds a second row, fixed at e3 with a zero tangent
    for man, lift in ((S3, lambda r, _: r), (Oblique(2, 3), lambda r, other: np.stack([r, other]))):
        def transport(xc, yc):
            xp = man.point(lift(xc, e3))
            return man.transport(xp, man.point(lift(yc, e3)), man.tangent(xp, lift(w, 0.0 * e3))).coords

        err = np.linalg.norm(transport(scale * x, scale * y) - transport(x, y))
        assert err <= 1e-6 * np.linalg.norm(w)


@pytest.mark.parametrize("shape", [(1, 3), (7, 3), (100, 20)])
def test_oblique_maps_are_the_sphere_maps_on_its_rows(shape):
    """The oblique manifold is a product of spheres: its maps are `Sphere(p)`'s
    on the d rows taken as a stack, bit for bit, and its `dist` is the l2 norm
    of the row distances.  Each draw has a zero or a 1e-12 tangent row."""
    man = Oblique(*shape)
    d, p = shape
    sphere = Sphere(p)
    for k in range(20):
        rng = np.random.default_rng([d, p, k])
        x = man.random_point(rng)
        norms = rng.choice([0.0, 1e-12, 0.3, 2.0, 3.1], size=d)
        norms[0] = (0.0, 1e-12)[k % 2]
        v = oblique_tangent(man, x, norms, rng)
        w = oblique_tangent(man, x, rng.uniform(0.1, 2.0, d), rng)
        a = rng.standard_normal(shape)
        rows = Point(sphere, x.coords)
        for y in (man.random_point(rng), man.exp(x, v), x):
            y_rows = Point(sphere, y.coords)
            pairs = [(man.exp(x, v).coords, sphere.exp(rows, Tangent(rows, v.coords)).coords),
                     (man.log(x, y).coords, sphere.log(rows, y_rows).coords),
                     (man.transport(x, y, w).coords,
                      sphere.transport(rows, y_rows, Tangent(rows, w.coords)).coords),
                     (man.project_tangent(x, a).coords, sphere.project_tangent(rows, a).coords),
                     (man.dist(x, y), manifolds._norms(sphere.dist(rows, y_rows)))]
            for got, want in pairs:
                assert np.array_equal(bits(got), bits(want))


def parent_oblique_exp(x, v):
    """The oblique maps are the sphere maps on each row: the reference."""
    return np.stack([parent_sphere_exp(xr, vr) for xr, vr in zip(x, v)])


def parent_oblique_dist(x, y):
    return float(np.linalg.norm([parent_sphere_dist(xr, yr) for xr, yr in zip(x, y)]))


def parent_oblique_log(x, y):
    return np.stack([parent_sphere_log(xr, yr) for xr, yr in zip(x, y)])


def oblique_tangent(man, x, row_norms, rng):
    """Tangent at x whose rows have the given norms."""
    g = man.project_tangent(x, rng.standard_normal(man.shape)).coords
    return Tangent(x, g / np.linalg.norm(g, axis=1, keepdims=True) * row_norms[:, None])


def parent_sphere_exp(x, v):
    """`Sphere.exp` written for one point in scalar steps: the reference, like
    the `parent_sphere_*` and `parent_grassmann_*` functions below."""
    if not np.any(v):
        return x
    th = np.linalg.norm(v)
    if th == 0.0:
        return x
    if th < 1e-9:
        y = x + v
    else:
        y = math.cos(th) * x + (math.sin(th) / th) * v
    return y / np.linalg.norm(y)


def parent_sphere_log(x, y):
    c = float(np.clip(np.dot(x, y), -1.0, 1.0))
    u = y - c * x
    s = float(np.linalg.norm(u))
    d = float(np.arctan2(s, c))
    if not d < math.pi - CUT_MARGIN:  # a NaN distance fails the guard too
        raise GeometryError(
            f"log undefined: distance {d:.6g} >= injectivity radius {math.pi:.6g} of sphere({x.size})"
        )
    if s < 1e-300:
        return np.zeros_like(x)
    return (d / s) * u


def parent_sphere_dist(x, y):
    c = float(np.clip(np.dot(x, y), -1.0, 1.0))
    s = float(np.linalg.norm(y - c * x))
    return float(np.arctan2(s, c))


def parent_sphere_transport(name, x, y, w):
    d = parent_sphere_dist(x, y)
    if not d < math.pi - CUT_MARGIN:  # a NaN distance fails the guard too
        raise GeometryError(
            f"transport undefined: distance {d:.6g} >= injectivity radius {math.pi:.6g} of {name}"
        )
    c = float(np.dot(x, y)) / math.sqrt(float(np.dot(x, x)) * float(np.dot(y, y)))
    xy = x + y
    out = w - (np.dot(xy, w) / (1.0 + c)) * xy
    return out - np.dot(y, out) * y


def parent_sphere_project(x, a):
    return a - np.dot(x, a) * x


def parent_sphere_random_point(n, rng):
    g = rng.standard_normal(n)
    return g / np.linalg.norm(g)


def parent_qr_sign_fixed(y):
    q, r = np.linalg.qr(y)
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s


def parent_grassmann_exp(x, v):
    if not np.any(v):
        return x
    u, s, vt = np.linalg.svd(v, full_matrices=False)
    return parent_qr_sign_fixed(x @ (vt.T * np.cos(s)) @ vt + (u * np.sin(s)) @ vt)


def parent_grassmann_dist(x, y):
    s = np.linalg.svd(x.T @ y, compute_uv=False)
    return float(np.linalg.norm(np.arccos(np.clip(s, 0.0, 1.0))))


def parent_grassmann_log(name, x, y):
    d = parent_grassmann_dist(x, y)
    if not d < math.pi / 2 - CUT_MARGIN:  # a NaN distance fails the guard too
        raise GeometryError(
            f"log undefined: distance {d:.6g} >= injectivity radius {math.pi / 2:.6g} of {name}"
        )
    m = x.T @ y
    t = (y - x @ m) @ np.linalg.inv(m)
    u, s, vt = np.linalg.svd(t, full_matrices=False)
    out = (u * np.arctan(s)) @ vt
    return out - x @ (x.T @ out)


def parent_grassmann_transport(name, x, y, w):
    u, s, vt = np.linalg.svd(parent_grassmann_log(name, x, y), full_matrices=False)
    uw = u.T @ w
    out = w + (u * (np.cos(s) - 1.0)) @ uw - (x @ (vt.T * np.sin(s))) @ uw
    return out - y @ (y.T @ out)


def keep_rule_grassmann_transport(name, x, y, w):
    """`parent_grassmann_transport` with the singular directions of log(x, y)
    at most 1e-14 dropped, and w returned as is when none is left: the rule
    that the one formula replaced."""
    u, s, vt = np.linalg.svd(parent_grassmann_log(name, x, y), full_matrices=False)
    keep = s > 1e-14
    if not np.any(keep):
        return w
    u, s, vt = u[:, keep], s[keep], vt[keep]
    uw = u.T @ w
    out = w + (u * (np.cos(s) - 1.0)) @ uw - (x @ (vt.T * np.sin(s))) @ uw
    return out - y @ (y.T @ out)


def parent_grassmann_project(x, a):
    return a - x @ (x.T @ a)


def outcome(call):
    """What a map gives: its coordinates, or the type and message it raises,
    with the category and message of each warning it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
            out = getattr(out, "coords", out)
        except (GeometryError, np.linalg.LinAlgError) as err:
            out = type(err), str(err)
    return out, [(w.category, str(w.message)) for w in caught]


def assert_same_bits(got, want):
    """Two `outcome`s agree: the same warnings, and the same error or bits."""
    (out, warned), (want_out, want_warned) = got, want
    assert warned == want_warned
    if isinstance(want_out, tuple):  # a raised error
        assert isinstance(out, tuple) and out == want_out
    else:
        assert np.array_equal(out, want_out, equal_nan=True)


def scaled_tangent(man, x, norm, rng):
    g = man.project_tangent(x, rng.standard_normal(man.shape)).coords
    return Tangent(x, g * (norm / np.linalg.norm(g)))


class TestLeanKernelsSameBits:
    """The lean kernels give the bits of the expressions they replaced."""

    DRAWS = 200

    @staticmethod
    def draw(k):
        rng = np.random.default_rng(k)
        man = Oblique(*[(100, 20), (7, 3), (1, 2)][k % 3])
        return man, man.random_point(rng), rng

    def test_exp_all_rows_normal(self):
        for k in range(self.DRAWS):
            man, x, rng = self.draw(k)
            v = oblique_tangent(man, x, rng.uniform(1e-6, 3.0, man.d), rng)
            assert np.array_equal(man.exp(x, v).coords, parent_oblique_exp(x.coords, v.coords))

    def test_exp_zero_tiny_and_normal_rows(self):
        for k in range(self.DRAWS):
            man, x, rng = self.draw(k)
            norms = rng.choice([0.0, 1e-12, 5e-10, 0.3, 2.0], size=man.d)
            norms[rng.integers(man.d)] = rng.choice([0.0, 1e-12, 5e-10])  # at least one small
            v = oblique_tangent(man, x, norms, rng)
            assert np.array_equal(man.exp(x, v).coords, parent_oblique_exp(x.coords, v.coords))

    def test_exp_zero_tangent_returns_the_point(self):
        man, x, _ = self.draw(0)
        assert man.exp(x, Tangent(x, np.zeros(man.shape))) is x

    def test_exp_rows_whose_norm_underflows(self):
        """A row of scale 1e-170 or 1e-300 has a row norm of 0.0 but is not zero;
        such a row keeps its point, as a sphere point does, so when every row
        is like that, exp returns x itself."""
        for k in range(self.DRAWS):
            man, x, rng = self.draw(k)
            tiny = rng.choice([1e-170, 1e-300])
            v = oblique_tangent(man, x, np.full(man.d, tiny), rng)
            assert v.coords.all() and not np.sqrt(np.vecdot(v.coords, v.coords)).any()
            assert man.exp(x, v) is x
            assert np.array_equal(parent_oblique_exp(x.coords, v.coords), x.coords)
            v = oblique_tangent(man, x, rng.choice([0.0, tiny, 1e-12, 0.3, 2.0], size=man.d), rng)
            assert np.array_equal(man.exp(x, v).coords, parent_oblique_exp(x.coords, v.coords))

    def test_exp_at_the_burer_monteiro_shape(self):
        """100 x 20 with 95 exactly-zero rows: the Burer-Monteiro gradient is
        zero outside the 5 rows of its cost block."""
        man = Oblique(100, 20)
        for k in range(self.DRAWS):
            rng = np.random.default_rng(k)
            x = man.random_point(rng)
            norms = np.zeros(man.d)
            norms[rng.choice(man.d, 5, replace=False)] = rng.uniform(1e-6, 3.0, 5)
            v = oblique_tangent(man, x, norms, rng)
            assert (~v.coords.any(axis=1)).sum() == 95
            assert np.array_equal(man.exp(x, v).coords, parent_oblique_exp(x.coords, v.coords))

    def test_small_angle_identity_the_exp_kernel_relies_on(self):
        """cos(t) == 1.0 and sin(t) == t on (0, 1e-9], subnormals included, so
        rows below 1e-9 step to exactly x + v without a mask."""
        t = np.concatenate([np.geomspace(5e-324, 1e-9, 20001), [np.finfo(float).tiny]])
        assert t.min() > 0.0 and t.max() <= 1e-9 and (t < np.finfo(float).tiny).sum() > 900
        for a in (t, t[:, None], t[::-1]):
            assert (np.cos(a) == 1.0).all() and (np.sin(a) == a).all()

    def test_exp_nan_row_leaves_exactly_zero_rows_finite(self):
        """A NaN row does not spoil the other rows: exactly-zero rows keep
        their point, as with a finite tangent and as in `parent_oblique_exp`.  (The
        masked kernel before this one skipped its small-row branch when a NaN
        made `th.min()` NaN, and gave those rows sin(0)/0 = NaN.)"""
        man = Oblique(3, 2)
        x = man.point(np.eye(2)[[0, 1, 0]])
        nan_row = np.array([[0.0, np.nan], [0.0, 0.0], [0.0, 0.5]])
        with np.errstate(invalid="ignore"):
            y = man.exp(x, Tangent(x, nan_row)).coords
            assert np.array_equal(y, parent_oblique_exp(x.coords, nan_row), equal_nan=True)
        assert np.isnan(y[0]).all() and np.array_equal(y[1], x.coords[1])
        finite = nan_row * [[0.0], [1.0], [1.0]]
        assert np.array_equal(y[1:], man.exp(x, Tangent(x, finite)).coords[1:])

    def test_dist_and_tangent_norm(self):
        for k in range(self.DRAWS):
            man, x, rng = self.draw(k)
            y = man.random_point(rng)
            assert man.dist(x, y) == parent_oblique_dist(x.coords, y.coords)
            v = oblique_tangent(man, x, rng.uniform(0.0, 3.0, man.d), rng)
            assert v.norm() == float(np.linalg.norm(v.coords))
            w = Tangent(S3.random_point(rng), rng.standard_normal(3))
            assert w.norm() == float(np.linalg.norm(w.coords))

    def test_log_random_and_nearby_rows(self):
        for k in range(self.DRAWS):
            man, x, rng = self.draw(k)
            norms = rng.choice([0.0, 1e-12, 5e-10, 0.3, 2.0, 3.1], size=man.d)
            for y in (man.random_point(rng), man.exp(x, oblique_tangent(man, x, norms, rng))):
                assert np.array_equal(man.log(x, y).coords, parent_oblique_log(x.coords, y.coords))

    def test_log_of_identical_basis_rows(self):
        man = Oblique(3, 2)
        x = man.point(np.eye(2)[[0, 1, 0]])
        assert np.array_equal(man.log(x, x).coords, parent_oblique_log(x.coords, x.coords))

    @staticmethod
    def assert_sphere_maps(man, x, y, v, w, a):
        """Every Sphere map at (x, y) against its parent expression."""
        xc, yc = x.coords, y.coords
        assert_same_bits(outcome(lambda: man.exp(x, v)), outcome(lambda: parent_sphere_exp(xc, v.coords)))
        assert_same_bits(outcome(lambda: man.log(x, y)), outcome(lambda: parent_sphere_log(xc, yc)))
        assert_same_bits(outcome(lambda: man.dist(x, y)), outcome(lambda: parent_sphere_dist(xc, yc)))
        assert_same_bits(outcome(lambda: man.transport(x, y, w)),
                         outcome(lambda: parent_sphere_transport(man.name, xc, yc, w.coords)))
        assert_same_bits(outcome(lambda: man.project_tangent(x, a)),
                         outcome(lambda: parent_sphere_project(xc, a)))

    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_sphere_maps_at_random_draws(self, n):
        man = Sphere(n)
        for k in range(self.DRAWS):
            x = man.random_point(np.random.default_rng(k))
            assert np.array_equal(x.coords, parent_sphere_random_point(n, np.random.default_rng(k)))
            rng = np.random.default_rng([n, k])
            v = scaled_tangent(man, x, rng.choice([1e-12, 5e-10, 0.3, 2.0, 3.1, 3.2]), rng)
            w = scaled_tangent(man, x, rng.uniform(0.1, 2.0), rng)
            a = rng.standard_normal(n)
            for y in (man.random_point(rng), man.exp(x, v), x):
                self.assert_sphere_maps(man, x, y, v, w, a)

    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_sphere_maps_at_edge_inputs(self, n):
        man = Sphere(n)
        e1, e2 = np.eye(n)[0], np.eye(n)[1]
        x = Point(man, e1)
        for scale in (0.0, 1e-200, 1e-10):  # zero, norm underflowing to 0.0, th < 1e-9
            v = Tangent(x, scale * e2)
            assert_same_bits(outcome(lambda: man.exp(x, v)), outcome(lambda: parent_sphere_exp(e1, v.coords)))
            if scale < 1e-100:
                assert man.exp(x, v) is x
        past_one = e1 * (1.0 + 2.0 ** -52)  # x.x just above 1
        near_antipode = -e1 + 1e-13 * e2
        nan_entry = np.where(np.arange(n) == 1, np.nan, 0.0) + e1
        inf_times_zero = np.where(np.arange(n) == 1, np.inf, 0.0)  # x.y = 0 * inf = NaN
        with np.errstate(invalid="ignore"):
            for xc, yc in [(e1, e1), (e1, -e1), (past_one, past_one), (past_one, -past_one),
                           (e1, near_antipode / np.linalg.norm(near_antipode)),
                           # a NaN distance: `log` and `transport` raise GeometryError at the guard
                           (e1, nan_entry), (nan_entry, e1), (e1, inf_times_zero)]:
                x = Point(man, xc)
                self.assert_sphere_maps(man, x, Point(man, yc), Tangent(x, 1e-10 * e2),
                                        Tangent(x, 0.5 * e2), e2)
            with pytest.raises(GeometryError):
                man.log(Point(man, e1), Point(man, inf_times_zero))
            assert math.isnan(man.dist(Point(man, e1), Point(man, inf_times_zero)))

    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_sphere_stacks_at_edge_inputs(self, n):
        """The edge inputs above as rows of one stack: each row gets the bits
        of its parent expression, and a stack with one row past the guard
        raises what that row raises alone."""
        man = Sphere(n)
        e1, e2 = np.eye(n)[0], np.eye(n)[1]

        def assert_rows(got, want):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(bits(g), bits(w))

        # tangents zero, underflowing to a zero norm, below 1e-9 and normal
        x = Point(man, np.stack([e1] * 4))
        vs = np.stack([s * e2 for s in (0.0, 1e-200, 1e-10, 0.5)])
        assert_rows(man.exp(x, Tangent(x, vs)).coords, [parent_sphere_exp(e1, v) for v in vs])
        past_one = e1 * (1.0 + 2.0 ** -52)
        near_antipode = -e1 + 1e-13 * e2
        nan_entry = np.where(np.arange(n) == 1, np.nan, 0.0) + e1
        inf_times_zero = np.where(np.arange(n) == 1, np.inf, 0.0)
        minus_zero = np.where(np.arange(n) == 1, -0.0, e1)  # x itself, with a -0.0: log is +0.0 throughout
        inside = [(e1, e1), (past_one, past_one), (e1, minus_zero)]
        beyond = [(e1, -e1), (past_one, -past_one), (e1, near_antipode / np.linalg.norm(near_antipode)),
                  (e1, nan_entry), (nan_entry, e1), (e1, inf_times_zero)]
        with np.errstate(invalid="ignore"):
            pairs = inside + beyond
            x, y = (Point(man, np.stack(c)) for c in zip(*pairs))
            v = Tangent(x, np.stack([1e-10 * e2] * len(pairs)))
            assert_rows(man.exp(x, v).coords, [parent_sphere_exp(xc, 1e-10 * e2) for xc, _ in pairs])
            assert_rows(man.dist(x, y), [parent_sphere_dist(xc, yc) for xc, yc in pairs])
            assert_rows(man.project_tangent(x, np.stack([e2] * len(pairs))).coords,
                        [parent_sphere_project(xc, e2) for xc, _ in pairs])
            for k in range(len(beyond) + 1):  # the rows inside the guard, then each row beyond it with them
                stack = inside + beyond[k - 1:k]
                x, y = (Point(man, np.stack(c)) for c in zip(*stack))
                w = Tangent(x, np.stack([0.5 * e2] * len(stack)))
                log, transport = outcome(lambda: man.log(x, y)), outcome(lambda: man.transport(x, y, w))
                if k == 0:
                    assert_rows(log[0], [parent_sphere_log(xc, yc) for xc, yc in stack])
                    assert_rows(transport[0], [parent_sphere_transport(man.name, xc, yc, 0.5 * e2)
                                               for xc, yc in stack])
                else:
                    xc, yc = stack[-1]
                    assert log == outcome(lambda: parent_sphere_log(xc, yc))
                    assert transport == outcome(lambda: parent_sphere_transport(man.name, xc, yc, 0.5 * e2))

    def test_sphere_antipodal_messages(self):
        x, y = sphere_point(1, 0, 0), sphere_point(-1, 0, 0)
        z = sphere_point(-1, 1e-13, 0)
        w = S3.tangent(x, [0, 1.0, 0])
        with pytest.raises(GeometryError, match=r"^log undefined: distance 3\.14159 >= "
                                                r"injectivity radius 3\.14159 of sphere\(3\)$"):
            S3.log(x, y)
        with pytest.raises(GeometryError, match=r"^transport undefined: distance 3\.14159 >= "
                                                r"injectivity radius 3\.14159 of sphere\(3\)$"):
            S3.transport(x, y, w)
        with pytest.raises(GeometryError, match=r"^transport undefined: distance 3\.14159 >= "
                                                r"injectivity radius 3\.14159 of sphere\(3\)$"):
            S3.transport(x, z, w)

    @staticmethod
    def assert_grassmann_maps(man, x, y, v, w, a):
        xc, yc = x.coords, y.coords
        assert_same_bits(outcome(lambda: man.exp(x, v)), outcome(lambda: parent_grassmann_exp(xc, v.coords)))
        assert_same_bits(outcome(lambda: man.log(x, y)),
                         outcome(lambda: parent_grassmann_log(man.name, xc, yc)))
        assert_same_bits(outcome(lambda: man.dist(x, y)), outcome(lambda: parent_grassmann_dist(xc, yc)))
        assert_same_bits(outcome(lambda: man.transport(x, y, w)),
                         outcome(lambda: parent_grassmann_transport(man.name, xc, yc, w.coords)))
        assert_same_bits(outcome(lambda: man.project_tangent(x, a)),
                         outcome(lambda: parent_grassmann_project(xc, a)))

    def test_grassmann_maps_at_random_draws(self):
        # LAPACK's SVD and QR take different paths by shape
        for n, p in ((4, 1), (5, 3), (7, 2), (20, 5)):
            man = Grassmann(n, p)
            for k in range(self.DRAWS):
                x = man.random_point(np.random.default_rng(k))
                assert np.array_equal(x.coords, parent_qr_sign_fixed(
                    np.random.default_rng(k).standard_normal(man.shape)))
                rng = np.random.default_rng([n, k])
                v = scaled_tangent(man, x, rng.choice([1e-12, 0.3, 1.0, 1.5]), rng)
                w = scaled_tangent(man, x, rng.uniform(0.1, 2.0), rng)
                a = rng.standard_normal(man.shape)
                for y in (man.random_point(rng), man.exp(x, v), x):
                    self.assert_grassmann_maps(man, x, y, v, w, a)
                    s = np.linalg.svd(x.coords.T @ y.coords, compute_uv=False)
                    assert np.array_equal(manifolds.principal_angles(x.coords, y.coords),
                                          np.arccos(np.clip(s, 0, 1)))

    def test_grassmann_maps_at_edge_inputs(self):
        man = Grassmann(5, 3)
        eye = np.eye(5)
        x = Point(man, eye[:, :3])
        w = Tangent(x, 0.5 * eye[:, [3, 4, 3]])
        zero = Tangent(x, np.zeros(man.shape))
        assert man.exp(x, zero) is x
        for yc in (eye[:, :3], eye[:, [2, 3, 4]], eye[:, [0, 1, 3]], eye[:, [1, 0, 2]]):
            self.assert_grassmann_maps(man, x, Point(man, yc), zero, w, eye[:, 2:])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_grassmann_maps_at_non_finite_inputs(self, bad):
        """A NaN or inf entry raises, warns or returns what numpy.linalg gives."""
        man = Grassmann(5, 3)
        rng = np.random.default_rng(0)
        x = man.random_point(rng)
        v, w = scaled_tangent(man, x, 0.3, rng), scaled_tangent(man, x, 0.5, rng)
        y, a = man.exp(x, v), rng.standard_normal(man.shape)

        def spoil(c):
            c = c.copy()
            c[1, 2] = bad
            return c

        for xc, yc, vc, wc in [(spoil(x.coords), y.coords, v.coords, w.coords),
                               (x.coords, spoil(y.coords), v.coords, w.coords),
                               (x.coords, y.coords, spoil(v.coords), spoil(w.coords))]:
            xp = Point(man, xc)
            self.assert_grassmann_maps(man, xp, Point(man, yc), Tangent(xp, vc), Tangent(xp, wc), a)
        # NaN stops dgesdd in `dist`; an inf makes `dist` NaN, which fails the cut-locus guard
        got = outcome(lambda: man.log(x, Point(man, spoil(y.coords))))
        assert got[0] == ((np.linalg.LinAlgError, "SVD did not converge") if np.isnan(bad) else
                          (GeometryError, "log undefined: distance nan >= injectivity radius 1.5708 of grassmann(5,3)"))
        assert bool(got[1]) == np.isinf(bad)  # inf also warns on the way

    def test_linalg_kernels_match_numpy_linalg(self):
        """The LAPACK kernels give numpy.linalg's bits, errors and warnings,
        also on singular, rank-deficient and non-finite matrices."""
        rng = np.random.default_rng(0)
        full = rng.standard_normal((5, 3))
        zero_col = full * [1.0, 0.0, 1.0]  # R has a zero on its diagonal: the sign-0 branch
        assert (np.linalg.qr(zero_col)[1].diagonal() == 0).any()
        nan, inf = full.copy(), full.copy()
        nan[2, 1], inf[2, 1] = np.nan, np.inf
        for a in (full, zero_col, nan, inf, full.T):
            assert_same_bits(outcome(lambda: manifolds._qr_sign_fixed(a)),
                             outcome(lambda: parent_qr_sign_fixed(a)))
            assert_same_bits(outcome(lambda: manifolds._svdvals(a)),
                             outcome(lambda: np.linalg.svd(a, compute_uv=False)))
            for i in range(3):
                assert_same_bits(outcome(lambda: manifolds._svd(a)[i]),
                                 outcome(lambda: np.linalg.svd(a, full_matrices=False)[i]))
        for m in (full.T @ full, np.zeros((3, 3)), zero_col.T @ zero_col, nan.T @ full, inf.T @ full):
            assert_same_bits(outcome(lambda: manifolds._inv(m)), outcome(lambda: np.linalg.inv(m)))
        assert outcome(lambda: manifolds._inv(np.zeros((3, 3))))[0] == (np.linalg.LinAlgError, "Singular matrix")


def tangent_at_random_point(man, coords):
    return Tangent(man.random_point(np.random.default_rng(0)), coords)


def test_maps_call_no_numpy_wrapper():
    """exp, log, dist, transport and project_tangent, the array kernels `_exp`
    and `_project` behind them, the Weingarten kernel `_weingarten` of the
    quadratic forms' Hessian, and the Grassmann kernels `principal_angles`
    and `_qr_sign_fixed`, avoid the numpy calls whose Python wrappers cost
    more than the arithmetic on small arrays.  Those include the `any` and
    `all` methods: a zero test is `np.count_nonzero`."""
    banned = {"np.linalg.norm", "np.linalg.svd", "np.linalg.qr", "np.linalg.inv",
              "np.clip", "np.any", "np.dot", "np.sum"}
    banned_methods = {"any", "all"}
    maps = {"exp", "log", "dist", "transport", "project_tangent", "_exp", "_project", "_weingarten"}
    kernels = {"principal_angles", "_qr_sign_fixed"}
    module = ast.parse(inspect.getsource(manifolds)).body
    walked = [(fn.name, fn) for fn in module if isinstance(fn, ast.FunctionDef) and fn.name in kernels]
    assert len(walked) == len(kernels)
    for cls in module:
        if isinstance(cls, ast.ClassDef):
            walked += [(f"{cls.name}.{fn.name}", fn) for fn in cls.body
                       if isinstance(fn, ast.FunctionDef) and fn.name in maps]
    assert {f"{c}.{k}" for c in ("Euclidean", "_UnitRows", "Grassmann")
            for k in ("_exp", "_project", "_weingarten")} <= {name for name, _ in walked}
    found = [f"{name}: {ast.unparse(node.func)}" for name, fn in walked for node in ast.walk(fn)
             if isinstance(node, ast.Call) and (
                 ast.unparse(node.func) in banned
                 or isinstance(node.func, ast.Attribute) and node.func.attr in banned_methods)]
    assert found == []


@pytest.mark.parametrize("cls", Manifold.__subclasses__(), ids=lambda c: c.__name__)
def test_exp_and_project_tangent_are_checked_in_one_place(cls):
    """`Manifold.exp` and `Manifold.project_tangent` run the checks; a manifold
    supplies only the array kernels `_exp` and `_project`."""
    for name, kernel in (("exp", "_exp"), ("project_tangent", "_project")):
        assert getattr(cls, name) is getattr(Manifold, name)
        assert callable(getattr(cls, kernel, None))


@pytest.mark.parametrize("man", [Euclidean(3), Sphere(3), Oblique(4, 3), Grassmann(5, 2)],
                         ids=repr)
def test_exp_marks_its_kernel_result_read_only_uncopied(man, monkeypatch):
    """`_exp` returns a fresh writeable array (an oblique tangent with a zero
    row takes the still-row path); `exp` makes that array its Point's coords,
    read-only and uncopied."""
    rng = np.random.default_rng(0)
    for stack in ((), (2,)):
        x = Point(man, np.array([man.random_point(rng).coords for _ in range(2)]) if stack
                  else man.random_point(rng).coords)
        v = man.project_tangent(x, rng.standard_normal(stack + man.shape)).coords.copy()
        if isinstance(man, Oblique):
            v[..., 0, :] = 0.0
        y = man._exp(x.coords, v)
        assert y.flags.writeable and y.base is None
        returned = []
        monkeypatch.setattr(man, "_exp", lambda c, w: returned.append(type(man)._exp(man, c, w))
                            or returned[-1])
        coords = man.exp(x, Tangent(x, v)).coords
        monkeypatch.undo()
        assert coords is returned[-1] and not coords.flags.writeable
        assert np.array_equal(coords, y)


FOREIGN = {Euclidean: (Euclidean(3), Sphere(3)), Sphere: (Sphere(3), Euclidean(3)),
           Oblique: (Oblique(3, 2), Grassmann(3, 2)), Grassmann: (Grassmann(3, 2), Oblique(3, 2))}


@pytest.mark.parametrize("cls", Manifold.__subclasses__(), ids=lambda c: c.__name__)
def test_transport_rejects_a_base_point_from_another_manifold(cls):
    man, other = FOREIGN[cls]
    rng = np.random.default_rng(0)
    x, y = other.random_point(rng), man.random_point(rng)
    w = other.project_tangent(x, rng.standard_normal(other.shape))  # anchored at x: only x is wrong
    with pytest.raises(ValueError) as exc:
        man.transport(x, y, w)
    assert str(exc.value) == f"point on {other.name}, expected {man.name}"


@pytest.mark.parametrize("cls", Manifold.__subclasses__(), ids=lambda c: c.__name__)
def test_exp_rejects_a_tangent_anchored_at_another_point(cls):
    man = FOREIGN[cls][0]
    rng = np.random.default_rng(0)
    x, y = man.random_point(rng), man.random_point(rng)
    v = man.project_tangent(y, rng.standard_normal(man.shape))
    with pytest.raises(ValueError, match="tangent vector anchored at a different point"):
        man.exp(x, v)


class TestCoordsOwnership:
    @pytest.mark.parametrize("make", [Point, tangent_at_random_point], ids=["point", "tangent"])
    def test_writeable_source_or_readonly_view_is_copied(self, make):
        man = Oblique(3, 2)
        src = np.full((3, 2), 0.5 ** 0.5)
        made = make(man, src)
        src[0, 0] = 9.0
        assert made.coords[0, 0] == 0.5 ** 0.5
        base = np.full((2, 3, 2), 0.5 ** 0.5)
        view = base[0]
        view.flags.writeable = False
        made = make(man, view)
        base[0, 0, 0] = 9.0
        assert made.coords[0, 0] == 0.5 ** 0.5
        assert not made.coords.flags.writeable

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_readonly_coords(self, clone):
        man = Oblique(3, 2)
        rng = np.random.default_rng(0)
        x = man.random_point(rng)
        v = man.project_tangent(x, rng.standard_normal(man.shape))
        for made in (x, v):
            got = clone(made)
            assert type(got) is type(made) and got is not made
            assert np.array_equal(got.coords, made.coords) and not got.coords.flags.writeable
            assert got.manifold.name == man.name
        got = clone(v)
        assert np.array_equal(got.base.coords, x.coords) and not got.base.coords.flags.writeable

    def test_readonly_owned_array_is_shared(self):
        man = Oblique(3, 2)
        src = np.full((3, 2), 0.5 ** 0.5)
        src.flags.writeable = False
        assert Point(man, src).coords is src

    @pytest.fixture
    def kept(self, monkeypatch):
        """Per `_freeze` call, whether it kept the array it was given."""
        freeze, kept = manifolds._freeze, []

        def spy(a):
            out = freeze(a)
            kept.append(out is a)
            return out

        monkeypatch.setattr(manifolds, "_freeze", spy)
        return kept

    @pytest.mark.parametrize("man", [Sphere(3), Grassmann(5, 3), Oblique(3, 4)], ids=lambda m: m.name)
    def test_map_results_are_kept_without_a_second_copy(self, man, kept):
        """Each map marks the array it allocates read-only, so `Point`/`Tangent`
        keep it instead of copying it again."""

        def check(call):
            kept.clear()
            out = call()
            assert kept and all(kept)
            assert not out.coords.flags.writeable and out.coords.base is None
            return out

        rng = np.random.default_rng(8)
        x = check(lambda: man.random_point(rng))
        v = check(lambda: man.sample_tangent_ball(x, 0.5, rng))
        y = check(lambda: man.exp(x, v))
        check(lambda: man.log(x, y))
        check(lambda: man.log(x, x))
        check(lambda: man.transport(x, y, v))
        check(lambda: man.project_tangent(x, rng.standard_normal(man.shape)))
        check(lambda: objectives.unit_tangent(man, x, rng))
        check(lambda: oracles.tangent_of_norm(man, x, 0.3, rng))

    @pytest.mark.parametrize("obj", [DiagonalQuadratic([1.0, -1.0, 4.0]),
                                     KPCA(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]), 3)],
                             ids=lambda o: o.manifold.name)
    def test_min_hess_eig_makes_no_second_copy(self, obj, kept):
        x = obj.manifold.random_point(np.random.default_rng(3))
        kept.clear()
        objectives.min_hess_eig(obj, x, 1e-6, np.random.default_rng(4))
        assert kept and all(kept)

    @pytest.mark.parametrize("man", [Sphere(3), Euclidean(3)], ids=lambda m: m.name)
    def test_exact_hess_result_is_kept(self, man, kept):
        obj = DiagonalQuadratic([1.0, -1.0, 4.0], man)
        rng = np.random.default_rng(5)
        x = man.random_point(rng)
        v = man.sample_tangent_ball(x, 0.5, rng)
        kept.clear()
        out = obj.exact_hess(x, v)
        assert kept and all(kept)
        assert not out.coords.flags.writeable and out.coords.base is None

    def test_project_tangent_never_marks_the_callers_array(self):
        rng = np.random.default_rng(10)
        for man in (Euclidean(3), Sphere(3), Grassmann(5, 3), Oblique(3, 4)):
            a = rng.standard_normal(man.shape)
            p = man.project_tangent(man.random_point(rng), a)
            assert a.flags.writeable and p.coords is not a and not p.coords.flags.writeable


def subspace_angles(x, y):
    """Principal angles between the spans of orthonormal x and y, by the
    cosine/sine rule of `scipy.linalg.subspace_angles`: arcsin of the sines
    where cos^2 >= 1/2, arccos of the cosines elsewhere."""
    c = np.linalg.svd(x.T @ y, compute_uv=False)
    s = np.linalg.svd(y - x @ (x.T @ y), compute_uv=False)[::-1]
    return np.where(c ** 2 >= 0.5, np.arcsin(np.minimum(s, 1.0)), np.arccos(np.minimum(c, 1.0)))


def test_points_and_tangents_are_immutable():
    """Points and tangents refuse assignment and deletion and compare by
    identity, so a cache may key on `is`, as `Point` promises."""
    man = Oblique(3, 2)
    rng = np.random.default_rng(0)
    x = man.random_point(rng)
    v = man.project_tangent(x, rng.standard_normal(man.shape))
    for made, names in ((x, ("coords", "manifold")), (v, ("coords", "base", "manifold"))):
        for name in names + ("other",):
            with pytest.raises(AttributeError):
                setattr(made, name, x.coords)
            with pytest.raises(AttributeError):
                delattr(made, name)
        assert made == made and made != copy.copy(made)
    assert x.manifold is man and v.base is x and v.manifold is man


class TestGrassmann:
    def test_dist_against_scipy_principal_angles(self):
        man = Grassmann(6, 2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y = man.random_point(rng), man.random_point(rng)
            oracle = np.linalg.norm(subspace_angles(x.coords, y.coords))
            assert man.dist(x, y) == pytest.approx(oracle, abs=1e-10)

    def test_log_exp_subspace_roundtrip(self):
        man = Grassmann(5, 3)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = man.random_point(rng)
            v = man.sample_tangent_ball(x, 0.9 * man.geometry().injectivity_radius, rng)
            y = man.exp(x, v)
            assert man.feasibility_residual(y.coords) < 1e-12
            back = man.log(x, y)
            assert np.linalg.norm(back.coords - v.coords) <= 1e-7 * (1 + v.norm())

    def test_log_rejects_orthogonal_subspace(self):
        man = Grassmann(4, 2)
        x = man.point(np.eye(4)[:, :2])
        y = man.point(np.eye(4)[:, 2:])
        with pytest.raises(GeometryError, match="injectivity"):
            man.log(x, y)


MANIFOLDS = [
    Sphere(4),
    Oblique(3, 4),
    Grassmann(5, 2),
    Euclidean(4),
]


@pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name)
class TestInvariants:
    def test_log_exp_roundtrip(self, man):
        rng = np.random.default_rng(42)
        inj = min(man.geometry().injectivity_radius, 10.0)
        for _ in range(100):
            x = man.random_point(rng)
            v = man.sample_tangent_ball(x, 0.9 * inj, rng)
            y = man.exp(x, v)
            assert np.linalg.norm(man.log(x, y).coords - v.coords) <= 1e-7 * (1 + v.norm())

    def test_geodesic_speed(self, man):
        rng = np.random.default_rng(43)
        inj = min(man.geometry().injectivity_radius, 10.0)
        for _ in range(50):
            x = man.random_point(rng)
            v = man.sample_tangent_ball(x, 0.9 * inj, rng)
            t = rng.uniform(0.0, 1.0)
            d = man.dist(x, man.exp(x, Tangent(x, t * v.coords)))
            assert abs(d - t * v.norm()) <= 1e-8

    def test_log_norm_equals_dist(self, man):
        rng = np.random.default_rng(44)
        inj = min(man.geometry().injectivity_radius, 10.0)
        for _ in range(50):
            x = man.random_point(rng)
            y = man.exp(x, man.sample_tangent_ball(x, 0.9 * inj, rng))
            assert abs(man.log(x, y).norm() - man.dist(x, y)) <= 1e-10

    def test_transport_isometry_and_inner(self, man):
        rng = np.random.default_rng(45)
        inj = min(man.geometry().injectivity_radius, 10.0)
        for _ in range(50):
            x = man.random_point(rng)
            y = man.exp(x, man.sample_tangent_ball(x, 0.9 * inj, rng))
            u = man.sample_tangent_ball(x, 2.0, rng)
            w = man.sample_tangent_ball(x, 2.0, rng)
            tu, tw = man.transport(x, y, u), man.transport(x, y, w)
            assert man.tangency_residual(y, tu.coords) <= 1e-10
            assert abs(tu.norm() - u.norm()) <= 1e-10
            assert abs(man.inner(y, tu, tw) - man.inner(x, u, w)) <= 1e-10

    def test_projection_idempotent(self, man):
        rng = np.random.default_rng(46)
        for _ in range(50):
            x = man.random_point(rng)
            a = rng.standard_normal(man.shape)
            p1 = man.project_tangent(x, a)
            p2 = man.project_tangent(x, p1.coords)
            assert np.linalg.norm(p2.coords - p1.coords) <= 1e-12
            assert man.tangency_residual(x, p1.coords) <= 1e-10

    def test_projection_residual_orthogonal_to_tangents(self, man):
        rng = np.random.default_rng(47)
        for _ in range(20):
            x = man.random_point(rng)
            a = rng.standard_normal(man.shape)
            p = man.project_tangent(x, a)
            for _ in range(5):
                t = man.project_tangent(x, rng.standard_normal(man.shape))
                assert abs(np.sum((a - p.coords) * t.coords)) <= 1e-10 * (1 + np.linalg.norm(a)) * (1 + t.norm())

    def test_exp_feasible(self, man):
        rng = np.random.default_rng(48)
        for _ in range(50):
            x = man.random_point(rng)
            v = man.sample_tangent_ball(x, 3.0, rng)
            assert man.feasibility_residual(man.exp(x, v).coords) <= 1e-10


def make_manifold(cls):
    """A small instance of a concrete manifold class: n = 4, or (5, 2)."""
    return cls(4) if len(inspect.signature(cls).parameters) == 1 else cls(5, 2)


@pytest.mark.parametrize("cls", Manifold.__subclasses__(), ids=lambda c: c.__name__)
def test_every_manifold_has_every_map(cls):
    man = make_manifold(cls)
    rng = np.random.default_rng(9)
    x = man.random_point(rng)
    y = man.exp(x, man.sample_tangent_ball(x, 0.5, rng))
    v = man.log(x, y)
    d = man.dist(x, y)
    assert np.all(np.isfinite(v.coords)) and v.base is x
    assert math.isfinite(d) and d == pytest.approx(v.norm(), abs=1e-10)
    w = man.transport(x, y, v)
    assert np.all(np.isfinite(w.coords)) and w.base is y
    p = man.project_tangent(x, rng.standard_normal(man.shape))
    assert np.all(np.isfinite(p.coords)) and p.base is x


@pytest.mark.parametrize("cls", Manifold.__subclasses__(), ids=lambda c: c.__name__)
def test_geometry_is_built_once(cls):
    man = make_manifold(cls)
    assert man.geometry() is man.geometry()


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(manifolds.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, geodescent; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("man", [Sphere(3), Euclidean(3), Oblique(2, 3), Grassmann(3, 1)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_constructors_reject_non_finite_coords(man, bad):
    rng = np.random.default_rng(0)
    x = man.random_point(rng)
    coords = x.coords.copy()
    coords.flat[-1] = bad
    with pytest.raises(ValueError, match=rf"^{re.escape(man.name)}: point has a non-finite entry$"):
        man.point(coords)
    t = man.project_tangent(x, rng.standard_normal(man.shape)).coords.copy()
    t.flat[0] = bad
    with pytest.raises(ValueError, match=rf"^{re.escape(man.name)}: tangent has a non-finite entry$"):
        man.tangent(x, t)


def test_non_finite_examples_are_rejected():
    x = S3.point([1.0, 0.0, 0.0])
    for call in (lambda: S3.point([np.nan, 0, 0]), lambda: Euclidean(3).point([np.inf, 0, 0]),
                 lambda: S3.tangent(x, [0, np.nan, 0]), lambda: S3.tangent(x, [0, np.inf, 0])):
        with pytest.raises(ValueError, match="non-finite"):
            call()


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


STACK_MANIFOLDS = [Sphere(2), Sphere(3), Sphere(50), Euclidean(3), Oblique(1, 2), Oblique(4, 3),
                   Oblique(100, 20), Grassmann(4, 1), Grassmann(5, 2), Grassmann(5, 3)]


def stack(man, items):
    return np.stack([getattr(i, "coords", i) for i in items])


class TestStacks:
    """A stack of samples gives each sample the bits of a single-point call."""

    @staticmethod
    def samples(man, rng, m=24):
        """Points, tangents of every scale from zero through below 1e-9 to
        near the injectivity radius, second points, and ambient draws."""
        inj = min(man.geometry().injectivity_radius, 3.0)
        norms = [0.0, 1e-300, 1e-12, 5e-10, 1e-9, 1e-6, 0.3, 1.0, inj - 2e-4]
        xs = [man.random_point(rng) for _ in range(m)]
        vs = [scaled_tangent(man, x, norms[i % len(norms)], rng) if norms[i % len(norms)]
              else Tangent(x, np.zeros(man.shape)) for i, x in enumerate(xs)]
        ys = [man.exp(x, v) if i % 3 else man.exp(x, scaled_tangent(man, x, 0.7 * inj, rng))
              for i, (x, v) in enumerate(zip(xs, vs))]
        ws = [scaled_tangent(man, x, rng.uniform(0.1, 2.0), rng) for x in xs]
        return xs, vs, ys, ws, [rng.standard_normal(man.shape) for _ in xs]

    @staticmethod
    def assert_stacked_maps(man, xs, vs, ys, ws, amb):
        X = Point(man, stack(man, xs))
        V, W = Tangent(X, stack(man, vs)), Tangent(X, stack(man, ws))
        Y = Point(man, stack(man, ys))
        got = {"exp": man.exp(X, V).coords, "log": man.log(X, Y).coords, "dist": man.dist(X, Y),
               "transport": man.transport(X, Y, W).coords,
               "project_tangent": man.project_tangent(X, stack(man, amb)).coords}
        assert got["dist"].shape == (len(xs),)
        for i, (x, v, y, w, a) in enumerate(zip(xs, vs, ys, ws, amb)):
            want = {"exp": man.exp(x, v).coords, "log": man.log(x, y).coords, "dist": man.dist(x, y),
                    "transport": man.transport(x, y, w).coords,
                    "project_tangent": man.project_tangent(x, a).coords}
            for name in want:
                assert np.array_equal(bits(got[name][i]), bits(want[name])), (man.name, name, i)

    @pytest.mark.parametrize("man", STACK_MANIFOLDS, ids=lambda m: m.name)
    def test_every_map(self, man):
        rng = np.random.default_rng(len(man.name))
        with np.errstate(under="ignore"):
            self.assert_stacked_maps(man, *self.samples(man, rng, 8 if man.shape == (100, 20) else 24))

    @pytest.mark.parametrize("man", STACK_MANIFOLDS, ids=lambda m: m.name)
    def test_random_points_from_normal_draws(self, man):
        g = np.random.default_rng(1).standard_normal((6,) + man.shape)
        one_by_one = np.random.default_rng(1)
        got = man._point_from(g).coords
        for i in range(len(g)):
            assert np.array_equal(bits(got[i]), bits(man.random_point(one_by_one).coords))

    @pytest.mark.parametrize("man", [m for m in STACK_MANIFOLDS if not isinstance(m, Euclidean)],
                             ids=lambda m: m.name)
    def test_a_stack_with_one_pair_past_the_margin_raises(self, man):
        """One pair within `CUT_MARGIN` of the cut locus makes the whole stack
        raise, as that pair raises alone; just outside the margin it does not."""
        rng = np.random.default_rng(2)
        xs = [man.random_point(rng) for _ in range(5)]
        inj = man.geometry().injectivity_radius
        for gap, raises in ((0.5 * CUT_MARGIN, True), (2.0 * CUT_MARGIN, False)):
            ys = [man.exp(x, scaled_tangent(man, x, 0.5, rng)) for x in xs]
            # every row of an oblique point at the same distance: the largest row angle is inj - gap
            row = math.sqrt(man.shape[0]) if isinstance(man, Oblique) else 1.0
            far = man.exp(xs[2], scaled_tangent_rows(man, xs[2], (inj - gap) * row, rng))
            assert (man.dist(xs[2], far) / row >= inj - CUT_MARGIN) == raises
            ys[2] = far
            X, Y = Point(man, stack(man, xs)), Point(man, stack(man, ys))
            W = Tangent(X, stack(man, [scaled_tangent(man, x, 0.3, rng) for x in xs]))
            for call in (lambda: man.log(X, Y), lambda: man.transport(X, Y, W),
                         lambda: man.log(xs[2], far)):
                if raises:
                    with pytest.raises(GeometryError, match="undefined: distance"):
                        call()
                else:
                    call()

    @pytest.mark.parametrize("shape", [(4, 2), (5, 3), (7, 3)])
    def test_grassmann_pairs_with_a_zero_principal_angle(self, shape):
        """Subspaces sharing a direction, and a pair sharing every direction:
        transport keeps every singular direction, so each sample, in a stack
        or alone, gets the reference formula's bits."""
        man = Grassmann(*shape)
        k = shape[1]
        rng = np.random.default_rng(k)
        xs, ys = zip(*(shared_direction_pair(man, rng, same=i == 5) for i in range(6)))
        ws = [scaled_tangent(man, x, 0.5, rng) for x in xs]
        kept = [(np.linalg.svd(man.log(x, y).coords, compute_uv=False) > 1e-14).sum()
                for x, y in zip(xs, ys)]
        assert kept == [k - 1] * 5 + [0]
        assert np.array_equal(man.transport(xs[5], ys[5], ws[5]).coords, parent_grassmann_transport(
            man.name, xs[5].coords, ys[5].coords, ws[5].coords))
        self.assert_stacked_maps(man, xs, ws, ys, ws, [rng.standard_normal(shape) for _ in xs])


def shared_direction_pair(man, rng, same=False):
    """x and a y sharing x's first direction, at random principal angles from
    x in the others, or, if `same`, spanning x's subspace; y is written in
    another orthonormal basis of its span."""
    n, k = man.shape
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    theta = rng.uniform(0.1, 1.0, k) * (np.arange(k) > 0)  # first angle 0
    if same:
        theta[:] = 0.0
    away = np.concatenate([np.zeros((n, 1)), q[:, k:2 * k - 1]], axis=1)
    y = q[:, :k] * np.cos(theta) + away * np.sin(theta)
    return Point(man, q[:, :k]), Point(man, manifolds._qr_sign_fixed(
        y @ np.linalg.qr(rng.standard_normal((k, k)))[0]))


@pytest.mark.parametrize("pairs", ["from-exp", "shared-direction"])
def test_grassmann_transport_keeps_every_singular_direction(pairs):
    """On Grassmann(5, 3), where log(x, y) has rank at most 2, and on pairs
    sharing one or every direction, the one formula differs from the keep
    rule (`keep_rule_grassmann_transport`) by rounding only, and its result
    is tangent at y and as long as w."""
    man = Grassmann(5, 3)
    rng = np.random.default_rng(24)
    xs, ys = [], []
    for i in range(30):
        if pairs == "from-exp":
            x = man.random_point(rng)
            v = scaled_tangent(man, x, rng.uniform(0.1, 1.2), rng)
            if i % 3 == 0:  # a rank-one velocity
                a = man.project_tangent(x, rng.standard_normal((5, 1)) * np.ones((1, 3))).coords
                v = Tangent(x, 0.7 * a / np.linalg.norm(a))
            y = man.exp(x, v)
        else:
            x, y = shared_direction_pair(man, rng, same=i % 5 == 0)
        xs.append(x)
        ys.append(y)
    ws = [scaled_tangent(man, x, rng.uniform(0.1, 2.0), rng) for x in xs]
    X = Point(man, stack(man, xs))
    got = man.transport(X, Point(man, stack(man, ys)), Tangent(X, stack(man, ws))).coords
    for x, y, w, g in zip(xs, ys, ws, got):
        assert (np.linalg.svd(man.log(x, y).coords, compute_uv=False) <= 1e-14).any()
        wn = np.linalg.norm(w.coords)
        ref = keep_rule_grassmann_transport(man.name, x.coords, y.coords, w.coords)
        assert np.abs(g - ref).max() <= 1e-14 * wn
        assert man.tangency_residual(y, g) <= TANGENT_TOL
        assert abs(np.linalg.norm(g) - wn) <= 1e-12


def scaled_tangent_rows(man, x, norm, rng):
    """A tangent of total norm `norm`; on the oblique manifold, with every row
    of norm norm / sqrt(d)."""
    if not isinstance(man, Oblique):
        return scaled_tangent(man, x, norm, rng)
    return oblique_tangent(man, x, np.full(man.d, norm / math.sqrt(man.d)), rng)


def test_host_facts_the_stacked_bodies_rely_on():
    """The stacked bodies reproduce the scalar ones only while these hold.  A
    numpy or CPU change that breaks one should fail here, not shift report
    bytes: np.vecdot rounds like ndarray.dot (both BLAS ddot), numpy's cos
    and sin round like libm's, and np.arctan2 gives an element the same
    bits whether it is called on it alone, in a chunk of 3 or on the whole
    array, so a sphere point, an oblique point's rows and a stack agree.
    A quadratic form whose M has few nonzero rows forms M X on those rows
    alone: on Burer-Monteiro costs (100 x 100, a 5 x 5 block), M[rows] @ X
    scattered into zeros has the bits of M @ X, for a point and a stack, with
    the rows an index or a slice.  On the oblique manifold a step then runs
    on those rows alone: np.vecdot and `_project` on a row slice, and `_exp`
    on a row slice or on gathered rows, give the bits of the same rows of the
    whole call, also where a row's tangent is 0."""
    rng = np.random.default_rng(0)
    for n in (2, 3, 20):
        a, b = rng.standard_normal((2, 20000, n))
        assert np.array_equal(bits(np.vecdot(a, b)), bits([p.dot(q) for p, q in zip(a, b)]))
    t = rng.uniform(0.0, 4.0, 20000)
    assert np.array_equal(bits(np.cos(t)), bits([math.cos(v) for v in t]))
    assert np.array_equal(bits(np.sin(t)), bits([math.sin(v) for v in t]))
    s, c = rng.random(20000), rng.uniform(-1.0, 1.0, 20000)
    whole = bits(np.arctan2(s, c))
    assert np.array_equal(bits([np.arctan2(float(p), float(q)) for p, q in zip(s, c)]), whole)
    assert np.array_equal(bits(np.concatenate([np.arctan2(s[i:i + 3], c[i:i + 3])
                                               for i in range(0, len(s), 3)])), whole)
    for seed in range(6):
        g = np.random.default_rng(seed).standard_normal((5, 5))
        m = np.zeros((100, 100))
        m[:5, :5] = (g + g.T) / 2.0
        rows = np.flatnonzero(m.any(axis=1))
        for x in (rng.standard_normal((100, 20)), rng.standard_normal((8, 100, 20))):
            mx = m @ x
            for r in (rows, slice(0, 5)):
                out = np.zeros(x.shape)
                out[..., r, :] = m[r] @ x
                assert np.array_equal(bits(out), bits(mx))
            r = slice(0, 5)
            x /= np.sqrt(np.vecdot(x, x, keepdims=True))
            assert np.array_equal(bits(np.vecdot(x[..., r, :], mx[..., r, :])),
                                  bits(np.vecdot(x, mx)[..., r]))
            oblique = Oblique(100, 20)
            g = oblique._project(x, mx)
            assert np.array_equal(bits(oblique._project(x[..., r, :], mx[..., r, :])),
                                  bits(g[..., r, :]))
            v = -0.3 * g  # -0.0 off the block
            for _ in range(2):  # every block row moving, then row 1 still
                whole = oblique._exp(x, v)
                for r in (rows, slice(0, 5)):
                    assert np.array_equal(bits(oblique._exp(x[..., r, :], v[..., r, :])),
                                          bits(whole[..., r, :]))
                v[..., 1, :] = 0.0
