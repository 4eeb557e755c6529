"""Property tests of the cut-locus rule on every curved manifold.

Near the injectivity radius, `log` and `transport` either raise
`GeometryError` or return finite coordinates with no floating-point warning;
near zero distance `exp` undoes `log`; a NaN entry in y makes both raise."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodescent import GeometryError, Grassmann, Oblique, Point, Sphere, Tangent
from geodescent.objectives import unit_tangent

MANIFOLDS = [Sphere(2), Sphere(3), Sphere(50), Oblique(1, 2), Oblique(4, 3),
             Grassmann(4, 1), Grassmann(6, 3)]
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
seeds = st.integers(0, 2**32 - 1)


def pair_at(man, angle, rng):
    """A random x, a point y at distance `angle` from it along a random
    geodesic, and a unit tangent at x.  On the oblique manifold `angle` is the
    largest row angle: one random row is that far from its row of x, the
    others are closer."""
    x = man.random_point(rng)
    t = unit_tangent(man, x, rng).coords
    if isinstance(man, Oblique):
        angles = angle * rng.uniform(0.0, 1.0, man.d)
        angles[rng.integers(man.d)] = angle
        t = t / np.linalg.norm(t, axis=1, keepdims=True)
        y = np.cos(angles)[:, None] * x.coords + np.sin(angles)[:, None] * t
        y = Point(man, y / np.linalg.norm(y, axis=1, keepdims=True))
    elif isinstance(man, Sphere):
        y = math.cos(angle) * x.coords + math.sin(angle) * t
        y = Point(man, y / np.linalg.norm(y))
    else:
        y = man.exp(x, Tangent(x, angle * t))
    return x, y, unit_tangent(man, x, rng)


def raises_or_is_finite(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a floating-point RuntimeWarning fails the test
        try:
            out = call()
        except GeometryError:
            return None
    assert np.isfinite(out.coords).all()
    return out


@pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name)
@PROPERTY
@given(seed=seeds, log_delta=st.floats(-17.0, -3.0),
       slack=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_log_and_transport_at_the_cut_locus(man, seed, log_delta, slack):
    """At distance inj - delta, delta in [1e-17, 1e-3].  On the sphere and
    oblique manifold x and y are also scaled by 1 + 9e-11 * slack, within
    FEAS_TOL of unit norm, and a transport that returns must agree with the
    transport of the unit pair: the margin keeps 1 + x.y positive, so the
    sign cannot flip."""
    rng = np.random.default_rng(seed)
    x, y, w = pair_at(man, man.geometry().injectivity_radius - 10.0 ** log_delta, rng)
    stretch = isinstance(man, (Sphere, Oblique))
    if stretch:
        unit = raises_or_is_finite(lambda: man.transport(x, y, w))
        x = Point(man, (1.0 + 9e-11 * slack[0]) * x.coords)
        y = Point(man, (1.0 + 9e-11 * slack[1]) * y.coords)
        w = Tangent(x, w.coords)
    raises_or_is_finite(lambda: man.log(x, y))
    out = raises_or_is_finite(lambda: man.transport(x, y, w))
    if stretch and out is not None and unit is not None:
        assert np.linalg.norm(out.coords - unit.coords) <= 0.2 * w.norm()


@pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name)
@PROPERTY
@given(seed=seeds, log_dist=st.floats(-300.0, -2.0))
def test_exp_undoes_log_near_zero_distance(man, seed, log_dist):
    rng = np.random.default_rng(seed)
    x, y, _ = pair_at(man, 10.0 ** log_dist, rng)
    back = man.exp(x, man.log(x, y))
    assert np.abs(back.coords - y.coords).max() <= 1e-10


@pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name)
@PROPERTY
@given(seed=seeds, entry=st.integers(0, 2**16))
def test_nan_entry_in_y_raises(man, seed, entry):
    """`dist`'s SVD stops at a NaN on Grassmann; elsewhere the guard does."""
    rng = np.random.default_rng(seed)
    x, y, w = pair_at(man, rng.uniform(0.0, 1.5), rng)
    yc = y.coords.copy()
    yc.flat[entry % yc.size] = np.nan
    y = Point(man, yc)
    error = np.linalg.LinAlgError if isinstance(man, Grassmann) else GeometryError
    for call in (lambda: man.log(x, y), lambda: man.transport(x, y, w)):
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("man", [Sphere(3), Oblique(2, 3)], ids=lambda m: m.name)
def test_transport_at_the_feasibility_limit_near_the_antipode(man):
    """y's edge row has norm 1 + 9e-11, which `point` accepts, at angle
    pi - 2e-6 from its row of x = e1, so 1 + x.y < 0 there: `log` and
    `transport` raise.  Just past the margin, at pi - 2e-4, transport keeps
    the sign of the unit pair's transport."""
    def pair(a, scale):
        edge = scale * np.array([-math.cos(a), math.sin(a), 0.0])
        if isinstance(man, Sphere):
            return man.point(np.eye(3)[0]), man.point(edge), np.eye(3)[1]
        return man.point(np.eye(3)[:2]), man.point(np.array([edge, [0, 1.0, 0]])), np.eye(3)[[1, 0]]

    x, y, w = pair(2e-6, 1.0 + 9e-11)
    assert 1.0 + np.reshape(y.coords, (-1, 3))[0] @ np.eye(3)[0] < 0.0
    with pytest.raises(GeometryError, match="^log undefined"):
        man.log(x, y)
    with pytest.raises(GeometryError, match="^transport undefined"):
        man.transport(x, y, man.tangent(x, w))
    for scale in (1.0, 1.0 + 9e-11):
        x, y, w = pair(2e-4, scale)
        out = np.reshape(man.transport(x, y, man.tangent(x, w)).coords, (-1, 3))[0]
        assert out[1] == pytest.approx(-1.0, abs=0.05)
