"""Independent oracles shared by the test modules: dense tangent-basis
Hessians, brute-force directional derivatives, principal angles, and the
lemma checks and the descent audit sampled one at a time."""

import math

import numpy as np


def tangent_basis(man, x):
    """Orthonormal basis of the tangent space at x by projecting ambient
    basis vectors and Gram-Schmidt."""
    d = man.geometry().dimension
    basis = []
    flat_dim = int(np.prod(man.shape))
    for idx in range(flat_dim):
        a = np.zeros(flat_dim)
        a[idx] = 1.0
        t = man.project_tangent(x, a.reshape(man.shape)).coords.ravel()
        for b in basis:
            t = t - np.dot(b, t) * b
        n = np.linalg.norm(t)
        if n > 1e-8:
            basis.append(t / n)
        if len(basis) == d:
            break
    assert len(basis) == d, "failed to span the tangent space"
    return [b.reshape(man.shape) for b in basis]


def dense_hessian_matrix(man, x, hess_op):
    """d x d matrix of the Hessian operator in an orthonormal tangent basis."""
    from geodescent import Tangent

    basis = tangent_basis(man, x)
    d = len(basis)
    m = np.zeros((d, d))
    images = [hess_op(Tangent(x, b)).coords for b in basis]
    for i in range(d):
        for j in range(d):
            m[i, j] = float(np.sum(basis[i] * images[j]))
    return (m + m.T) / 2.0


def central_diff_along_geodesic(obj, x, v, t=1e-6):
    """Directional derivative of the cost along exp(x, t v)."""
    from geodescent import Tangent

    man = obj.manifold
    f_plus = obj.value(man.exp(x, Tangent(x, t * v.coords)))
    f_minus = obj.value(man.exp(x, Tangent(x, -t * v.coords)))
    return (f_plus - f_minus) / (2.0 * t)


# -- the lemma checks, one sample at a time -----------------------------------
#
# Each `*_sample(manifold, rng, ...)` returns a closure that draws one
# configuration at scale s and returns its values, evaluated one sample at a
# time through the single-point API.  Like its check in `geodescent.verify`,
# it spawns one child stream of rng per kind of draw, in the check's order,
# and takes each draw from its kind's stream.  Run through `one_at_a_time`,
# they give the reference reports the stacked checks must render byte for
# byte.  Squares are `np.square`, which the checks' `** 2` on a stack is, and
# which Python's libm `x ** 2` does not always round alike.

def tangent_of_norm(man, x, norm, rng):
    """A tangent at x of norm `norm` in a uniformly random direction."""
    from geodescent import Tangent
    from geodescent.manifolds import readonly
    from geodescent.objectives import unit_tangent

    u = unit_tangent(man, x, rng)
    return Tangent(x, readonly(norm * u.coords))


def one_at_a_time(sample, width):
    """The stacked protocol of `verify._sweep` for a closure that draws and
    evaluates one sample: sample(s) returns `width` floats, or None for a
    degenerate draw."""
    def stacked(s, m):
        rows = [sample(s) for _ in range(m)]
        vals = np.array([(math.nan,) * width if r is None else r for r in rows]).reshape(m, width)
        return (*vals.T, np.array([r is not None for r in rows]))
    return stacked


def _ratio(residual, bound):
    if bound > 1e-300:
        return residual / bound
    return 0.0 if residual <= 1e-12 else math.inf


def two_step_sample(manifold, rng):
    from geodescent import Tangent

    gx, ua, ga, uy, gy = rng.spawn(5)

    def sample(s):
        x = manifold.random_point(gx)
        a = tangent_of_norm(manifold, x, s * ua.uniform(0.5, 1.0), ga)
        y = tangent_of_norm(manifold, x, s * uy.uniform(0.5, 1.0), gy)
        z = manifold.exp(x, a)
        p1 = manifold.exp(x, Tangent(x, a.coords + y.coords))
        p2 = manifold.exp(z, manifold.transport(x, z, y))
        res = manifold.dist(p1, p2)
        na, ny = a.norm(), y.norm()
        return res, _ratio(res, min(na, ny) * np.square(na + ny))
    return sample


def log_bilipschitz_sample(manifold, rng):
    gx, uy, gy, uz, gz = rng.spawn(5)

    def sample(R):
        x = manifold.random_point(gx)
        y = manifold.exp(x, tangent_of_norm(manifold, x, R * uy.uniform(0.3, 0.5), gy))
        z = manifold.exp(x, tangent_of_norm(manifold, x, R * uz.uniform(0.3, 0.5), gz))
        d = manifold.dist(y, z)
        if d < 1e-12:
            return None
        q = np.linalg.norm(manifold.log(x, y).coords - manifold.log(x, z).coords) / d
        return max(q - 1.0, 1.0 / q - 1.0, 0.0), (1.0 / q - 1.0) / R ** 2, (q - 1.0) / R ** 2
    return sample


def transport_contraction_sample(manifold, rng):
    gx, uy, gy, uw, gw = rng.spawn(5)

    def sample(s):
        x = manifold.random_point(gx)
        y = manifold.exp(x, tangent_of_norm(manifold, x, s * uy.uniform(0.5, 1.0), gy))
        w = tangent_of_norm(manifold, x, uw.uniform(0.2, 1.0), gw)
        res = manifold.dist(manifold.exp(x, w),
                            manifold.exp(y, manifold.transport(x, y, w)))
        return res, _ratio(res, manifold.dist(x, y))
    return sample


def holonomy_sample(manifold, rng):
    from geodescent.objectives import unit_tangent

    gx, uy, gy, uz, gz, gw = rng.spawn(6)

    def sample(s):
        x = manifold.random_point(gx)
        y = manifold.exp(x, tangent_of_norm(manifold, x, s * uy.uniform(0.5, 1.0), gy))
        z = manifold.exp(x, tangent_of_norm(manifold, x, s * uz.uniform(0.5, 1.0), gz))
        w = unit_tangent(manifold, x, gw)
        via = manifold.transport(y, z, manifold.transport(x, y, w))
        direct = manifold.transport(x, z, w)
        res = np.linalg.norm(via.coords - direct.coords)
        return res, _ratio(res, manifold.dist(x, y) * manifold.dist(y, z) * w.norm())
    return sample


def linearization_sample(manifold, rng, obj, saddle_x, eta):
    from geodescent import Tangent
    from geodescent.objectives import hess_operator

    hess = hess_operator(obj, saddle_x)
    ua, ga, uw, gw = rng.spawn(4)

    def sample(s):
        u = manifold.exp(saddle_x, tangent_of_norm(manifold, saddle_x, s * ua.uniform(0.3, 1.0), ga))
        w = manifold.exp(saddle_x, tangent_of_norm(manifold, saddle_x, s * uw.uniform(0.3, 1.0), gw))
        duw = manifold.dist(u, w)
        if duw < 1e-12:
            return None
        up = manifold.exp(u, Tangent(u, -eta * obj.rgrad(u).coords))
        wp = manifold.exp(w, Tangent(w, -eta * obj.rgrad(w).coords))
        lv = Tangent(saddle_x, manifold.log(saddle_x, w).coords - manifold.log(saddle_x, u).coords)
        pred = lv.coords - eta * hess(lv).coords
        res = np.linalg.norm(manifold.log(saddle_x, wp).coords - manifold.log(saddle_x, up).coords
                             - pred)
        theta = duw + manifold.dist(u, saddle_x) + manifold.dist(w, saddle_x)
        return _ratio(res, duw * theta), res
    return sample


def gradient_taylor_sample(manifold, rng, obj):
    from geodescent.objectives import hess_operator

    gx, uz, gz = rng.spawn(3)

    def sample(s):
        x = manifold.random_point(gx)
        z = manifold.exp(x, tangent_of_norm(manifold, x, s * uz.uniform(0.5, 1.0), gz))
        d = manifold.dist(x, z)
        if d < 1e-12:
            return None
        hterm = hess_operator(obj, x)(manifold.log(x, z))
        res = np.linalg.norm(manifold.transport(z, x, obj.rgrad(z)).coords
                             - obj.rgrad(x).coords - hterm.coords)
        return res, _ratio(res, 0.5 * np.square(d))
    return sample


# lemma id -> (closure, decay exponent, values per sample, summarizer in verify)
REFERENCE_CHECKS = {
    "two-step": (two_step_sample, 3.0, 2, "_largest_ratio"),
    "log-bilipschitz": (log_bilipschitz_sample, 2.0, 3, "_c2_c3"),
    "transport-contraction": (transport_contraction_sample, 1.0, 2, "_ratio_per_scale"),
    "holonomy": (holonomy_sample, 2.0, 2, "_largest_ratio"),
    "linearization": (linearization_sample, 1.0, 2, "_with_raw"),
    "gradient-taylor": (gradient_taylor_sample, 2.0, 2, "_empirical_rho"),
}


def reference_report(lemma_id, manifold, n, scales, rng, **problem):
    """The report of `lemma_id`'s check with its samples drawn and evaluated
    one at a time; `problem` holds the closure's objective arguments."""
    from geodescent import verify

    closure, expected, width, summarize = REFERENCE_CHECKS[lemma_id]
    sample = one_at_a_time(closure(manifold, rng, **problem), width)
    return verify._scaling_check(lemma_id, manifold, n, scales, expected, False, sample, width,
                                 getattr(verify, summarize))


def reference_descent(obj, region, n, eta, rng):
    """`verify.check_descent` with its steps drawn and taken one at a time:
    `sample_tangent_ball` unrolled into a normal and a uniform stream,
    spawned like the check's, with the check's numpy `**` for U^(1/d), which
    Python's libm `u ** (1 / d)` does not always round alike."""
    from geodescent import Tangent
    from geodescent.optimizer import clamped_step
    from geodescent.verify import VerificationReport

    man = obj.manifold
    center, radius = region
    d = man.geometry().dimension
    normal, uniform = rng.spawn(2)
    worst = 0.0
    violations = 0
    for _ in range(n):
        g, gn = man._tangent_direction(center, normal.standard_normal(man.shape))
        norm = radius * np.array(uniform.uniform()) ** (1.0 / d)
        u = man.exp(center, Tangent(center, (norm / gn) * g))
        g = obj.rgrad(u)
        gn = g.norm()
        if gn == 0:
            continue
        u_plus, eta_bar = clamped_step(man, u, g, gn, eta)
        violation = obj.value(u_plus) - obj.value(u) + 0.5 * eta_bar * np.square(gn)
        if violation > 1e-12:
            violations += 1
        worst = max(worst, max(violation, 0.0))
    return VerificationReport("descent", n, [radius], [worst], 0.0, worst,
                              violations == 0, None,
                              details={"violations": violations, "eta": eta})


def reference_maxima(n, scales, width, sample):
    """Per-scale maxima of each value of a one-at-a-time closure: a running
    max(acc, value) from 0.0 in draw order, skipping degenerate (None) draws."""
    from functools import reduce

    per_scale = []
    for s in sorted(scales, reverse=True):
        draws = [v for v in (sample(s) for _ in range(n)) if v is not None]
        per_scale.append([reduce(max, col, 0.0) for col in zip(*draws)] or [0.0] * width)
    return [list(col) for col in zip(*per_scale)]
