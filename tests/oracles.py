"""Independent oracles shared by the test modules: dense tangent-basis
Hessians, brute-force directional derivatives, principal angles, and the
lemma checks sampled one at a time."""

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


# -- the four geometry checks, one sample at a time ---------------------------
#
# Each `*_sample(manifold, rng)` returns the per-sample closure its check in
# `geodescent.verify` evaluated before the checks stacked their samples: it
# draws one configuration at scale s and returns its values.  Run through
# `verify._one_at_a_time`, they give the reference reports the stacked checks
# must render byte for byte.

def _ratio(residual, bound):
    if bound > 1e-300:
        return residual / bound
    return 0.0 if residual <= 1e-12 else math.inf


def two_step_sample(manifold, rng):
    from geodescent import Tangent
    from geodescent.verify import _tangent_of_norm

    def sample(s):
        x = manifold.random_point(rng)
        a = _tangent_of_norm(manifold, x, s * rng.uniform(0.5, 1.0), rng)
        y = _tangent_of_norm(manifold, x, s * rng.uniform(0.5, 1.0), rng)
        z = manifold.exp(x, a)
        p1 = manifold.exp(x, Tangent(x, a.coords + y.coords))
        p2 = manifold.exp(z, manifold.transport(x, z, y))
        res = manifold.dist(p1, p2)
        na, ny = a.norm(), y.norm()
        return res, _ratio(res, min(na, ny) * (na + ny) ** 2)
    return sample


def log_bilipschitz_sample(manifold, rng):
    from geodescent.verify import _tangent_of_norm

    def sample(R):
        x = manifold.random_point(rng)
        y = manifold.exp(x, _tangent_of_norm(manifold, x, R * rng.uniform(0.3, 0.5), rng))
        z = manifold.exp(x, _tangent_of_norm(manifold, x, R * rng.uniform(0.3, 0.5), rng))
        d = manifold.dist(y, z)
        if d < 1e-12:
            return None
        q = np.linalg.norm(manifold.log(x, y).coords - manifold.log(x, z).coords) / d
        return max(q - 1.0, 1.0 / q - 1.0, 0.0), (1.0 / q - 1.0) / R ** 2, (q - 1.0) / R ** 2
    return sample


def transport_contraction_sample(manifold, rng):
    from geodescent.verify import _tangent_of_norm

    def sample(s):
        x = manifold.random_point(rng)
        y = manifold.exp(x, _tangent_of_norm(manifold, x, s * rng.uniform(0.5, 1.0), rng))
        w = _tangent_of_norm(manifold, x, rng.uniform(0.2, 1.0), rng)
        res = manifold.dist(manifold.exp(x, w),
                            manifold.exp(y, manifold.transport(x, y, w)))
        return res, _ratio(res, manifold.dist(x, y))
    return sample


def holonomy_sample(manifold, rng):
    from geodescent.objectives import unit_tangent
    from geodescent.verify import _tangent_of_norm

    def sample(s):
        x = manifold.random_point(rng)
        y = manifold.exp(x, _tangent_of_norm(manifold, x, s * rng.uniform(0.5, 1.0), rng))
        z = manifold.exp(x, _tangent_of_norm(manifold, x, s * rng.uniform(0.5, 1.0), rng))
        w = unit_tangent(manifold, x, rng)
        via = manifold.transport(y, z, manifold.transport(x, y, w))
        direct = manifold.transport(x, z, w)
        res = np.linalg.norm(via.coords - direct.coords)
        return res, _ratio(res, manifold.dist(x, y) * manifold.dist(y, z) * w.norm())
    return sample


# lemma id -> (closure, decay exponent, values per sample, summarizer in verify)
REFERENCE_CHECKS = {
    "two-step": (two_step_sample, 3.0, 2, "_largest_ratio"),
    "log-bilipschitz": (log_bilipschitz_sample, 2.0, 3, "_c2_c3"),
    "transport-contraction": (transport_contraction_sample, 1.0, 2, "_ratio_per_scale"),
    "holonomy": (holonomy_sample, 2.0, 2, "_largest_ratio"),
}


def reference_report(lemma_id, manifold, n, scales, rng):
    """The report of `lemma_id`'s check with its samples drawn and evaluated
    one at a time."""
    from geodescent import verify

    closure, expected, width, summarize = REFERENCE_CHECKS[lemma_id]
    sample = verify._one_at_a_time(closure(manifold, rng), width)
    return verify._scaling_check(lemma_id, manifold, n, scales, expected, False, sample, width,
                                 getattr(verify, summarize))


def reference_maxima(n, scales, width, sample):
    """Per-scale maxima of each value of a one-at-a-time closure: a running
    max(acc, value) from 0.0 in draw order, skipping degenerate (None) draws."""
    from functools import reduce

    per_scale = []
    for s in sorted(scales, reverse=True):
        draws = [v for v in (sample(s) for _ in range(n)) if v is not None]
        per_scale.append([reduce(max, col, 0.0) for col in zip(*draws)] or [0.0] * width)
    return [list(col) for col in zip(*per_scale)]
