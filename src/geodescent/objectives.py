"""Quadratic-form costs with closed-form Riemannian gradients and Hessians, central
differences for other costs' Hessians, and a smallest-Hessian-eigenvalue estimator."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .manifolds import (
    Grassmann,
    Manifold,
    Oblique,
    Point,
    Sphere,
    Tangent,
    _dots,
    _norm,
    _norms,
    readonly,
)

EPS_MACH = np.finfo(float).eps


class Objective:
    """A smooth cost on a manifold, evaluated through an ambient extension.

    Subclasses provide `value` and `ambient_grad`; the Riemannian gradient is
    the tangent projection of the ambient gradient.  A subclass with a closed
    form for the Riemannian Hessian-vector product defines `exact_hess(x, v)`;
    where it stays None, callers fall back to finite differences.

    The checks in `verify` call `value`, `ambient_grad` and `exact_hess` on a
    stack of points (see `manifolds`).  A `value` or `ambient_grad` written
    for one point, which returns other than one result per sample of a
    stack, is called at each sample instead; an `exact_hess` must take a
    stack.  The shipped objectives take stacks, and every sample gets the
    bits of its single-point call.
    """

    manifold: Manifold
    exact_hess = None
    # rows outside which every gradient is zero, on a manifold of row factors:
    # `prgd_step`'s gradient step runs on them alone (see `_QuadraticForm`)
    _step_rows = None

    def value(self, x: Point) -> float:
        raise NotImplementedError

    def ambient_grad(self, x: Point) -> np.ndarray:
        raise NotImplementedError

    def rgrad(self, x: Point) -> Tangent:
        g = (self.ambient_grad(x) if x.coords.ndim == len(self.manifold.shape)
             else _stacked(self.ambient_grad, x, x.coords.shape))
        return self.manifold.project_tangent(x, g)

    def value_and_rgrad(self, x: Point) -> tuple[float, Tangent]:
        """(value(x), rgrad(x)), bit for bit; an override may share their work."""
        return self.value(x), self.rgrad(x)

    def _hess_at(self, x: Point):
        """v -> exact_hess(x, v), bit for bit; an override may do the work
        that depends on x alone once."""
        return partial(self.exact_hess, x)


def _stacked(f, x: Point, shape: tuple):
    """f(x) for a stack of points x, where f returns an array of `shape`.  An
    f written for one point returns anything else on a stack, and is called
    at each sample instead."""
    out = f(x)
    if np.shape(out) == shape:
        return out
    return np.array([f(Point(x.manifold, c)) for c in x.coords])


def _row_product(rows, m_rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """M X from M's nonzero rows `m_rows` = M[rows], `rows` a slice or an
    index: their product with X (or with each sample of a stack), scattered
    into zeros."""
    out = np.zeros(c.shape)
    out[..., rows, :] = m_rows @ c
    return out


class _QuadraticForm(Objective):
    """f(X) = 1/2 <X, M X>, M a finite symmetric matrix or a vector applied
    elementwise (a diagonal).  Hessian: P(M P v - W(P v, M X)), P the tangent
    projection, W the manifold's Weingarten term (Absil, Mahony and Trumpf 2013).

    On a manifold whose maps act on each row alone (the oblique manifold), a
    matrix M with at most half of its rows nonzero (a Burer-Monteiro cost
    block) keeps those rows, a slice when they are one run (a view), else an
    index.  M X is M[rows] X scattered into zeros, the bits of the full
    product at a finite X, and they are the step rows: `value_and_rgrad`
    projects on them alone, leaving the +0.0 the projection of a zero row
    gives, and a gradient step moves only them (`clamped_step`).
    """

    def __init__(self, m: np.ndarray, manifold: Manifold, label: str):
        if m.ndim != 1 and (m.ndim != 2 or m.shape[0] != m.shape[1]):
            raise ValueError(f"{label} must be square")
        if not np.isfinite(m).all():  # NaN would pass the symmetry test below
            raise ValueError(f"{label} has a non-finite entry")
        if (sym_res := float(np.linalg.norm(m - m.T))) > 1e-12:
            raise ValueError(f"{label} must be symmetric, asymmetry {sym_res:.3e} > 1e-12")
        if type(manifold)._weingarten is Manifold._weingarten:
            raise ValueError(f"a quadratic form needs a Weingarten term, got {manifold.name}")
        if not (m.shape == manifold.shape if m.ndim == 1 else len(m) == manifold.shape[0]):
            raise ValueError(f"{label} of size {len(m)} does not match {manifold.name}")
        self._times = np.multiply if m.ndim == 1 else np.matmul
        # On oblique(100, 20), 5 of 100 rows take 4 us against 9 us for the
        # full product.  All columns are kept, as a product over fewer of them
        # may round a kept row differently.
        if (manifold._row_factors and m.ndim == 2
                and 2 * len(rows := np.flatnonzero(m.any(axis=1))) <= len(m)):
            if rows.size and rows[-1] - rows[0] == rows.size - 1:  # one run
                rows = slice(int(rows[0]), int(rows[-1]) + 1)
            m, self._times, self._step_rows = m[rows], partial(_row_product, rows), rows
        self._m = m
        self._nd = len(manifold.shape)
        self.manifold = manifold

    def value(self, x):
        self.manifold._check_point(x)
        return 0.5 * _dots(x.coords, self._times(self._m, x.coords), self._nd)

    def ambient_grad(self, x):
        self.manifold._check_point(x)
        return readonly(self._times(self._m, x.coords))

    def value_and_rgrad(self, x):
        man, c, rows = self.manifold, x.coords, self._step_rows
        man._check_point(x)
        if rows is None:
            mc = self._times(self._m, c)
            return 0.5 * _dots(c, mc, self._nd), Tangent(x, man._project(c, mc))
        mc, g = np.zeros(c.shape), np.zeros(c.shape)
        mc[..., rows, :] = m_rows = self._m @ c
        g[..., rows, :] = man._project(c[..., rows, :], m_rows)
        return 0.5 * _dots(c, mc, self._nd), Tangent(x, readonly(g))

    def exact_hess(self, x, v):
        return self._hess_at(x)(v)

    def _hess_at(self, x):
        man, c = self.manifold, x.coords
        man._check_point(x)
        g = self._times(self._m, c)

        def hess(v: Tangent) -> Tangent:
            pv = man._project(c, man._as_ambient(v.coords, shape=c.shape))
            w = self._times(self._m, pv) - man._weingarten(c, pv, g)
            return Tangent(x, man._project(c, readonly(w)))
        return hess


class DiagonalQuadratic(_QuadraticForm):
    """f(x) = x^T diag(d) x (M = 2 diag(d)), on the unit sphere by default."""

    def __init__(self, diag, manifold: Manifold | None = None):
        self.diag = np.asarray(diag, dtype=float)
        if self.diag.ndim != 1 or not np.isfinite(self.diag).all():
            raise ValueError("diag must be a finite vector")
        super().__init__(2.0 * self.diag, manifold or Sphere(self.diag.size), "diagonal")


class KPCA(_QuadraticForm):
    """f(X) = -1/2 tr(X^T H X) (M = -H) on Grassmann: top-k invariant subspace of H."""

    def __init__(self, h, k: int):
        self.h = np.asarray(h, dtype=float)
        super().__init__(-self.h, Grassmann(len(self.h), k), "H")


class BurerMonteiro(_QuadraticForm):
    """f(Y) = 1/2 tr(A Y Y^T) (M = A) on the oblique manifold (unit-norm rows of Y)."""

    def __init__(self, a, p: int):
        self.a = np.asarray(a, dtype=float)
        super().__init__(self.a, Oblique(len(self.a), p), "A")


def default_fd_step(x: Point, v: Tangent):
    """Central-difference step balancing truncation against rounding, one per sample."""
    nd = len(x.manifold.shape)
    return EPS_MACH ** (1.0 / 3.0) * (1.0 + _norms(x.coords, nd)) / (1.0 + _norms(v.coords, nd))


def hess_vec(obj: Objective, x: Point, v: Tangent, step: float | None = None) -> Tangent:
    """Riemannian Hessian-vector product by central differences.

    Transports the gradients at exp(x, +-s v) back to x along the geodesic and
    differences them:  [G(+s) - G(-s)] / (2 s), projected onto the tangent
    space at x.  Exact-Hessian objectives are still differenced here; use
    `Objective.exact_hess` for the closed form.  A stack is differenced in one
    pass, each sample with its own default step, and gets the bits of its
    single-point calls; a zero tangent maps to +0.0.
    """
    man = obj.manifold
    man._check_base(x, v)
    if not np.count_nonzero(v.coords):
        return Tangent(x, readonly(np.zeros_like(v.coords)))
    s = default_fd_step(x, v) if step is None else float(step)
    if np.any(s <= 0):
        raise ValueError(f"step must be positive, got {s}")
    man._check_injectivity(s * _norms(v.coords, len(man.shape)), "hess_vec")
    s = np.reshape(s, np.shape(s) + (1,) * len(man.shape))  # shaped to scale each sample
    ends = [man.exp(x, Tangent(x, readonly(t * v.coords))) for t in (s, -s)]
    g_plus, g_minus = (man.transport(p, x, obj.rgrad(p)).coords for p in ends)
    return man.project_tangent(x, (g_plus - g_minus) / (2.0 * s))


def unit_tangent(man: Manifold, x: Point, rng: np.random.Generator) -> Tangent:
    """Unit tangent vector at x in a uniformly random direction."""
    g, gn = man._tangent_direction(x, rng.standard_normal(man.shape))
    return Tangent(x, readonly(g / gn))


def hess_operator(obj: Objective, x: Point):
    """v -> H(x)[v]: the closed form where the objective has one, bound to x
    once (a quadratic form forms M x once), else central differences (`hess_vec`)."""
    if obj.exact_hess is None:
        return partial(hess_vec, obj, x)
    return obj._hess_at(x)


def min_hess_eig(obj: Objective, x: Point, tol: float, rng: np.random.Generator,
                 max_iters: int = 500):
    """Smallest eigenvalue of the Riemannian Hessian at x, with eigenvector.

    Lanczos from a random unit tangent, with full reorthogonalisation (two
    Gram-Schmidt passes against every basis vector per step).  Stops when the
    smallest Ritz pair's residual beta_k |e_k^T s| is at most `tol`, on
    breakdown (beta_k < 1e-14), or after min(dim, max_iters) steps; after dim
    steps the basis spans the tangent space and the pair is exact.  One
    Hessian-vector product per step: the closed-form Hessian whenever the
    objective has one, central differences otherwise.

    Parameters
    ----------
    tol : float
        Stopping tolerance on the Ritz residual ||H u - lambda u||.

    Returns
    -------
    (lambda_min, direction) : (float, Tangent)
        Issues a warning and returns the current Ritz pair if `max_iters`
        steps, fewer than the dimension, end with the residual above `tol`.
    """
    if not tol > 0:  # a NaN tol fails too
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    man = obj.manifold
    op = hess_operator(obj, x)
    dim = man.geometry().dimension
    u = unit_tangent(man, x, rng)
    # grown a row per step: a max_iters-row block allocated up front (8 MB on
    # oblique(100,20)) raised the peak RSS of Burer-Monteiro runs by about 2 MB
    basis = np.empty((0, u.coords.size))
    alpha, beta = [], []
    for _ in range(min(dim, max_iters)):
        basis = np.vstack([basis, u.coords.ravel()])
        w = op(u).coords.ravel()
        alpha.append(float(basis[-1] @ w))
        for _ in range(2):
            w = w - (basis @ w) @ basis
        beta.append(_norm(w))
        off = beta[:-1]
        ritz, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
        if beta[-1] * abs(vecs[-1, 0]) <= tol or beta[-1] < 1e-14:
            break
        u = Tangent(x, readonly(w.reshape(man.shape) / beta[-1]))
    else:
        if max_iters < dim:
            warnings.warn(
                f"min_hess_eig: Ritz residual not settled after {max_iters} "
                f"steps; returning current estimate {ritz[0]:.6g}",
                RuntimeWarning,
            )
    direction = (vecs[:, 0] @ basis).reshape(man.shape)
    return float(ritz[0]), Tangent(x, readonly(direction / _norm(direction)))


@dataclass(frozen=True)
class SmoothnessEstimate:
    """Empirical gradient/Hessian Lipschitz constants over a sampled region.

    Both are max-ratio estimates, hence lower bounds on the true constants
    and monotone nondecreasing in the sample set.
    """

    beta_hat: float
    rho_hat: float


def estimate_smoothness(obj: Objective, center: Point, radius: float,
                        n_samples: int, rng: np.random.Generator) -> SmoothnessEstimate:
    """Estimate gradient/Hessian Lipschitz constants by pairwise max ratios.

    Samples points in the geodesic ball around `center` and maximizes
    ||rgrad(y) - transport(rgrad(x))|| / d(x, y) over pairs (beta_hat), and
    the analogous transported Hessian-vector difference over two random
    directions per pair (rho_hat).  Pairs closer than 1e-12 are skipped.
    """
    man = obj.manifold
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    if radius >= man.geometry().injectivity_radius:
        raise ValueError("radius must be below the injectivity radius")
    # per-pair direction streams keyed by (i, j) so that growing the sample
    # set reuses earlier probes; this makes the max-ratio estimates exactly
    # monotone in n_samples
    dir_base = int(rng.integers(2 ** 62))
    pts = [man.exp(center, man.sample_tangent_ball(center, radius, rng)) for _ in range(n_samples)]
    grads = [obj.rgrad(p) for p in pts]
    ops = [hess_operator(obj, p) for p in pts]
    beta_hat = 0.0
    rho_hat = 0.0
    used = 0
    for i in range(n_samples):
        for j in range(i + 1, n_samples):
            xi, xj = pts[i], pts[j]
            d = man.dist(xi, xj)
            if d < 1e-12:
                continue
            used += 1
            moved = man.transport(xi, xj, grads[i])
            beta_hat = max(beta_hat, _norm(grads[j].coords - moved.coords) / d)
            pair_rng = np.random.default_rng([dir_base, i, j])
            for _ in range(2):
                t = unit_tangent(man, xi, pair_rng)
                hj = ops[j](man.transport(xi, xj, t))
                hi_moved = man.transport(xi, xj, ops[i](t))
                rho_hat = max(rho_hat, _norm(hj.coords - hi_moved.coords) / d)
    if used == 0:
        raise ValueError("all sampled pairs degenerate (distance < 1e-12)")
    return SmoothnessEstimate(beta_hat, rho_hat)
