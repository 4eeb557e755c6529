"""Manifolds with closed-form exponential maps, log maps and parallel transport.

Every manifold stores points in ambient coordinates: vectors for the sphere
and Euclidean space, matrices with orthonormal columns for Grassmann,
matrices with unit-norm rows for the oblique manifold.  The metric is the
ambient Frobenius (dot) product restricted to tangent spaces in all cases.
The oblique manifold is a product of spheres, so it runs the sphere's map
bodies (`_UnitRows`) on its rows.

`exp`, `log`, `dist`, `transport` and `project_tangent` also take a stack:
Points and Tangents whose coords have shape (m,) + shape hold m samples, the
maps act on each sample with the bits of a single-point call, and `dist`
returns an (m,) array.  A stack raises if any of its samples would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _linalg, _umath_linalg

FEAS_TOL = 1e-10      # feasibility residual allowed on points
TANGENT_TOL = 1e-10   # tangency residual allowed on tangent vectors
# A log or transport needs its distance below the injectivity radius by this
# much.  On a sphere factor, x and y are unit only to FEAS_TOL, so c = x.y
# may sit 2 FEAS_TOL below cos d: d < pi - m keeps
# 1 + c >= 1 - cos m - 2 FEAS_TOL ~ m^2 / 2 - 2e-10, which is positive only for
# m > 2 sqrt(FEAS_TOL) = 2e-5.  At m = 1e-4 it is >= 4.8e-9, so transport's
# division by 1 + x.y never divides by zero or flips sign.
CUT_MARGIN = 1e-4
_F8 = np.dtype(float)


class GeometryError(ValueError):
    """A geometric-domain violation, e.g. a log map past the cut locus."""


@dataclass(frozen=True)
class GeometryInfo:
    """Injectivity radius and intrinsic dimension."""

    injectivity_radius: float
    dimension: int


def readonly(a: np.ndarray) -> np.ndarray:
    """Mark a fresh array read-only, so `Point`/`Tangent` keep it uncopied."""
    a.setflags(write=False)
    return a


def _freeze(a) -> np.ndarray:
    if type(a) is np.ndarray and a.base is None and not a.flags.writeable and a.dtype is _F8:
        return a
    return readonly(np.array(a, dtype=float))


def _norm(a: np.ndarray) -> float:
    """`float(np.linalg.norm(a))`, same bits, without its Python wrapper."""
    c = a.ravel(order="K")
    return math.sqrt(c.dot(c))


# numpy.linalg's LAPACK gufuncs minus its wrappers, which cost more than small factorizations
def _linalg_errstate(raiser):
    """The error state numpy.linalg sets, so a LAPACK failure raises its `LinAlgError`."""
    return np.errstate(call=raiser, invalid="call", over="ignore", divide="ignore", under="ignore")


@_linalg_errstate(_linalg._raise_linalgerror_svd_nonconvergence)
def _svd(a: np.ndarray):
    """`numpy.linalg.svd(a, full_matrices=False)`, same bits."""
    return _umath_linalg.svd_s(a, signature="d->ddd")


@_linalg_errstate(_linalg._raise_linalgerror_svd_nonconvergence)
def _svdvals(a: np.ndarray) -> np.ndarray:
    """`numpy.linalg.svd(a, compute_uv=False)`, same bits."""
    return _umath_linalg.svd(a, signature="d->d")


@_linalg_errstate(_linalg._raise_linalgerror_singular)
def _inv(m: np.ndarray) -> np.ndarray:
    """`numpy.linalg.inv(m)`, same bits."""
    return _umath_linalg.inv(m, signature="d->d")


def principal_angles(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Angles between the column spans of two orthonormal matrices (or of
    each pair of two stacks)."""
    return np.arccos(np.minimum(np.maximum(_svdvals(x.mT @ y), 0.0), 1.0))


def _row(s: np.ndarray) -> np.ndarray:
    """Column factors s, shaped to scale a matrix's columns (a stack's s gets
    an axis); a third of the cost of `s[..., None, :]` on one matrix."""
    return s if s.ndim == 1 else s[:, None]


def _dots(a: np.ndarray, b: np.ndarray, nd: int = 1):
    """<a, b> by BLAS ddot per sample of stacks whose samples have `nd` axes, or of one."""
    if a.ndim == nd:  # one sample: `ndarray.dot`, cheaper to call than `np.vecdot`
        return a.ravel().dot(b.ravel())
    if nd > 1:  # flatten each sample's axes into one
        shape = a.shape[:a.ndim - nd] + (-1,)
        a, b = a.reshape(shape), b.reshape(shape)
    return np.vecdot(a, b)


def _norms(a: np.ndarray, nd: int = 1):
    """`_norm` of each sample, or of one sample, same bits."""
    return np.sqrt(_dots(a, a, nd))


class Point:
    """An element of a manifold, stored in ambient coordinates.

    `coords` is read-only float64: a read-only float64 array owning its memory
    is shared, anything else (a writeable array, a view, a list) is copied.
    `Tangent.coords` follows the same rule.  Points and tangents are
    immutable and compare by identity, so a cache may key on `is`."""

    __slots__ = ("manifold", "coords")

    def __init__(self, manifold: "Manifold", coords):
        _set_point_manifold(self, manifold)
        _set_point_coords(self, _freeze(coords))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __reduce__(self):
        return Point, (self.manifold, self.coords)

    def __repr__(self):
        return f"Point({self.manifold.name}, {np.array2string(self.coords, precision=4)})"


class Tangent:
    """A tangent vector anchored at a base point."""

    __slots__ = ("base", "coords")

    def __init__(self, base: Point, coords):
        _set_tangent_base(self, base)
        _set_tangent_coords(self, _freeze(coords))

    __setattr__ = Point.__setattr__
    __delattr__ = Point.__delattr__

    def __reduce__(self):
        return Tangent, (self.base, self.coords)

    @property
    def manifold(self) -> "Manifold":
        return self.base.manifold

    def norm(self) -> float:
        return _norm(self.coords)

    def __repr__(self):
        return f"Tangent({self.manifold.name}, norm={self.norm():.4g})"


# the slots' own setters: the only writes `__setattr__` leaves open
_set_point_manifold, _set_point_coords = Point.manifold.__set__, Point.coords.__set__
_set_tangent_base, _set_tangent_coords = Tangent.base.__set__, Tangent.coords.__set__


class Manifold:
    """Base class: shared checks, the Frobenius metric and ball sampling."""

    name: str = "manifold"
    shape: tuple[int, ...] = ()
    _geometry: GeometryInfo  # built once by each subclass's __init__
    # True where a point's rows are the factors of a product manifold, so that
    # `_project` and `_exp` act on each row alone (oblique)
    _row_factors = False

    # -- geometry data -------------------------------------------------

    def geometry(self) -> GeometryInfo:
        return self._geometry

    # -- constructors with invariant checks ----------------------------

    def point(self, coords) -> Point:
        coords = self._finite(self._as_ambient(coords, "coords of shape"), "point")
        res = self.feasibility_residual(coords)
        if not res <= FEAS_TOL:
            raise ValueError(f"{self.name}: point infeasible, residual {res:.3e} > {FEAS_TOL:.0e}")
        return Point(self, coords)

    def tangent(self, x: Point, coords) -> Tangent:
        self._check_point(x)
        coords = self._finite(self._as_ambient(coords, "tangent of shape"), "tangent")
        res = self.tangency_residual(x, coords)
        if not res <= TANGENT_TOL:
            raise ValueError(f"{self.name}: vector not tangent, residual {res:.3e} > {TANGENT_TOL:.0e}")
        return Tangent(x, coords)

    def _finite(self, a: np.ndarray, what: str) -> np.ndarray:
        """`a`, checked finite where coordinates enter: a NaN or inf would pass
        the residual tests (Euclidean's residuals are 0.0 at inf) and the
        cut-locus rule.  The maps skip this check, which would cost them
        several microseconds a call."""
        if not np.isfinite(a).all():
            raise ValueError(f"{self.name}: {what} has a non-finite entry")
        return a

    def _as_ambient(self, a, what: str = "shape", shape=None) -> np.ndarray:
        """`a` as a float array, checked to have the ambient shape (or `shape`,
        a stack's)."""
        a = np.asarray(a, dtype=float)
        shape = self.shape if shape is None else shape
        if a.shape != shape:
            raise ValueError(f"{self.name}: expected {what} {shape}, got {a.shape}")
        return a

    def feasibility_residual(self, coords: np.ndarray) -> float:
        raise NotImplementedError

    def tangency_residual(self, x: Point, coords: np.ndarray) -> float:
        raise NotImplementedError

    # -- core maps ------------------------------------------------------

    def exp(self, x: Point, v: Tangent) -> Point:
        """exp_x(v), checked here once around the manifold's unchecked kernel
        `_exp(x, v)` on coordinates; x comes back as is where the kernel returns x.
        The kernel returns x's coords or a fresh array, which becomes the Point's."""
        self._check_base(x, v)
        y = self._exp(x.coords, v.coords)
        return x if y is x.coords else Point(self, readonly(y))

    def log(self, x: Point, y: Point) -> Tangent:
        raise NotImplementedError

    def dist(self, x: Point, y: Point) -> float:
        raise NotImplementedError

    def transport(self, x: Point, y: Point, w: Tangent) -> Tangent:
        raise NotImplementedError

    def _weingarten(self, x: np.ndarray, v: np.ndarray, g: np.ndarray):
        """Unchecked kernel: the Weingarten term W_x(v, g) for ambient gradient g."""
        raise NotImplementedError(f"{self.name} has no Weingarten term")

    def project_tangent(self, x: Point, a) -> Tangent:
        """The ambient array `a` projected onto the tangent space at x, checked
        here once around the manifold's unchecked kernel `_project(x, a)`."""
        self._check_point(x)
        return Tangent(x, self._project(x.coords, self._as_ambient(a, shape=x.coords.shape)))

    def inner(self, x: Point, u: Tangent, v: Tangent) -> float:
        """Riemannian inner product: the ambient Frobenius product."""
        self._check_point(x)
        self._check_base(x, u)
        self._check_base(x, v)
        return float(np.add.reduce(u.coords * v.coords, axis=None))

    def sample_tangent_ball(self, x: Point, radius: float, rng: np.random.Generator) -> Tangent:
        """Uniform sample from the radius-`radius` ball in the tangent space.

        Direction comes from a projected standard normal, the norm from
        radius * U^(1/d) with d the intrinsic dimension, which together give
        the uniform distribution on the d-dimensional ball.
        """
        self._check_point(x)
        if not radius > 0:
            raise ValueError(f"radius must be positive, got {radius}")
        d = self.geometry().dimension
        g, gn = self._tangent_direction(x, rng.standard_normal(self.shape))
        norm = radius * rng.uniform() ** (1.0 / d)
        return Tangent(x, readonly((norm / gn) * g))

    def _tangent_direction(self, x: Point, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The standard normal draw g projected to the tangent space at x (or
        each draw of a stack, at each point of one), and its norm, shaped to
        scale a sample: a uniformly random tangent direction.  A norm at most
        1e-12, which has probability zero, raises."""
        g = self.project_tangent(x, g).coords
        gn = np.asarray(_norms(g, len(self.shape)))
        if not (gn > 1e-12).all():
            raise RuntimeError("failed to draw a nonzero tangent direction")
        return g, gn.reshape(gn.shape + (1,) * len(self.shape))

    def random_point(self, rng: np.random.Generator) -> Point:
        return self._point_from(rng.standard_normal(self.shape))

    def _point_from(self, g: np.ndarray) -> Point:
        """The random point made from the standard normal draw g (or a stack
        of them)."""
        raise NotImplementedError

    def _still(self, x: np.ndarray, v: np.ndarray, y: np.ndarray) -> np.ndarray:
        """`y`, except that a stack's samples whose tangent is exactly zero keep
        their point, as a single-point `exp` returns x itself."""
        if y.ndim == len(self.shape):
            return y
        moved = v.reshape(len(y), -1).any(axis=1)
        return np.where(moved.reshape((-1,) + (1,) * len(self.shape)), y, x)

    # -- internal checks -------------------------------------------------

    def _check_point(self, x: Point):
        if x.manifold.name != self.name:
            raise ValueError(f"point on {x.manifold.name}, expected {self.name}")

    def _check_base(self, x: Point, v: Tangent):
        if v.base is not x and not np.array_equal(v.base.coords, x.coords):
            raise ValueError("tangent vector anchored at a different point")

    def _check_pair(self, x: Point, y: Point):
        self._check_point(x)
        self._check_point(y)

    def _check_injectivity(self, d, what: str):
        """The cut-locus rule of every map: `d` must be below the injectivity
        radius by `CUT_MARGIN`.  For an array of distances (a stack's, or an
        oblique point's rows) its largest must."""
        inj = self._geometry.injectivity_radius
        if type(d) is np.ndarray:
            d = d.max()  # a NaN anywhere makes the max NaN
        if not d < inj - CUT_MARGIN:  # a NaN distance fails too
            raise GeometryError(
                f"{what} undefined: distance {d:.6g} >= injectivity radius {inj:.6g} of {self.name}"
            )

    def __repr__(self):
        return self.name


@_linalg_errstate(_linalg._raise_linalgerror_qr)
def _qr_sign_fixed(y: np.ndarray) -> np.ndarray:
    """Thin QR with positive diagonal of R, a fresh array; absorbs rounding drift only.

    numpy.linalg.qr's two LAPACK calls, same bits: they factor a float copy of
    `y` in place, leaving R in its upper triangle."""
    a = y.astype(_F8)
    q = _umath_linalg.qr_reduced(a, _umath_linalg.qr_r_raw(a, signature="d->d"), signature="dd->d")
    s = np.sign(a.diagonal(0, -2, -1))
    s[s == 0] = 1.0
    return q * _row(s)


class Euclidean(Manifold):
    """Flat R^n baseline: all maps are affine identities."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.name = f"euclidean({n})"
        self.shape = (n,)
        self._geometry = GeometryInfo(math.inf, n)

    def feasibility_residual(self, coords):
        return 0.0

    def tangency_residual(self, x, coords):
        return 0.0

    def _exp(self, x, v):
        if not np.count_nonzero(v):
            return x
        return self._still(x, v, x + v)

    def log(self, x, y):
        self._check_pair(x, y)
        return Tangent(x, readonly(y.coords - x.coords))

    def dist(self, x, y):
        self._check_pair(x, y)
        return _norms(y.coords - x.coords)

    def transport(self, x, y, w):
        self._check_base(x, w)
        self._check_pair(x, y)
        return Tangent(y, w.coords)

    def _project(self, x, a):
        return a

    def _weingarten(self, x, v, g):
        return 0.0

    def _point_from(self, g):
        return Point(self, readonly(g))


class _UnitRows:
    """The unit-sphere maps, shared by `Sphere` and `Oblique`.

    Each body is written once, on the last axis, with `np.vecdot` (which
    rounds like `ndarray.dot`) and `np.arctan2`, so it acts alike on a sphere
    point, on each row of an oblique point, and on a stack of either.  Under
    `exp`, a row whose tangent norm is 0, also by underflow, keeps its point
    and is not computed.
    Not a `Manifold` subclass, so it is not listed as a manifold: it only
    supplies methods.
    """

    def feasibility_residual(self, coords):
        return float(np.abs(np.sqrt(np.vecdot(coords, coords)) - 1.0).max())

    def tangency_residual(self, x, coords):
        return float(np.abs(np.vecdot(x.coords, coords)).max())

    def _exp(self, x, v):
        th = np.sqrt(np.vecdot(v, v, keepdims=True))
        moving = np.count_nonzero(th)
        if not moving:  # zero tangents, or ones whose norm underflows
            return x
        if moving < th.size:  # the rest keep their point and are not computed
            rows = th[..., 0] != 0.0
            y = x.copy()
            y[rows] = self._exp(x[rows], v[rows])
            return y
        # each th is nonzero, so at least 2.2e-162; below th = 1e-9, cos = 1 and
        # sin(t)/t = 1: y = x + v, cubic error below rounding
        y = np.cos(th) * x + (np.sin(th) / th) * v
        y /= np.sqrt(np.vecdot(y, y, keepdims=True))
        return y

    @staticmethod
    def _angle(x: np.ndarray, y: np.ndarray):
        """Per row: the angle d from x to y, the cosine c = x.y unclamped,
        u = y - c' x with c' = c clamped to [-1, 1], and |u|."""
        c = np.vecdot(x, y)
        cc = np.minimum(np.maximum(c, -1.0), 1.0)
        u = y - cc[..., None] * x
        s = np.sqrt(np.vecdot(u, u))
        return np.arctan2(s, cc), c, u, s

    def log(self, x, y):
        self._check_pair(x, y)
        d, _, u, s = self._angle(x.coords, y.coords)
        self._check_injectivity(d, "log")
        # a tangent with |u| < 1e-300 is +0.0 throughout (0.0 * u would keep the
        # signs of u), and dividing by at least 1e-300 keeps d / s finite there
        return Tangent(x, readonly(np.where((s < 1e-300)[..., None], 0.0,
                                            (d / np.maximum(s, 1e-300))[..., None] * u)))

    def transport(self, x, y, w):
        self._check_base(x, w)
        self._check_pair(x, y)
        d, c, _, _ = self._angle(x.coords, y.coords)
        self._check_injectivity(d, "transport")
        # x and y are unit only to FEAS_TOL, and near the cut locus 1 + x.y is
        # as small as m^2 / 2: the cosine of the unit pair, x.y / |x||y|, keeps
        # that off-unit error out of the division
        c = c / np.sqrt(np.vecdot(x.coords, x.coords) * np.vecdot(y.coords, y.coords))
        xy = x.coords + y.coords
        out = w.coords - (np.vecdot(xy, w.coords) / (1.0 + c))[..., None] * xy
        # kill rounding in the normal direction
        return Tangent(y, self._project(y.coords, out))

    def _project(self, x, a):
        return readonly(a - np.vecdot(x, a, keepdims=True) * x)

    def _weingarten(self, x, v, g):
        return np.vecdot(x, g, keepdims=True) * v

    def _point_from(self, g):
        return Point(self, readonly(g / np.sqrt(np.vecdot(g, g, keepdims=True))))


class Sphere(_UnitRows, Manifold):
    """Unit sphere S^(n-1) in R^n.  Constant curvature 1, injectivity pi.

    The maps are `_UnitRows`'s; the distance is the great-circle angle.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        self.n = n
        self.name = f"sphere({n})"
        self.shape = (n,)
        self._geometry = GeometryInfo(math.pi, n - 1)

    def dist(self, x, y):
        self._check_pair(x, y)
        return self._angle(x.coords, y.coords)[0]


class Oblique(_UnitRows, Manifold):
    """Oblique manifold: d x p matrices with unit-norm rows.

    Product of d unit spheres in R^p, so the maps are `_UnitRows`'s, acting
    row by row; the distance is the l2 combination of the per-row
    great-circle distances.
    """

    _row_factors = True

    def __init__(self, d: int, p: int):
        if d < 1 or p < 2:
            raise ValueError("need d >= 1 rows on spheres of dimension p >= 2")
        self.d = d
        self.p = p
        self.name = f"oblique({d},{p})"
        self.shape = (d, p)
        # injectivity of a product is the factor minimum
        self._geometry = GeometryInfo(math.pi, d * (p - 1))

    def dist(self, x, y):
        self._check_pair(x, y)
        return _norms(self._angle(x.coords, y.coords)[0])


class Grassmann(Manifold):
    """Grassmann manifold of k-dimensional subspaces of R^n.

    Points are orthonormal n x k representatives; tangents satisfy X^T V = 0.
    Exp and log are closed forms through the thin SVD of the tangent, and
    parallel transport along geodesics is exact, so isometric, in one formula.

    The curvature bound is 2 and the injectivity radius pi/2.
    """

    def __init__(self, n: int, k: int):
        if not 1 <= k < n:
            raise ValueError("need 1 <= k < n")
        self.n = n
        self.k = k
        self.name = f"grassmann({n},{k})"
        self.shape = (n, k)
        self._geometry = GeometryInfo(math.pi / 2, k * (n - k))

    def feasibility_residual(self, coords):
        g = coords.T @ coords
        return _norm(g - np.eye(self.k))

    def tangency_residual(self, x, coords):
        return _norm(x.coords.T @ coords)

    def _exp(self, x, v):
        if not np.count_nonzero(v):
            return x
        u, s, vt = _svd(v)
        s = _row(s)
        y = x @ (vt.mT * np.cos(s)) @ vt + (u * np.sin(s)) @ vt
        return self._still(x, v, _qr_sign_fixed(y))

    def log(self, x, y):
        self._check_pair(x, y)
        self._check_injectivity(self.dist(x, y), "log")
        m = x.coords.mT @ y.coords
        t = (y.coords - x.coords @ m) @ _inv(m)
        u, s, vt = _svd(t)
        out = (u * np.arctan(_row(s))) @ vt
        # clean rounding so tangency holds to working precision
        return Tangent(x, self._project(x.coords, out))

    def dist(self, x, y):
        self._check_pair(x, y)
        return _norms(principal_angles(x.coords, y.coords))

    def transport(self, x, y, w):
        """w moved along the geodesic of velocity log(x, y) = u diag(s) vt (Edelman,
        Arias and Smith 1998, Thm 2.4), for a velocity of any rank: every singular
        direction is kept, and one with s = 0 adds exactly nothing."""
        self._check_base(x, w)
        self._check_point(y)
        u, s, vt = _svd(self.log(x, y).coords)  # log enforces the injectivity precondition
        s = _row(s)
        uw = u.mT @ w.coords
        out = w.coords + (u * (np.cos(s) - 1.0)) @ uw - (x.coords @ (vt.mT * np.sin(s))) @ uw
        return Tangent(y, self._project(y.coords, out))

    def _project(self, x, a):
        return readonly(a - x @ (x.mT @ a))

    def _weingarten(self, x, v, g):
        return v @ (x.mT @ g)

    def _point_from(self, g):
        return Point(self, readonly(_qr_sign_fixed(g)))

