import dataclasses
import math
import os
import warnings
from functools import partial

import numpy as np
import pytest

from geodescent import (
    BurerMonteiro,
    DiagonalQuadratic,
    Euclidean,
    GeometryError,
    KPCA,
    Grassmann,
    Manifold,
    Objective,
    Oblique,
    Point,
    Sphere,
    Tangent,
    classify_stationarity,
    estimate_smoothness,
    hess_vec,
    min_hess_eig,
    objectives,
)
from geodescent.harness import (
    _build_problem, _seed_streams, burer_monteiro_instance, burer_monteiro_start, load_config,
    run_experiment,
)
from geodescent.optimizer import OptState, clamped_step, practical_thresholds, prgd_step
from oracles import central_diff_along_geodesic, dense_hessian_matrix

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
D_FIG = np.array([1.0, -1.0, 4.0])
H5 = np.diag([0.0, 1.0, 2.0, 3.0, 4.0])


def fig_objective():
    return DiagonalQuadratic(D_FIG)


def saddle_point():
    return Sphere(3).point([1.0, 0.0, 0.0])


def baseline_saddle(n, top):
    """Diagonal quadratic d = [0, 0.5, linspace(1, top, n - 2)] on Sphere(n) at
    e2, where f = 0.5 and the Hessian spectrum is 2 (d_i - 0.5), i != 1: its
    smallest eigenvalue is -1, one step below a cluster of n - 2 positive ones."""
    obj = DiagonalQuadratic(np.concatenate([[0.0, 0.5], np.linspace(1.0, top, n - 2)]))
    return obj, obj.manifold.point(np.eye(n)[1])


def random_symmetric(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


class Constant(Objective):
    def __init__(self, manifold, c=0.0):
        self.manifold = manifold
        self.c = c

    def value(self, x):
        return self.c

    def ambient_grad(self, x):
        return np.zeros(self.manifold.shape)


class TestValue:
    def test_sphere_quadratic_at_saddle(self):
        assert fig_objective().value(saddle_point()) == pytest.approx(1.0)

    def test_kpca_eigencolumn_values(self):
        obj = KPCA(H5, 3)
        man = obj.manifold
        x_start = man.point(np.eye(5)[:, [1, 2, 3]])
        x_opt = man.point(np.eye(5)[:, [2, 3, 4]])
        assert obj.value(x_start) == pytest.approx(-3.0)       # -(1+2+3)/2
        assert obj.value(x_opt) == pytest.approx(-4.5)          # -(2+3+4)/2

    def test_asymmetric_matrices_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            KPCA(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
        with pytest.raises(ValueError, match="symmetric"):
            BurerMonteiro(np.array([[0.0, 1.0], [0.0, 0.0]]), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("build, message", [
        (lambda e: KPCA(np.diag([0.0, e, 2.0, 3.0, 4.0]), 3), "H has a non-finite entry"),
        (lambda e: BurerMonteiro(np.array([[0.0, e, 0.0], [e, 1.0, 0.0], [0.0, 0.0, 2.0]]), 2),
         "A has a non-finite entry"),
        (lambda e: DiagonalQuadratic([1.0, e, 3.0]), "diag must be a finite vector"),
    ], ids=["kpca", "burer-monteiro", "diagonal-quadratic"])
    def test_non_finite_matrices_rejected(self, build, message, bad):
        """A NaN passes the symmetry test (nan > 1e-12 is False) and an inf
        only warns there, so finiteness is checked on its own."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(bad)

    def test_burer_monteiro_value(self):
        a = np.array([[2.0, 1.0], [1.0, 0.0]])
        obj = BurerMonteiro(a, 2)
        y = obj.manifold.point(np.eye(2))
        # YY^T = I, f = tr(A)/2
        assert obj.value(y) == pytest.approx(1.0)


def kpca_draw(k):
    rng = np.random.default_rng(k)
    n = 5 + k % 4
    g = rng.standard_normal((n, n))
    obj = KPCA((g + g.T) / 2.0, 1 + k % 3)
    return obj, obj.manifold.random_point(rng), rng


def bm_draw(k):
    rng = np.random.default_rng(k)
    d, p = [(100, 20), (12, 3)][k % 2]
    a = np.zeros((d, d))
    g = rng.standard_normal((5, 5))
    a[:5, :5] = (g + g.T) / 2.0
    if k % 4 == 1:  # a dense instance as well as the block one
        g = rng.standard_normal((d, d))
        a = (g + g.T) / 2.0
    obj = BurerMonteiro(a, p)
    return obj, obj.manifold.random_point(rng), rng


def without_closed_form(obj):
    """obj with its closed-form Hessian withheld, as on an objective that
    defines none."""
    obj.exact_hess = None
    return obj


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def ddot_value(c, mc):
    """1/2 <c, M c> by BLAS ddot over the flattened coordinates."""
    return 0.5 * float(c.ravel().dot(mc.ravel()))


class TestQuadraticFormSameBits:
    """value is 1/2 of one BLAS ddot, and ambient_grad gives the bits of M X,
    before and after rgrad at the same point.  The diagonal keeps the bits of
    its own former value, gradient and sphere Hessian."""

    def test_kpca(self):
        for k in range(200):
            obj, x, _ = kpca_draw(k)
            h, c = obj.h, x.coords
            assert obj.value(x) == ddot_value(c, -h @ c)
            assert np.array_equal(obj.ambient_grad(x), -h @ c)
            obj.rgrad(x)
            assert obj.value(x) == ddot_value(c, -h @ c)

    def test_burer_monteiro(self):
        for k in range(200):
            obj, y, _ = bm_draw(k)
            a, c = obj.a, y.coords
            assert obj.value(y) == ddot_value(c, a @ c)
            assert np.array_equal(obj.ambient_grad(y), a @ c)
            obj.rgrad(y)
            assert obj.value(y) == ddot_value(c, a @ c)

    @pytest.mark.parametrize("euclidean", [False, True], ids=["sphere", "euclidean"])
    def test_diagonal(self, euclidean):
        for k in range(200):
            obj, x, rng = diag_draw(k, euclidean)
            man, d, c = obj.manifold, obj.diag, x.coords
            v = man.sample_tangent_ball(x, 1.0, rng)
            assert obj.value(x) == np.vecdot(c, d * c)
            assert np.array_equal(obj.ambient_grad(x), 2.0 * d * c)
            if euclidean:
                want = 2.0 * d * v.coords
            else:  # 2 P (D - f(x) I) P v, as written for the sphere alone
                pv = man.project_tangent(x, v.coords).coords
                want = man.project_tangent(x, 2.0 * (d * pv - np.vecdot(c, d * c) * pv)).coords
            assert obj.exact_hess(x, v).coords.tobytes() == want.tobytes()


SCATTERED = [3, 17, 42, 64, 90]


def scattered(a):
    """a conjugated by a row permutation that puts its rows 0-4 on SCATTERED,
    and the permutation's inverse, which maps a point of a to one of it."""
    perm = np.concatenate([SCATTERED, np.setdiff1d(np.arange(len(a)), SCATTERED)])
    inv = np.argsort(perm)
    return a[np.ix_(inv, inv)], inv


class TestQuadraticFormRows:
    """On the oblique manifold, whose maps act on each row alone, a matrix M
    with at most half of its rows nonzero forms M X on those rows, a PRGD step
    runs on them, and every oracle and step keeps the bits of its dense-M
    expression.  Other manifolds keep the dense M."""

    def test_which_forms_keep_their_rows(self):
        bm = BurerMonteiro(burer_monteiro_instance(100, 20, 5, np.random.default_rng(0)), 20)
        assert np.array_equal(bm._m, bm.a[:5])
        # the rows: a slice for one run of rows, else an index, and only on a
        # manifold whose maps act on each row alone
        assert bm._step_rows == slice(0, 5)
        a, _ = scattered(bm.a)
        assert np.array_equal(BurerMonteiro(a, 20)._step_rows, SCATTERED)
        sparse_kpca = KPCA(np.diag([0.0, 0.0, 0.0, 3.0, 4.0]), 2)
        assert np.array_equal(sparse_kpca._m, -sparse_kpca.h)
        for dense in (sparse_kpca, KPCA(H5, 3), BurerMonteiro(random_symmetric(100, 0), 20)):
            assert dense._m.shape == (len(dense._m),) * 2 and dense._times is np.matmul
        for other in (sparse_kpca, KPCA(H5, 3), BurerMonteiro(random_symmetric(100, 0), 20),
                      fig_objective()):
            assert other._step_rows is None

    @pytest.mark.parametrize("seed", range(4))
    def test_oracles_keep_the_dense_bits(self, seed):
        rng = np.random.default_rng(seed)
        obj = BurerMonteiro(burer_monteiro_instance(100, 20, 5, rng), 20)
        man, a = obj.manifold, obj.a
        xs = [man.random_point(rng) for _ in range(6)]
        vs = [man.sample_tangent_ball(p, 0.5, rng) for p in xs]
        x = Point(man, np.array([p.coords for p in xs]))
        v = Tangent(x, np.array([t.coords for t in vs]))
        for p, t in [*zip(xs, vs), (x, v)]:
            c, ac = p.coords, a @ p.coords
            value = (ddot_value(c, ac) if c.ndim == 2 else
                     np.array([ddot_value(ci, ai) for ci, ai in zip(c, ac)]))
            rgrad = man.project_tangent(p, ac).coords
            pv = man.project_tangent(p, t.coords).coords
            hess = man.project_tangent(p, a @ pv - man._weingarten(c, pv, ac)).coords
            f, g = obj.value_and_rgrad(p)
            assert bits(obj.value(p)) == bits(f) == bits(value)
            assert bits(obj.ambient_grad(p)) == bits(ac)
            assert bits(g.coords) == bits(obj.rgrad(p).coords) == bits(rgrad)
            assert bits(obj.exact_hess(p, t).coords) == bits(hess)

    @staticmethod
    def dense_steps(obj, a, x, steps, eta=0.29):
        """`steps` row steps from x (value_and_rgrad, then clamped_step on the
        objective's step rows), each checked bit for bit, signs of zero
        included, against the dense-A expressions; the end point."""
        man, dense = obj.manifold, Oblique(100, 20)
        for _ in range(steps):
            c = x.coords
            f, g = obj.value_and_rgrad(x)
            want = man.project_tangent(x, a @ c).coords
            assert bits(f) == bits(ddot_value(c, a @ c)) and bits(g.coords) == bits(want)
            y, eta_bar = clamped_step(man, x, g, g.norm(), eta, obj._step_rows)
            assert bits(y.coords) == bits(dense._exp(c, -eta_bar * want))
            x = y
        return x

    @pytest.fixture
    def block_start(self):
        """The burer-monteiro.cfg instance (seed 7) and its block start, perturbed."""
        rng = np.random.default_rng(7)
        obj = BurerMonteiro(burer_monteiro_instance(100, 20, 5, rng), 20)
        x0 = Point(obj.manifold, burer_monteiro_start(100, 20))
        return obj, obj.manifold.exp(x0, obj.manifold.sample_tangent_ball(x0, 0.03, rng)), rng

    @staticmethod
    def exp_shapes(man, monkeypatch):
        """The shape of the point each `man._exp` call receives.  A call on a
        step's rows comes first; if some of them are still, `_exp` calls itself
        on the moving ones, a shape with fewer rows, next."""
        shapes = []
        monkeypatch.setattr(man, "_exp", lambda c, v: shapes.append(c.shape) or Oblique._exp(man, c, v))
        return shapes

    @pytest.mark.parametrize("rows", ["block", "scattered"])
    def test_row_steps_keep_the_dense_bits(self, block_start, monkeypatch, rows):
        """Every step calls `_exp` on the 5 step rows (a slice, or an index).
        The first 100 steps move every one.  By step 300 the gradient is at
        rounding level (about 1e-15), where on the scattered rows 704 steps
        have a row whose gradient rounds to 0, and `_exp` calls itself on the
        4 moving rows."""
        obj, x, _ = block_start
        a, keep = obj.a, slice(5, None)
        if rows == "scattered":
            a, inv = scattered(a)
            obj, x = BurerMonteiro(a, 20), Point(obj.manifold, x.coords[inv])
            keep = np.setdiff1d(np.arange(100), SCATTERED)
        assert (obj._step_rows == slice(0, 5) if rows == "block"
                else np.array_equal(obj._step_rows, SCATTERED))
        shapes = self.exp_shapes(obj.manifold, monkeypatch)
        y = self.dense_steps(obj, a, x, 100)
        assert shapes == [(5, 20)] * 100
        y = self.dense_steps(obj, a, y, 900)
        assert shapes.count((5, 20)) == 1000 and all(s[1:] == (20,) and s[0] < 5
                                                     for s in shapes if s != (5, 20))
        assert np.array_equal(y.coords[keep], x.coords[keep])

    def test_exp_on_the_step_rows_leaves_a_still_row(self, block_start, monkeypatch):
        """A block whose row 0 is e1 - e2, at a point whose rows 1 and 2 are
        equal: row 0 of A Y is exactly 0, so its gradient is too, and `_exp`
        on the 5 step rows calls itself on the 4 moving ones."""
        obj, x, _ = block_start
        a = obj.a.copy()
        a[0, :5] = a[:5, 0] = [0.0, 1.0, -1.0, 0.0, 0.0]
        obj = BurerMonteiro(a, 20)
        c = x.coords.copy()
        c[2] = c[1]
        x = Point(obj.manifold, c)
        assert not np.count_nonzero(obj.rgrad(x).coords[0]) and np.count_nonzero(obj.rgrad(x).coords[1:5])
        shapes = self.exp_shapes(obj.manifold, monkeypatch)
        y = self.dense_steps(obj, a, x, 1)
        assert shapes == [(5, 20), (4, 20)] and bits(y.coords[0]) == bits(c[0])
        self.dense_steps(obj, a, y, 99)  # row 0 moves again: every step row moves
        assert shapes[2:] == [(5, 20)] * 99

    def test_stacked_value_and_rgrad_on_scattered_rows_keeps_the_dense_bits(self, block_start):
        """The index path on a stack; `test_oracles_keep_the_dense_bits` takes
        the slice path on stacks."""
        obj, _, rng = block_start
        man = obj.manifold
        a, _ = scattered(obj.a)
        obj = BurerMonteiro(a, 20)
        x = Point(man, np.array([man.random_point(rng).coords for _ in range(7)]))
        f, g = obj.value_and_rgrad(x)
        ac = a @ x.coords
        assert bits(f) == bits([ddot_value(c, m) for c, m in zip(x.coords, ac)])
        assert bits(g.coords) == bits(man.project_tangent(x, ac).coords)

    def test_grassmann_takes_no_rows(self):
        """Grassmann's projection mixes rows, so a KPCA whose H has 2 of 5 rows
        nonzero forms M X, projects and steps on every row."""
        obj = KPCA(np.diag([0.0, 0.0, 0.0, 3.0, 4.0]), 2)
        man, m = obj.manifold, -obj.h
        rng = np.random.default_rng(3)
        thr = practical_thresholds(8.0, 10.0, 1e-3)
        for _ in range(20):
            x = man.random_point(rng)
            c = x.coords
            want = man.project_tangent(x, m @ c).coords
            f, g = obj.value_and_rgrad(x)
            assert bits(f) == bits(ddot_value(c, m @ c)) and bits(g.coords) == bits(want)
            gn = g.norm()
            assert gn > thr.g_thres
            state = prgd_step(OptState.initial(x, thr), thr, obj, None)
            eta_bar = min(thr.eta, (math.pi / 2) / gn)
            assert bits(state.x.coords) == bits(man._exp(c, -eta_bar * want))


class RowCubic(Objective):
    """A user objective with no `value_and_rgrad` of its own."""

    def __init__(self, manifold):
        self.manifold = manifold

    def value(self, x):
        return float(np.sum(x.coords ** 3))

    def ambient_grad(self, x):
        return 3.0 * x.coords ** 2


def diag_draw(k, euclidean=False):
    rng = np.random.default_rng(k)
    n = 3 + k % 5
    obj = DiagonalQuadratic(rng.standard_normal(n), Euclidean(n) if euclidean else None)
    return obj, obj.manifold.random_point(rng), rng


def cubic_draw(k):
    rng = np.random.default_rng(k)
    obj = RowCubic([Sphere(4), Oblique(6, 3), Grassmann(5, 2)][k % 3])
    return obj, obj.manifold.random_point(rng), rng


@pytest.mark.parametrize("draw", [kpca_draw, bm_draw, diag_draw, partial(diag_draw, euclidean=True),
                                  cubic_draw],
                         ids=["kpca", "bm", "diag-sphere", "diag-euclidean", "user"])
def test_value_and_rgrad_has_the_bits_of_value_and_rgrad(draw):
    assert RowCubic.value_and_rgrad is Objective.value_and_rgrad
    for k in range(200):
        obj, x, _ = draw(k)
        f, g = obj.value_and_rgrad(x)
        assert np.float64(f).tobytes() == np.float64(obj.value(x)).tobytes()
        assert g.base is x and g.coords.tobytes() == obj.rgrad(x).coords.tobytes()


class TestQuadraticFormCache:
    """A point evaluated in between leaves another point's value and gradient
    as they were, and the ambient gradient M X is handed out read-only."""

    @pytest.mark.parametrize("draw", [kpca_draw, bm_draw], ids=["kpca", "bm"])
    def test_other_point_in_between_does_not_leak(self, draw):
        obj, x1, rng = draw(3)
        x2 = obj.manifold.random_point(rng)
        v1 = obj.value(x1)
        g2 = obj.rgrad(x2)
        fresh, _, _ = draw(3)
        assert obj.value(x1) == v1 == fresh.value(x1)
        assert np.array_equal(obj.rgrad(x1).coords, fresh.rgrad(x1).coords)
        assert np.array_equal(g2.coords, draw(3)[0].rgrad(x2).coords)

    @pytest.mark.parametrize("draw", [kpca_draw, bm_draw], ids=["kpca", "bm"])
    def test_ambient_grad_is_read_only(self, draw):
        obj, x, _ = draw(0)
        g = obj.ambient_grad(x)
        with pytest.raises(ValueError):
            g[0, 0] = 1.0

    def test_every_oracle_checks_the_point(self):
        """value and ambient_grad reject a point of another manifold, as
        value_and_rgrad and rgrad do, with the same message."""
        obj = fig_objective()
        x = Euclidean(3).point([2.0, 0.0, 0.0])
        for oracle in (obj.value, obj.ambient_grad, obj.value_and_rgrad, obj.rgrad):
            with pytest.raises(ValueError) as exc:
                oracle(x)
            assert str(exc.value) == "point on euclidean(3), expected sphere(3)", oracle

    def test_constructor_messages(self):
        with pytest.raises(ValueError, match="H must be square"):
            KPCA(np.zeros((2, 3)), 1)
        with pytest.raises(ValueError, match="A must be square"):
            BurerMonteiro(np.zeros((2, 3)), 2)


class TestGradient:
    def test_zero_at_quadratic_saddle(self):
        assert fig_objective().rgrad(saddle_point()).norm() <= 1e-14

    def test_zero_at_kpca_stationary_columns(self):
        obj = KPCA(H5, 3)
        x = obj.manifold.point(np.eye(5)[:, [1, 2, 3]])
        assert obj.rgrad(x).norm() <= 1e-14

    @pytest.mark.parametrize("make", [
        lambda: fig_objective(),
        lambda: KPCA((H5 + 0.3 * np.eye(5)), 3),
        lambda: BurerMonteiro(np.diag([1.0, -2.0, 0.5, 3.0]), 3),
    ], ids=["sphere-quadratic", "kpca", "burer-monteiro"])
    def test_matches_directional_derivative(self, make):
        obj = make()
        man = obj.manifold
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = man.random_point(rng)
            v = man.sample_tangent_ball(x, 1.0, rng)
            lhs = man.inner(x, obj.rgrad(x), v)
            rhs = central_diff_along_geodesic(obj, x, v)
            assert abs(lhs - rhs) <= 1e-5 * (1 + v.norm())


class TestHessVec:
    def test_zero_vector(self):
        obj = fig_objective()
        x = saddle_point()
        out = hess_vec(obj, x, Tangent(x, np.zeros(3)))
        assert out.norm() == 0.0

    def test_exact_eigendirections_at_saddle(self):
        obj = fig_objective()
        x = saddle_point()
        man = obj.manifold
        v2 = man.tangent(x, [0.0, 1.0, 0.0])
        v3 = man.tangent(x, [0.0, 0.0, 1.0])
        assert np.linalg.norm(hess_vec(obj, x, v2).coords - (-4.0) * v2.coords) <= 1e-5
        assert np.linalg.norm(hess_vec(obj, x, v3).coords - 6.0 * v3.coords) <= 1e-5

    def test_step_leaving_injectivity_ball_rejected(self):
        obj = fig_objective()
        x = saddle_point()
        v = obj.manifold.tangent(x, [0.0, 1.0, 0.0])
        with pytest.raises(GeometryError, match="injectivity"):
            hess_vec(obj, x, v, step=4.0)

    def test_symmetry(self):
        obj = fig_objective()
        man = obj.manifold
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = man.random_point(rng)
            u = man.sample_tangent_ball(x, 1.0, rng)
            v = man.sample_tangent_ball(x, 1.0, rng)
            lhs = man.inner(x, u, hess_vec(obj, x, v))
            rhs = man.inner(x, v, hess_vec(obj, x, u))
            assert abs(lhs - rhs) <= 1e-4 * u.norm() * v.norm()

    @pytest.mark.parametrize("make", [
        fig_objective,
        lambda: DiagonalQuadratic(D_FIG, Euclidean(3)),
        lambda: KPCA(random_symmetric(6, 3), 2),
        lambda: BurerMonteiro(random_symmetric(6, 12), 3),
    ], ids=["sphere-quadratic", "euclidean-quadratic", "kpca", "burer-monteiro"])
    def test_finite_differences_match_exact_hess(self, make):
        """Each quadratic form's closed-form Hessian, one Weingarten rule per
        manifold, agrees with central differences of transported gradients."""
        obj = make()
        man = obj.manifold
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = man.random_point(rng)
            m_fd = dense_hessian_matrix(man, x, lambda t: hess_vec(obj, x, t))
            m_exact = dense_hessian_matrix(man, x, lambda t: obj.exact_hess(x, t))
            assert np.abs(m_fd - m_exact).max() <= 1e-8

    def test_finite_difference_matches_exact_operator_norm(self):
        obj = fig_objective()
        man = obj.manifold
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = man.random_point(rng)
            m_fd = dense_hessian_matrix(man, x, lambda t: hess_vec(obj, x, t))
            m_exact = dense_hessian_matrix(man, x, lambda t: obj.exact_hess(x, t))
            rel = np.linalg.norm(m_fd - m_exact, 2) / max(np.linalg.norm(m_exact, 2), 1.0)
            assert rel <= 1e-4


STACKED_OBJECTIVES = {
    "sphere(3)": lambda: DiagonalQuadratic(D_FIG),
    "euclidean(3)": lambda: DiagonalQuadratic(D_FIG, Euclidean(3)),
    "kpca-grassmann(5,3)": lambda: KPCA(random_symmetric(5, 0), 3),
    "bm-oblique(7,3)": lambda: BurerMonteiro(random_symmetric(7, 1), 3),
}


@pytest.mark.parametrize("name", list(STACKED_OBJECTIVES))
def test_stacked_calls_give_each_sample_its_single_point_bits(name):
    """value, rgrad, exact_hess and hess_vec on a stack of 200 seeded draws
    give each sample the bits of its single-point call.  The stack holds a
    zero tangent, which hess_vec maps to zero, and hess_vec's guards judge
    every sample."""
    obj = STACKED_OBJECTIVES[name]()
    man = obj.manifold
    rng = np.random.default_rng(11)
    xs = [man.random_point(rng) for _ in range(200)]
    vs = [man.sample_tangent_ball(p, 0.5, rng) for p in xs]
    vs[5] = Tangent(xs[5], np.zeros(man.shape))
    x = Point(man, np.array([p.coords for p in xs]))
    v = Tangent(x, np.array([t.coords for t in vs]))
    ops = {"value": lambda p, t: obj.value(p),
           "rgrad": lambda p, t: obj.rgrad(p).coords,
           "exact_hess": lambda p, t: obj.exact_hess(p, t).coords,
           "hess_vec": lambda p, t: hess_vec(obj, p, t).coords}
    for op, call in ops.items():
        stacked = call(x, v)
        assert all(np.array_equal(stacked[i], call(p, t)) for i, (p, t) in enumerate(zip(xs, vs))), op
    assert not hess_vec(obj, x, v).coords[5].any()
    with pytest.raises(ValueError, match="step must be positive"):
        hess_vec(obj, x, v, step=0.0)
    if man.geometry().injectivity_radius < math.inf:
        with pytest.raises(GeometryError, match="injectivity"):
            hess_vec(obj, x, v, step=100.0)


def test_hess_vec_differences_a_stack_in_one_pass(monkeypatch):
    """A stack of 50 KPCA points takes one exp per sign, not one per sample."""
    obj = KPCA(random_symmetric(5, 0), 3)
    man = obj.manifold
    rng = np.random.default_rng(12)
    xs = [man.random_point(rng) for _ in range(50)]
    x = Point(man, np.array([p.coords for p in xs]))
    v = Tangent(x, np.array([man.sample_tangent_ball(p, 0.5, rng).coords for p in xs]))
    calls, real = [], man.exp
    monkeypatch.setattr(man, "exp", lambda *a: calls.append(a) or real(*a))
    hess_vec(obj, x, v)
    assert len(calls) == 2


class TestHessOperator:
    """`hess_operator` takes the closed form exactly when `exact_hess` is
    defined, as on every quadratic form, and central differences (`hess_vec`)
    otherwise."""

    @pytest.fixture
    def fd_calls(self, monkeypatch):
        calls, real = [], objectives.hess_vec

        def spy(obj, x, v, step=None):
            calls.append(obj)
            return real(obj, x, v, step)

        monkeypatch.setattr(objectives, "hess_vec", spy)
        return calls

    @pytest.mark.parametrize("make", [lambda: DiagonalQuadratic(D_FIG, Sphere(3)),
                                      lambda: DiagonalQuadratic(D_FIG, Euclidean(3)),
                                      lambda: KPCA(H5, 3), lambda: BurerMonteiro(np.eye(4), 2)],
                             ids=["sphere(3)", "euclidean(3)", "kpca", "bm"])
    def test_closed_form_when_defined(self, make, fd_calls):
        obj = make()
        man = obj.manifold
        rng = np.random.default_rng(6)
        x = man.random_point(rng)
        v = man.sample_tangent_ball(x, 1.0, rng)
        out = objectives.hess_operator(obj, x)(v)
        assert fd_calls == []
        assert np.array_equal(out.coords, obj.exact_hess(x, v).coords)

    @pytest.mark.parametrize("make", [lambda: without_closed_form(KPCA(H5, 3)),
                                      lambda: without_closed_form(BurerMonteiro(np.eye(4), 2)),
                                      lambda: Constant(Sphere(3), 2.5)],
                             ids=["kpca", "bm", "test-local"])
    def test_finite_differences_otherwise(self, make, fd_calls):
        """The choice follows the `exact_hess` attribute, not the class: a
        quadratic form whose closed form is withheld differences gradients
        on Grassmann and the oblique manifold too."""
        obj = make()
        assert obj.exact_hess is None
        rng = np.random.default_rng(7)
        x = obj.manifold.random_point(rng)
        objectives.hess_operator(obj, x)(obj.manifold.sample_tangent_ball(x, 1.0, rng))
        assert fd_calls == [obj]

    def test_quadratic_form_forms_m_x_once_per_point(self):
        """The bound operator forms M x once, then one product with M per
        Hessian product, with the bits of `exact_hess`."""
        obj = BurerMonteiro(burer_monteiro_instance(100, 20, 5, np.random.default_rng(0)), 20)
        man = obj.manifold
        rng = np.random.default_rng(1)
        x = man.random_point(rng)
        vs = [man.sample_tangent_ball(x, 1.0, rng) for _ in range(3)]
        want = [obj.exact_hess(x, v).coords for v in vs]
        calls, real = [], obj._times
        obj._times = lambda m, c: calls.append(c) or real(m, c)
        op = objectives.hess_operator(obj, x)
        assert len(calls) == 1 and calls[0] is x.coords
        assert [bits(op(v).coords) for v in vs] == [bits(w) for w in want]
        assert len(calls) == 4

    @pytest.mark.parametrize("config, cap", [("kpca.cfg", {}), ("burer-monteiro.cfg", {"max_iters": 200})],
                             ids=["kpca", "burer-monteiro"])
    def test_shipped_runs_take_no_finite_differences(self, config, cap, fd_calls, tmp_path):
        """The smoothness estimate and the final certificate of a run take
        the closed-form Hessian."""
        cfg = dataclasses.replace(load_config(os.path.join(CONFIGS, config)), **cap)
        out = run_experiment(cfg, out_dir=str(tmp_path), seed=0)
        assert out.summary["iterations"] > 0
        assert fd_calls == []

    def test_an_objective_of_its_own_binds_its_exact_hess(self, fd_calls):
        """An objective that defines `exact_hess` itself gets it bound to x by
        the default `_hess_at`, with its bits, and no finite differences."""

        class SphereQuadratic(Objective):  # x^T diag(d) x, Hessian by hand
            manifold = Sphere(3)

            def value(self, x):
                return float(x.coords @ (D_FIG * x.coords))

            def ambient_grad(self, x):
                return 2.0 * D_FIG * x.coords

            def exact_hess(self, x, v):
                w = 2.0 * D_FIG * v.coords - self.value(x) * 2.0 * v.coords
                return self.manifold.project_tangent(x, w)

        obj, x = SphereQuadratic(), saddle_point()
        v = obj.manifold.tangent(x, [0.0, 0.6, 0.8])
        op = objectives.hess_operator(obj, x)
        assert bits(op(v).coords) == bits(obj.exact_hess(x, v).coords)
        lam, _ = min_hess_eig(obj, x, 1e-10, np.random.default_rng(0))
        assert lam == pytest.approx(-4.0, abs=1e-12)  # spectrum {2 (d_i - 1)}, i != 0
        assert fd_calls == []

    def test_diagonal_quadratic_rejects_a_diagonal_of_another_size(self):
        with pytest.raises(ValueError, match=r"^diagonal of size 3 does not match sphere\(4\)$"):
            DiagonalQuadratic([1.0, 2.0, 3.0], Sphere(4))

    def test_diagonal_quadratic_rejects_other_manifolds(self):
        class Line(Manifold):  # local, so it stays out of Manifold.__subclasses__() at collection
            name, shape = "line(3)", (3,)

        with pytest.raises(ValueError, match=r"needs a Weingarten term, got line\(3\)$"):
            DiagonalQuadratic(D_FIG, Line())


class TestMinHessEig:
    def test_saddle_spectrum(self):
        obj = fig_objective()
        lam, direction = min_hess_eig(obj, saddle_point(), 1e-6, np.random.default_rng(0))
        assert lam == pytest.approx(-4.0, abs=1e-6)
        assert abs(abs(direction.coords[1]) - 1.0) <= 1e-3
        assert abs(direction.coords[2]) <= 1e-3

    def test_minimum_spectrum(self):
        obj = fig_objective()
        x = Sphere(3).point([0.0, 1.0, 0.0])
        lam, _ = min_hess_eig(obj, x, 1e-6, np.random.default_rng(0))
        assert lam == pytest.approx(4.0, abs=1e-6)

    def test_kpca_minimizer_nonnegative(self):
        obj = KPCA(H5, 3)
        x = obj.manifold.point(np.eye(5)[:, [2, 3, 4]])
        lam, _ = min_hess_eig(obj, x, 1e-3, np.random.default_rng(1))
        assert lam >= -1e-3

    def test_matches_dense_oracle_random_points(self):
        obj = fig_objective()
        man = obj.manifold
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = man.random_point(rng)
            lam, _ = min_hess_eig(obj, x, 1e-7, rng)
            m = dense_hessian_matrix(man, x, lambda t: obj.exact_hess(x, t))
            assert lam == pytest.approx(float(np.linalg.eigvalsh(m)[0]), abs=1e-6)

    @pytest.mark.parametrize("make", [lambda: KPCA(H5, 3),
                                      lambda: BurerMonteiro(random_symmetric(6, 12), 3)],
                             ids=["kpca", "bm"])
    def test_finite_differences_match_dense_oracle(self, make):
        obj = make()
        man = obj.manifold
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = man.random_point(rng)
            op = partial(hess_vec, obj, x)
            lam, direction = min_hess_eig(obj, x, 1e-8, rng)
            m = dense_hessian_matrix(man, x, op)
            assert lam == pytest.approx(float(np.linalg.eigvalsh(m)[0]), abs=1e-6)
            assert direction.norm() == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(man.project_tangent(x, direction.coords).coords
                                  - direction.coords) <= 1e-12
            rq = float(np.sum(direction.coords * op(direction).coords))
            assert rq == pytest.approx(lam, abs=1e-6)

    def test_burer_monteiro_block_start(self):
        """At the seed-3 Burer-Monteiro block start (dimension 1,900) Lanczos
        returns the smallest eigenvalue of the dense closed-form Hessian.
        Each row of that point is a standard basis vector, so the ambient
        basis vectors off those entries are an orthonormal tangent basis."""
        cfg = load_config(os.path.join(CONFIGS, "burer-monteiro.cfg"))
        obj, x, _ = _build_problem(cfg, _seed_streams(3)[0])
        man = obj.manifold
        basis = np.eye(x.coords.size)[x.coords.ravel() == 0.0]
        images = np.array([obj.exact_hess(x, Tangent(x, b.reshape(man.shape))).coords.ravel()
                           for b in basis])
        dense = np.linalg.eigvalsh(basis @ images.T)
        assert len(dense) == man.geometry().dimension
        assert dense[0] == pytest.approx(-2.775, abs=5e-4)
        lam, _ = min_hess_eig(obj, x, 1e-3, np.random.default_rng(0))
        assert lam == pytest.approx(dense[0], abs=1e-6)

    @pytest.mark.parametrize("n, top", [(200, 100.0), (1000, 1000.0)])
    def test_baseline_saddles(self, n, top):
        """A saddle whose negative direction sits next to a wide positive
        cluster, where a power-iteration estimate can stall above zero."""
        obj, x = baseline_saddle(n, top)
        gradnorm = obj.rgrad(x).norm()
        for seed in range(20):
            lam, _ = min_hess_eig(obj, x, 1e-3, np.random.default_rng(seed))
            assert lam == pytest.approx(-1.0, abs=1e-3)
            assert classify_stationarity(gradnorm, lam, 1e-3, 1.0) == "saddle"

    def test_nonconvergence_warns(self):
        obj, x = baseline_saddle(200, 100.0)
        with pytest.warns(RuntimeWarning, match="not settled"):
            min_hess_eig(obj, x, 1e-13, np.random.default_rng(0), max_iters=2)

    def test_dimension_cap_is_exact(self):
        """Two steps span the tangent space of sphere(3): no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, _ = min_hess_eig(fig_objective(), saddle_point(), 1e-13,
                                  np.random.default_rng(0), max_iters=2)
        assert lam == pytest.approx(-4.0, abs=1e-12)

    def test_bad_tol(self):
        with pytest.raises(ValueError, match="tol"):
            min_hess_eig(fig_objective(), saddle_point(), 0.0, np.random.default_rng(0))

    def test_nan_tol(self):
        """A NaN tolerance raises instead of running to `max_iters` and warning."""
        with pytest.raises(ValueError, match="tol must be positive, got nan"):
            min_hess_eig(fig_objective(), saddle_point(), math.nan, np.random.default_rng(0))

    def test_bad_max_iters(self):
        with pytest.raises(ValueError, match="max_iters"):
            min_hess_eig(fig_objective(), saddle_point(), 1e-6, np.random.default_rng(0),
                         max_iters=0)


class TestSmoothness:
    def test_near_saddle_beta_at_least_local_spectral_radius(self):
        # exact tangent Hessian spectrum at the saddle is {-4, 6}; dense
        # sampling of the exact operator over the 0.2-cap gives sup norm 6.16
        obj = fig_objective()
        est = estimate_smoothness(obj, saddle_point(), 0.2, 50, np.random.default_rng(2))
        assert est.beta_hat >= 6.0 * 0.9
        assert est.beta_hat <= 6.16 * 1.05

    def test_euclidean_quadratic_recovers_lipschitz_constant(self):
        man = Euclidean(3)
        obj = DiagonalQuadratic(D_FIG, man)
        center = man.point(np.zeros(3))
        est = estimate_smoothness(obj, center, 1.0, 80, np.random.default_rng(3))
        assert est.beta_hat == pytest.approx(8.0, rel=0.05)
        assert est.rho_hat <= 1e-8  # constant Hessian

    def test_constant_objective(self):
        man = Sphere(3)
        obj = Constant(man, 2.5)
        est = estimate_smoothness(obj, man.random_point(np.random.default_rng(0)),
                                  0.5, 10, np.random.default_rng(4))
        assert est.beta_hat == 0.0
        assert est.rho_hat == 0.0

    def test_monotone_in_samples(self):
        obj = fig_objective()
        x = saddle_point()
        est_small = estimate_smoothness(obj, x, 0.4, 8, np.random.default_rng(9))
        est_big = estimate_smoothness(obj, x, 0.4, 24, np.random.default_rng(9))
        assert est_big.beta_hat >= est_small.beta_hat
        assert est_big.rho_hat >= est_small.rho_hat

    @pytest.mark.parametrize("make, start, beta_hex, rho_hex", [
        (lambda: KPCA(H5, 3), np.eye(5)[:, [1, 2, 3]],
         "0x1.5bc83b08cd240p+1", "0x1.7c7e46d2ccf3dp+0"),
        (lambda: without_closed_form(KPCA(H5, 3)), np.eye(5)[:, [1, 2, 3]],
         "0x1.5bc83b08cd240p+1", "0x1.7c7e46d27ddb2p+0"),
        (fig_objective, np.array([1.0, 0.0, 0.0]),
         "0x1.981fb60ba0fcbp+2", "0x1.ef81633ad768ap+2"),
    ], ids=["kpca", "kpca-differenced", "sphere(3)"])
    def test_one_hessian_operator_per_sampled_point(self, make, start, beta_hex, rho_hex,
                                                    monkeypatch):
        """Each sampled point binds its Hessian operator once, for all the
        pairs it is in; the estimates keep the bits of an operator per pair."""
        calls, real = [], objectives.hess_operator
        monkeypatch.setattr(objectives, "hess_operator",
                            lambda obj, x: calls.append(x) or real(obj, x))
        obj = make()
        est = estimate_smoothness(obj, Point(obj.manifold, start), 0.5, 12,
                                  np.random.default_rng(0))
        assert len(calls) == 12
        assert (est.beta_hat.hex(), est.rho_hat.hex()) == (beta_hex, rho_hex)

    def test_radius_at_the_injectivity_radius_raises(self):
        with pytest.raises(ValueError, match="^radius must be below the injectivity radius$"):
            estimate_smoothness(fig_objective(), saddle_point(), math.pi, 4,
                                np.random.default_rng(0))

    def test_all_pairs_degenerate_raises(self):
        """Points within 1e-14 of the center are all closer than 1e-12."""
        with pytest.raises(ValueError, match=r"^all sampled pairs degenerate \(distance < 1e-12\)$"):
            estimate_smoothness(fig_objective(), saddle_point(), 1e-14, 4,
                                np.random.default_rng(0))

    def test_requires_two_samples(self):
        with pytest.raises(ValueError, match="n_samples"):
            estimate_smoothness(fig_objective(), saddle_point(), 0.1, 1,
                                np.random.default_rng(0))
