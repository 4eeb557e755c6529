"""Perturbed Riemannian gradient descent as an explicit state machine, the
threshold derivation box and the stationarity classifier.  The plain
gradient-descent baseline is the same step with a first-order stop in place
of the perturbation, driven by the same loop."""

from __future__ import annotations

import math
import operator
import time
import warnings
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .manifolds import Point, Tangent, readonly
from .objectives import Objective

STATUS_SECOND_ORDER = "second-order-point"
STATUS_ITERATION_CAP = "iteration-cap"
STATUS_STEP_FAILURE = "step-failure"
STATUS_FIRST_ORDER = "first-order-point"  # baseline gradient-tolerance stop


def _require_finite_positive(**values: float):
    for name, val in values.items():
        if not 0 < val < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {val}")


@dataclass(frozen=True)
class AssumptionParams:
    """Smoothness/curvature constants and targets feeding the threshold box.

    beta and rho are the gradient/Hessian Lipschitz constants, injectivity
    the injectivity radius (positive, inf when unbounded), epsilon the
    target accuracy, delta the failure probability, f_gap an upper bound on
    f(x0) - f*, dim_d the intrinsic manifold dimension, and rho_hat the
    inflated Hessian constant (defaults to rho when the curvature coupling
    constant is unknown).
    """

    beta: float
    rho: float
    epsilon: float
    delta: float
    f_gap: float
    dim_d: int
    injectivity: float = math.inf
    rho_hat: float | None = None

    def __post_init__(self):
        if self.rho_hat is None:
            object.__setattr__(self, "rho_hat", self.rho)
        _require_finite_positive(beta=self.beta, rho=self.rho, rho_hat=self.rho_hat,
                                 epsilon=self.epsilon, f_gap=self.f_gap)
        if not self.injectivity > 0:
            raise ValueError(f"injectivity must be positive, got {self.injectivity}")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.dim_d < 1:
            raise ValueError("dim_d must be >= 1")


@dataclass(frozen=True)
class ThresholdSet:
    """All derived constants of the algorithm's parameter box."""

    c_hat: float
    c_max: float
    chi: float
    r: float
    f_thres: float
    g_thres: float
    t_thres: int
    eta: float
    gamma: float
    kappa: float
    script_F: float
    script_G: float
    script_S: float
    script_T: float
    mode: str = "theory"


def _script_scales(eta: float, beta: float, gamma: float, rho_hat: float,
                   log_term: float) -> dict[str, float]:
    """The paper's function-decrease, gradient, distance and time scales
    (script F, G, S and T) shared by both threshold modes."""
    return {
        "script_F": eta * beta * gamma ** 3 / rho_hat ** 2 / log_term ** 3,
        "script_G": math.sqrt(eta * beta) * gamma ** 2 / rho_hat / log_term ** 2,
        "script_S": math.sqrt(eta * beta) * gamma / rho_hat / log_term,
        "script_T": log_term / (eta * gamma),
    }


def derive_thresholds(p: AssumptionParams, c_hat: float = 4.0,
                      c2: float = 1.0, c3: float = 1.0) -> ThresholdSet:
    """Derive every constant of the parameter box from the assumptions.

    c_max is set to its maximal admissible value (sqrt(c_max) <= 1/(56 c_hat^2)
    with equality).  The accuracy bound on epsilon involves curvature
    constants that are only available as empirical fits (c2, c3 arguments); a
    violation is reported as a warning with both sides evaluated, not as an
    error.
    """
    if c_hat < 4:
        raise ValueError(f"c_hat must be >= 4, got {c_hat}")
    c_max = (1.0 / (56.0 * c_hat ** 2)) ** 2
    chi = 3.0 * max(math.log(p.dim_d * p.beta * p.f_gap / (c_hat * p.epsilon ** 2 * p.delta)), 4.0)
    r = math.sqrt(c_max) * p.epsilon / chi ** 2
    f_thres = (c_max / chi ** 3) * math.sqrt(p.epsilon ** 3 / p.rho_hat)
    g_thres = (math.sqrt(c_max) / chi ** 2) * p.epsilon
    gamma = math.sqrt(p.rho_hat * p.epsilon)
    t_thres = int(math.ceil((chi / c_max) * p.beta / gamma))
    eta = c_max / p.beta
    kappa = p.beta / gamma
    log_term = math.log(p.dim_d * kappa / p.delta)

    # accuracy bound check (warning only: c2, c3 are empirical fits)
    acc_log = math.log(p.dim_d * p.beta / (gamma * p.delta))
    bound_a = p.rho_hat / (56.0 * max(c2, c3) * eta * p.beta) * acc_log
    bound_b = math.inf
    if math.isfinite(p.injectivity):
        bound_b = (p.injectivity * p.rho_hat / (12.0 * c_hat * math.sqrt(eta * p.beta)) * acc_log) ** 2
    bound = min(bound_a, bound_b)
    if p.epsilon > bound:
        warnings.warn(
            f"epsilon = {p.epsilon:.6g} exceeds the admissible accuracy bound "
            f"{bound:.6g} (min of {bound_a:.6g} and {bound_b:.6g} with fitted "
            f"c2={c2:.3g}, c3={c3:.3g}); guarantees may not apply",
            RuntimeWarning,
        )
    return ThresholdSet(
        c_hat=c_hat, c_max=c_max, chi=chi, r=r, f_thres=f_thres,
        g_thres=g_thres, t_thres=t_thres, eta=eta, gamma=gamma, kappa=kappa,
        **_script_scales(eta, p.beta, gamma, p.rho_hat, log_term), mode="theory",
    )


def practical_thresholds(beta_hat: float, rho_hat: float, epsilon: float,
                         dim_d: int = 2, delta: float = 0.1,
                         eta: float | None = None, r: float | None = None,
                         g_thres: float | None = None,
                         f_thres: float | None = None,
                         t_thres: int | None = None) -> ThresholdSet:
    """Desk-scale parameter choices for experiments.

    The worst-case box yields step sizes far too small for real runs, so the
    practical mode uses eta = 0.1/beta_hat, r = sqrt(epsilon),
    g_thres = epsilon, t_thres = ceil(4/(eta sqrt(rho_hat epsilon))) and
    f_thres = 0.1 sqrt(epsilon^3/rho_hat), all overridable.  The remaining
    fields are filled with the same formulas as the theory box so reports stay
    uniform.  Every float input and resolved threshold must be finite and
    positive, and t_thres an integer >= 1.
    """
    _require_finite_positive(beta_hat=beta_hat, rho_hat=rho_hat, epsilon=epsilon)
    eta = 0.1 / beta_hat if eta is None else eta
    r = math.sqrt(epsilon) if r is None else r
    g_thres = epsilon if g_thres is None else g_thres
    f_thres = 0.1 * math.sqrt(epsilon ** 3 / rho_hat) if f_thres is None else f_thres
    _require_finite_positive(eta=eta, r=r, g_thres=g_thres, f_thres=f_thres)
    gamma = math.sqrt(rho_hat * epsilon)
    if t_thres is None:
        t_thres = math.ceil(4.0 / (eta * gamma))
    if not (t_thres >= 1 and float(t_thres).is_integer()):
        raise ValueError(f"t_thres must be an integer >= 1, got {t_thres}")
    kappa = beta_hat / gamma
    log_term = math.log(max(dim_d * kappa / delta, math.e))
    c_max = eta * beta_hat  # back-derived from eta = c_max / beta
    chi = 3.0 * max(math.log(max(dim_d * beta_hat / (4.0 * epsilon ** 2 * delta), 1.0)), 4.0)
    return ThresholdSet(
        c_hat=4.0, c_max=c_max, chi=chi, r=r, f_thres=f_thres,
        g_thres=g_thres, t_thres=int(t_thres), eta=eta, gamma=gamma, kappa=kappa,
        **_script_scales(eta, beta_hat, gamma, rho_hat, log_term), mode="practical",
    )


@dataclass(slots=True)
class TraceRow:
    t: int
    f: float
    gradnorm: float
    step_norm: float
    perturbed: bool


class TraceRows(Sequence):
    """Read-only view of a Trace's columns.  Row objects are built on access,
    so iterating a long trace holds one row at a time; a slice is a list."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace"):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n, t = len(self), operator.index(i)
        if t < 0:
            t += n
        if not 0 <= t < n:
            raise IndexError("trace row index out of range")
        tr = self._trace
        return TraceRow(t, tr.f[t], tr.gradnorm[t], tr.step_norm[t], bool(tr.perturbed[t]))

    def __iter__(self):
        tr = self._trace
        for t, (f, g, s, p) in enumerate(zip(tr.f, tr.gradnorm, tr.step_norm, tr.perturbed)):
            yield TraceRow(t, f, g, s, bool(p))


@dataclass
class Trace:
    """Per-iteration record of one run, one compact column per field.

    Row t is step t, so there is no t column; `rows` is a read-only view
    that builds TraceRow objects on access.  Equality/determinism contracts
    cover the columns; wall_time is informational only.
    """

    f: array = field(default_factory=lambda: array("d"))
    gradnorm: array = field(default_factory=lambda: array("d"))
    step_norm: array = field(default_factory=lambda: array("d"))
    perturbed: array = field(default_factory=lambda: array("b"))
    wall_time: float = 0.0

    def append(self, f: float, gradnorm: float, step_norm: float, perturbed: bool):
        self.f.append(f)
        self.gradnorm.append(gradnorm)
        self.step_norm.append(step_norm)
        self.perturbed.append(perturbed)

    def __len__(self) -> int:
        return len(self.f)

    @property
    def rows(self) -> TraceRows:
        return TraceRows(self)


@dataclass
class RunResult:
    status: str
    final_point: Point
    final_f: float
    final_gradnorm: float
    iterations: int
    trace: Trace


# iterates a run's replay memo holds (see OptState): periods 1-4, most of the
# Burer-Monteiro confirmation windows' steps, at 2 x 16 KB each on oblique(100, 20)
_MEMO_STEPS = 4


@dataclass
class OptState:
    """Mutable state of one perturbed-gradient-descent run.

    `_memo` remembers up to `_MEMO_STEPS` recent iterates, oldest first, keyed
    by identity: each with its coords' bytes and, once a regular (unperturbed)
    step ran from it, that step's (f, gradnorm, eta_bar, x_next).  A step is a
    pure function of x's bytes, the thresholds and the objective, so the memo
    serves one pair, `_memo_for`, and `prgd_step` replays it (see there)."""

    x: Point
    t: int = 0
    t_noise: int = 0
    x_tilde: Point | None = None
    fg_tilde: tuple = ()  # (f, gradient norm) at x_tilde, saved with it
    trace: Trace = field(default_factory=Trace)
    # small-gradient policy: perturb (False) or stop (True, set by rgd_baseline only)
    _stop: bool = field(default=False, init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _memo_for: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    @classmethod
    def initial(cls, x0: Point, thr: ThresholdSet) -> "OptState":
        return cls(x=x0, t=0, t_noise=-thr.t_thres - 1, x_tilde=None)


def _finish(status: str, x: Point, fx: float, gnorm: float, trace: Trace) -> RunResult:
    return RunResult(status, x, fx, gnorm, len(trace), trace)


def clamped_step(man, x: Point, grad: Tangent, gnorm: float, eta: float,
                 rows=None) -> tuple[Point, float]:
    """Gradient step of geodesic length min(eta * gnorm, inj), with inj the
    injectivity radius of `man`.

    Returns the next point and eta_bar = min(eta, inj / gnorm), or (x, 0.0)
    when gnorm is not positive.  `rows` (an objective's `_step_rows`: a slice
    or an index of the rows outside which grad is zero, on a manifold whose
    maps act row by row) runs `_exp` on those rows alone and copies x
    elsewhere, where every row keeps its point in the whole step too."""
    if not gnorm > 0:
        return x, 0.0
    eta_bar = min(eta, man.geometry().injectivity_radius / gnorm)
    if rows is None:
        return Point(man, readonly(man._exp(x.coords, -eta_bar * grad.coords))), eta_bar
    y = x.coords.copy()
    y[rows] = man._exp(x.coords[rows], -eta_bar * grad.coords[rows])
    return Point(man, readonly(y)), eta_bar


def prgd_step(state: OptState, thr: ThresholdSet, obj: Objective,
              rng: np.random.Generator):
    """One pass of the perturbed-descent loop.

    In order: (1) if the gradient is at or below g_thres and the previous
    perturbation window has fully elapsed, apply the state's small-gradient
    policy: `perturb` (run) saves the iterate with its f and gradient norm and
    perturbs inside the tangent ball of radius r; `stop` (rgd_baseline)
    records the step and terminates at the first-order point; (2) if exactly
    t_thres steps have passed since the last perturbation and f failed to drop
    below the saved f by f_thres, terminate with the saved iterate; (3)
    otherwise take a gradient step of geodesic length
    min(eta * ||grad||, injectivity radius); (4) advance t.

    A step is a pure function of x's bytes, `thr` and `obj`, so it is replayed
    where it ran before: when x is an iterate in the state's memo whose regular
    step ran with these `thr` and `obj` objects, its f, gradient norm, eta_bar
    and next point are reused, and (1) and (2) run on them as ever.  A
    perturbed step computes everything.  A computed next point with the bytes
    of a remembered iterate (so +0.0 and -0.0 differ) is that iterate, so a
    run that cycles with period at most `_MEMO_STEPS` replays each step after
    the first pass, with the same bytes and iterations.

    Returns the updated OptState, or a RunResult when the run terminates.
    """
    man = obj.manifold
    x = state.x
    if state._memo_for[0] is not obj or state._memo_for[1] is not thr:
        state._memo, state._memo_for = {}, (obj, thr)
    memo = state._memo
    seen = memo.get(x)  # [coords bytes, (fx, gnorm, eta_bar, x_next) or None]
    done = seen[1] if seen else None
    if done is None:
        fx, grad = obj.value_and_rgrad(x)
        gnorm = grad.norm()
    else:
        fx, gnorm, eta_bar, x_next = done
    if not (math.isfinite(fx) and math.isfinite(gnorm)):
        return _finish(STATUS_STEP_FAILURE, x, fx, gnorm, state.trace)

    perturbed = False
    if gnorm <= thr.g_thres and state.t - state.t_noise > thr.t_thres:
        if state._stop:
            state.trace.append(fx, gnorm, 0.0, False)
            return _finish(STATUS_FIRST_ORDER, x, fx, gnorm, state.trace)
        state.t_noise = state.t
        state.x_tilde, state.fg_tilde = x, (fx, gnorm)
        xi = man.sample_tangent_ball(x, thr.r, rng)
        x = man.exp(x, xi)
        perturbed = True
        fx, grad = obj.value_and_rgrad(x)
        gnorm = grad.norm()

    if (state.t - state.t_noise == thr.t_thres and state.x_tilde is not None
            and fx - state.fg_tilde[0] > -thr.f_thres):
        state.trace.append(fx, gnorm, 0.0, False)
        return _finish(STATUS_SECOND_ORDER, state.x_tilde, *state.fg_tilde, state.trace)

    if done is None or perturbed:
        x_next, eta_bar = clamped_step(man, x, grad, gnorm, thr.eta, obj._step_rows)
        x_next = _recall(memo, x_next)
        if seen and not perturbed:
            seen[1] = (fx, gnorm, eta_bar, x_next)
    state.trace.append(fx, gnorm, eta_bar * gnorm, perturbed)
    state.x = x_next
    state.t += 1
    return state


def _recall(memo: dict, y: Point) -> Point:
    """The iterate in `memo` with y's bytes, else y, remembered in place of
    the oldest beyond `_MEMO_STEPS`."""
    b = y.coords.tobytes()
    for p, (pb, _) in memo.items():
        if pb == b:
            return p
    if len(memo) >= _MEMO_STEPS:
        del memo[next(iter(memo))]
    memo[y] = [b, None]
    return y


def _drive(state: OptState, thr: ThresholdSet, obj: Objective,
           rng: np.random.Generator | None, max_iters: int) -> RunResult:
    """The one loop: iterate prgd_step from `state` to termination or the cap."""
    if not max_iters >= 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    t0 = time.perf_counter()
    for _ in range(max_iters):
        out = prgd_step(state, thr, obj, rng)
        if isinstance(out, RunResult):
            break
        state = out
    else:
        fx, g = obj.value_and_rgrad(state.x)
        out = _finish(STATUS_ITERATION_CAP, state.x, fx, g.norm(), state.trace)
    out.trace.wall_time = time.perf_counter() - t0
    return out


def run(obj: Objective, x0: Point, thr: ThresholdSet, max_iters: int,
        rng: np.random.Generator) -> RunResult:
    """Iterate prgd_step until termination or the iteration cap, max_iters >= 0."""
    return _drive(OptState.initial(x0, thr), thr, obj, rng, max_iters)


def rgd_baseline(obj: Objective, x0: Point, eta: float, g_tol: float,
                 max_iters: int) -> RunResult:
    """Plain Riemannian gradient descent: prgd_step with the first-order stop,
    so the same step clamp and no perturbation; stops once the gradient norm
    reaches g_tol.  Raises ValueError unless eta is finite and positive,
    g_tol finite and >= 0, and max_iters >= 0."""
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
    if not 0 <= g_tol < math.inf:
        raise ValueError(f"g_tol must be finite and >= 0, got {g_tol}")
    # the stop policy reads only eta, g_thres and t_thres (0: every small
    # gradient stops the run); the constants it never reads are NaN
    unused = dict.fromkeys(ThresholdSet.__dataclass_fields__, math.nan)
    thr = ThresholdSet(**(unused | {"g_thres": g_tol, "eta": eta, "t_thres": 0,
                                    "mode": "baseline"}))
    state = OptState.initial(x0, thr)
    state._stop = True
    return _drive(state, thr, obj, None, max_iters)


def classify_stationarity(gradnorm: float, lambda_min: float, epsilon: float,
                          rho_hat: float) -> str:
    """Label a point as saddle / second-order / non-stationary.

    A point with gradient norm <= epsilon is a saddle when the smallest
    Hessian eigenvalue is <= -sqrt(rho_hat * epsilon); boundary equalities
    resolve toward `saddle`.  A NaN never certifies: it makes a point
    non-stationary or a saddle, or, in epsilon or rho_hat, raises.
    """
    if not (epsilon > 0 and rho_hat > 0):
        raise ValueError("epsilon and rho_hat must be positive")
    if not gradnorm <= epsilon:
        return "non-stationary"
    if not lambda_min > -math.sqrt(rho_hat * epsilon):
        return "saddle"
    return "second-order"
