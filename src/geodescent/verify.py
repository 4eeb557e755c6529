"""Empirical checks of the geometric inequalities behind the saddle-escape
analysis, run on manifolds with closed-form maps.

Each scaling check samples configurations at a sequence of shrinking scales,
records the worst residual per scale, fits the log-log slope of residual
against scale, and fits the empirical constant as the largest
residual-to-bound ratio.  Constants are reported, never asserted against
fixed values.  The scaling checks share one pass rule: the constant is
finite, and the fitted slope lies in the check's window; if every residual
is at most EXACT_RESIDUAL (as on flat space) there is nothing to fit, and
the check passes.  Every check has a falsification mode (expected decay
exponent lowered by one) that must fail, exact cases included, guarding
against vacuous passes.

All six scaling checks and the descent audit take each kind of draw from
its own stream, spawned from the check's generator, one block per stack of
samples, and evaluate the stack through the manifold maps and the
objective.  Neither a stream's bits nor a sample's depend on how a scale is
cut into stacks, so neither do the reports.  A NaN residual reads as an
infinite ratio to its bound, so every check whose constant is a largest
ratio fails on it, and descent counts a violation that is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .manifolds import GeometryError, Manifold, Point, Tangent, _norm, _norms, readonly
from .objectives import Objective, _stacked, hess_operator, min_hess_eig
from .optimizer import ThresholdSet, clamped_step, classify_stationarity

SLOPE_HALF_WIDTH = 0.3
EXACT_RESIDUAL = 1e-10
# A stack holds at most this many floats (128 KB), so a scale's samples are
# drawn and evaluated in chunks: an oblique(100,20) verify at 1,000 samples
# per scale would otherwise hold 1,000 x 2,000 x 8 B = 16 MB per draw kind and
# temporary, about twenty of them alive.  Its peak RSS is 38 MB at this bound,
# as one sample at a time, and 89 MB at 2 ** 19 floats; sphere(3) stacks stay whole.
STACK_FLOATS = 2 ** 14


@dataclass
class VerificationReport:
    lemma_id: str
    n_samples: int
    scales: list[float]
    max_residual_per_scale: list[float]
    fitted_slope: float
    fitted_constant: float
    passed: bool
    slope_window: tuple[float, float] | None = None
    details: dict = field(default_factory=dict)


def _fit_slope(scales, residuals) -> float:
    pts = [(s, r) for s, r in zip(scales, residuals) if r > 0]
    if len(pts) < 2:
        return math.nan
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def _ratio(residual: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """residual / bound per sample; inf for a NaN residual, which `_sweep`
    would otherwise pass over; where the bound is at most 1e-300, 0.0 for a
    residual at most 1e-12 and inf otherwise."""
    ok = (bound > 1e-300) & ~np.isnan(residual)
    return np.where(ok, residual / np.where(ok, bound, 1.0),
                    np.where(residual <= 1e-12, 0.0, math.inf))


def _draws(rng: np.random.Generator, shape: tuple, *spec):
    """draw(m): the next m samples of each entry of `spec`, one stack per
    entry, from the entry's own child of one `rng.spawn`, which leaves rng's
    stream where it was.  None is a standard normal of `shape`, (lo, hi) a
    uniform, lo + (hi - lo) * random() (`rng.uniform`'s bits).  A stream's
    values do not depend on how calls cut it: draw(3), draw(47) is draw(50)."""
    streams = rng.spawn(len(spec))
    return lambda m: [g.standard_normal((m,) + shape) if d is None
                      else d[0] + (d[1] - d[0]) * g.random(m) for g, d in zip(streams, spec)]


def _tangents(man: Manifold, x: Point, norm: np.ndarray, g: np.ndarray) -> Tangent:
    """`norm` times `unit_tangent` at each of the stacked points x, from its
    normal draw g."""
    g, gn = man._tangent_direction(x, g)
    return Tangent(x, readonly(norm.reshape(gn.shape) * (g / gn)))


def _repeat(x: Point, m: int) -> Point:
    """A stack of m copies of x."""
    return Point(x.manifold, np.broadcast_to(x.coords, (m,) + x.coords.shape))


def _chunk(manifold: Manifold) -> int:
    """Samples per stack: at most `STACK_FLOATS` floats, and at least one sample."""
    return max(1, STACK_FLOATS // math.prod(manifold.shape))


def _sweep(n: int, scales, width: int, sample, chunk: int) -> tuple[list[float], list[list[float]]]:
    """Draw n samples per scale, largest scale first, in stacks of at most `chunk`.

    sample(s, m) draws and evaluates the next m samples at scale s, and
    returns `width` arrays of m values and a mask of the samples to keep (a
    degenerate draw is skipped).  Returns the sorted scales and, for each
    value, its per-scale maxima from 0.0, taken with np.fmax, so that a NaN
    value never wins.
    """
    scales = sorted(scales, reverse=True)
    peaks = np.zeros((width, len(scales)))
    for j, s in enumerate(scales):
        for start in range(0, n, chunk):
            *vals, keep = sample(s, min(chunk, n - start))
            for v, p in zip(vals, peaks):
                p[j] = np.fmax.reduce(v[keep], initial=p[j])
    return scales, peaks.tolist()


def _scaling_check(lemma_id: str, manifold: Manifold, n: int, scales, expected: float,
                   falsify: bool, sample, width: int, summarize) -> VerificationReport:
    """Sweep `sample` over the scales and judge the decay of value 0, the
    residual, under the module's pass rule.

    `expected` is the residual's decay exponent; summarize(*values) maps the
    per-scale maxima of each sampled value to the fitted constant and the
    report's details.
    """
    scales, values = _sweep(n, scales, width, sample, _chunk(manifold))
    residuals = values[0]
    slope = _fit_slope(scales, residuals)
    constant, details = summarize(*values)
    center = expected - 1.0 if falsify else expected
    window = (center - SLOPE_HALF_WIDTH, center + SLOPE_HALF_WIDTH)
    if n > 0 and all(r <= EXACT_RESIDUAL for r in residuals):  # n = 0 measures nothing
        fits = not falsify
    else:
        fits = window[0] <= slope <= window[1]
    return VerificationReport(lemma_id, n * len(scales), scales, residuals, slope, constant,
                              math.isfinite(constant) and fits, window, details)


def _largest_ratio(residual: list[float], ratio: list[float]) -> tuple[float, dict]:
    return max(ratio, default=0.0), {}


def _c2_c3(dev: list[float], c2: list[float], c3: list[float]) -> tuple[float, dict]:
    c2, c3 = max(c2, default=0.0), max(c3, default=0.0)
    return max(c2, c3), {"c2": c2, "c3": c3}


def _ratio_per_scale(res: list[float], ratio: list[float]) -> tuple[float, dict]:
    return max(ratio, default=0.0), {"ratio_per_scale": ratio}


def _with_raw(normalized: list[float], raw: list[float]) -> tuple[float, dict]:
    return max(normalized, default=0.0), {"max_raw_residual_per_scale": raw}


def _empirical_rho(res: list[float], ratio: list[float]) -> tuple[float, dict]:
    rho = max(ratio, default=0.0)
    return rho, {"empirical_rho": rho}


def check_two_step(manifold: Manifold, n: int, scales, rng: np.random.Generator,
                   falsify: bool = False) -> VerificationReport:
    """Two-step commutation: moving along y+a at once versus moving along a,
    transporting y and moving again.  The defect is bounded by
    c1 * min(|a|, |y|) * (|a| + |y|)^2, hence decays cubically in the scale.
    """
    nd = len(manifold.shape)
    draw = _draws(rng, manifold.shape, None, (0.5, 1.0), None, (0.5, 1.0), None)

    def sample(s, m):
        gx, ua, ga, uy, gy = draw(m)
        x = manifold._point_from(gx)
        a = _tangents(manifold, x, s * ua, ga)
        y = _tangents(manifold, x, s * uy, gy)
        z = manifold.exp(x, a)
        p1 = manifold.exp(x, Tangent(x, readonly(a.coords + y.coords)))
        p2 = manifold.exp(z, manifold.transport(x, z, y))
        res = manifold.dist(p1, p2)
        na, ny = _norms(a.coords, nd), _norms(y.coords, nd)
        bound = np.minimum(na, ny) * (na + ny) ** 2
        return res, _ratio(res, bound), np.ones(m, bool)

    return _scaling_check("two-step", manifold, n, scales, 3.0, falsify, sample, 2,
                          _largest_ratio)


def check_log_bilipschitz(manifold: Manifold, n: int, R_values, rng: np.random.Generator,
                          falsify: bool = False) -> VerificationReport:
    """Bi-Lipschitz distortion of the log map on triples within diameter R.

    Measures q = |log_x(y) - log_x(z)| / d(y, z); the deviation max(q-1, 1/q-1)
    scales as R^2, with fitted constants c2 (lower side) and c3 (upper side).
    """
    draw = _draws(rng, manifold.shape, None, (0.3, 0.5), None, (0.3, 0.5), None)

    def sample(R, m):
        gx, uy, gy, uz, gz = draw(m)
        x = manifold._point_from(gx)
        y = manifold.exp(x, _tangents(manifold, x, R * uy, gy))
        z = manifold.exp(x, _tangents(manifold, x, R * uz, gz))
        d = manifold.dist(y, z)
        keep = ~(d < 1e-12)  # a degenerate pair is skipped
        lxy, lxz = manifold.log(x, y).coords, manifold.log(x, z).coords
        q = np.where(keep, _norms(lxy - lxz, len(manifold.shape)) / np.where(keep, d, 1.0), 1.0)
        R2 = R ** 2
        return np.maximum(np.maximum(q - 1.0, 1.0 / q - 1.0), 0.0), (1.0 / q - 1.0) / R2, \
            (q - 1.0) / R2, keep

    return _scaling_check("log-bilipschitz", manifold, n, R_values, 2.0, falsify, sample, 3,
                          _c2_c3)


def check_transport_contraction(manifold: Manifold, n: int, rng: np.random.Generator,
                                falsify: bool = False) -> VerificationReport:
    """Endpoint spread of parallel geodesics: d(exp_x(w), exp_y(transport w))
    is at most c4 * d(x, y), hence decays linearly in the base-pair scale."""
    draw = _draws(rng, manifold.shape, None, (0.5, 1.0), None, (0.2, 1.0), None)

    def sample(s, m):
        gx, uy, gy, uw, gw = draw(m)
        x = manifold._point_from(gx)
        y = manifold.exp(x, _tangents(manifold, x, s * uy, gy))
        w = _tangents(manifold, x, uw, gw)
        res = manifold.dist(manifold.exp(x, w),
                            manifold.exp(y, manifold.transport(x, y, w)))
        return res, _ratio(res, manifold.dist(x, y)), np.ones(m, bool)

    return _scaling_check("transport-contraction", manifold, n, [0.4, 0.2, 0.1, 0.05], 1.0,
                          falsify, sample, 2, _ratio_per_scale)


def check_holonomy(manifold: Manifold, n: int, scales, rng: np.random.Generator,
                   falsify: bool = False) -> VerificationReport:
    """Path dependence of transport around a two-leg detour:
    |T_y->z T_x->y w - T_x->z w| <= c5 d(x,y) d(y,z) |w|, quadratic in the
    triangle scale."""
    nd = len(manifold.shape)
    draw = _draws(rng, manifold.shape, None, (0.5, 1.0), None, (0.5, 1.0), None, None)

    def sample(s, m):
        gx, uy, gy, uz, gz, gw = draw(m)
        x = manifold._point_from(gx)
        y = manifold.exp(x, _tangents(manifold, x, s * uy, gy))
        z = manifold.exp(x, _tangents(manifold, x, s * uz, gz))
        w = _tangents(manifold, x, np.ones(m), gw)  # 1.0 * u is u: `unit_tangent`'s bits
        via = manifold.transport(y, z, manifold.transport(x, y, w))
        direct = manifold.transport(x, z, w)
        res = _norms(via.coords - direct.coords, nd)
        bound = manifold.dist(x, y) * manifold.dist(y, z) * _norms(w.coords, nd)
        return res, _ratio(res, bound), np.ones(m, bool)

    return _scaling_check("holonomy", manifold, n, scales, 2.0, falsify, sample, 2,
                          _largest_ratio)


def check_linearization(obj: Objective, manifold: Manifold, saddle_x: Point,
                        n: int, scales, eta: float, rng: np.random.Generator,
                        falsify: bool = False) -> VerificationReport:
    """One-step linearization of coupled iterates in the saddle tangent space.

    For u, w sampled at scale s around the saddle, one gradient step each, the
    residual of log_x(w+) - log_x(u+) against (I - eta H(x)) applied to
    log_x(w) - log_x(u) is bounded by C d(u,w) (d(u,w) + d(u,x) + d(w,x)).
    The per-scale worst normalized residual (residual over that bound
    expression) decays linearly in s.  H(x) comes from `hess_operator`.

    Scales that span one decade barely resolve that decay, so the seed decides
    pass or fail there: on KPCA(diag(0, 1, 2, 3, 4), 3) at its stationary
    start, with 100 samples at scales 0.2 ... 0.025, seeds 0-9 fit slopes 0.770
    to 1.199 against the window [0.70, 1.30], by the closed-form Hessian or by
    central differences.  Scales 1e-1 ... 1e-3 fit 0.905 to 1.079.
    """
    nd = len(manifold.shape)
    draw = _draws(rng, manifold.shape, (0.3, 1.0), None, (0.3, 1.0), None)

    def sample(s, m):
        ua, ga, uw, gw = draw(m)
        x = _repeat(saddle_x, m)
        u = manifold.exp(x, _tangents(manifold, x, s * ua, ga))
        w = manifold.exp(x, _tangents(manifold, x, s * uw, gw))
        duw = manifold.dist(u, w)
        up = manifold.exp(u, Tangent(u, readonly(-eta * obj.rgrad(u).coords)))
        wp = manifold.exp(w, Tangent(w, readonly(-eta * obj.rgrad(w).coords)))
        lv = Tangent(x, readonly(manifold.log(x, w).coords - manifold.log(x, u).coords))
        pred = lv.coords - eta * hess_operator(obj, x)(lv).coords
        res = _norms(manifold.log(x, wp).coords - manifold.log(x, up).coords - pred, nd)
        theta = duw + manifold.dist(u, x) + manifold.dist(w, x)
        return _ratio(res, duw * theta), res, ~(duw < 1e-12)  # a degenerate pair is skipped

    return _scaling_check("linearization", manifold, n, scales, 1.0, falsify, sample, 2,
                          _with_raw)


def check_gradient_taylor(obj: Objective, manifold: Manifold, n: int, scales,
                          rng: np.random.Generator, falsify: bool = False) -> VerificationReport:
    """First-order Taylor expansion of the transported gradient field:
    the defect against grad f(x) + H(x)[log_x(z)] decays quadratically in
    d(x, z); the empirical half-Hessian-Lipschitz constant is reported."""
    nd = len(manifold.shape)
    draw = _draws(rng, manifold.shape, None, (0.5, 1.0), None)

    def sample(s, m):
        gx, uz, gz = draw(m)
        x = manifold._point_from(gx)
        z = manifold.exp(x, _tangents(manifold, x, s * uz, gz))
        d = manifold.dist(x, z)
        hterm = hess_operator(obj, x)(manifold.log(x, z))
        res = _norms(manifold.transport(z, x, obj.rgrad(z)).coords
                     - obj.rgrad(x).coords - hterm.coords, nd)
        return res, _ratio(res, 0.5 * d ** 2), ~(d < 1e-12)

    return _scaling_check("gradient-taylor", manifold, n, scales, 2.0, falsify, sample, 2,
                          _empirical_rho)


def check_descent(obj: Objective, region: tuple[Point, float], n: int, eta: float,
                  rng: np.random.Generator) -> VerificationReport:
    """Per-step descent audit: with the clamped step, every gradient step must
    satisfy f(u+) <= f(u) - 0.5 * eta_bar * |grad|^2 up to 1e-12.  The start
    u is uniform in the tangent ball around the region's center; a start with
    a zero gradient is skipped, and a violation that is not finite counts."""
    man = obj.manifold
    center, radius = region
    if not radius > 0:  # `sample_tangent_ball`'s guard, which a NaN fails too
        raise ValueError(f"radius must be positive, got {radius}")
    geo = man.geometry()
    violations = 0
    draw = _draws(rng, man.shape, None, (0.0, 1.0))

    def sample(radius, m):
        nonlocal violations
        g, r = draw(m)
        c = _repeat(center, m)
        g, gn = man._tangent_direction(c, g)
        norm = radius * r ** (1.0 / geo.dimension)  # radius * U^(1/d)
        u = man.exp(c, Tangent(c, readonly((norm.reshape(gn.shape) / gn) * g)))
        grad = obj.rgrad(u).coords
        gnorm = _norms(grad, len(man.shape))
        # `clamped_step`, which leaves u in place where the gradient norm is not positive
        moving = gnorm > 0
        eta_bar = np.where(moving, np.minimum(eta, geo.injectivity_radius
                                              / np.where(moving, gnorm, 1.0)), 0.0)
        step = np.where(moving.reshape(gn.shape), -eta_bar.reshape(gn.shape) * grad, 0.0)
        u_plus = man.exp(u, Tangent(u, readonly(step)))
        f_plus, f = (_stacked(obj.value, p, (m,)) for p in (u_plus, u))
        violation = f_plus - f + 0.5 * eta_bar * gnorm ** 2
        keep = gnorm != 0
        v = violation[keep]
        violations += int(np.count_nonzero(~np.isfinite(v) | (v > 1e-12)))
        return violation, keep

    _, [[worst]] = _sweep(n, [radius], 1, sample, _chunk(man))
    return VerificationReport("descent", n, [radius], [worst], 0.0, worst,
                              violations == 0, None,
                              details={"violations": violations, "eta": eta})


@dataclass
class CouplingReport:
    """Trace of two coupled perturbation sequences split along the most
    negative Hessian direction."""

    mu: float
    psi: list[float]
    phi: list[float]
    ratios: list[float]
    growth_threshold: float
    frac_growth_ok: float
    escape_t: int | None
    stop_reason: str
    lambda_min: float
    max_dist_from_start: float
    dist_budget: float


def coupling_probe(obj: Objective, manifold: Manifold, saddle_x: Point,
                   thr: ThresholdSet, mu: float, T_max: int,
                   rng: np.random.Generator) -> CouplingReport:
    """Run two coupled gradient-descent sequences from perturbations whose
    initial difference is mu * r along the most negative Hessian direction.

    Records psi_t (difference component along that direction, measured in the
    saddle tangent space) and phi_t (orthogonal component), the per-step psi
    growth ratios, and the first step at which psi reaches 10x its initial
    value.  Stops early with partial data if an iterate leaves the
    injectivity ball around the saddle.  saddle_x must classify as a saddle
    with epsilon = g_thres and rho_hat = gamma^2 / g_thres.
    """
    g0 = obj.rgrad(saddle_x).norm()
    lam, e1 = min_hess_eig(obj, saddle_x, 1e-4, rng)
    label = classify_stationarity(g0, lam, thr.g_thres, thr.gamma ** 2 / thr.g_thres)
    if label != "saddle":
        raise ValueError(f"saddle_x classifies as {label!r}, expected 'saddle'")

    xi = manifold.sample_tangent_ball(saddle_x, thr.r, rng)
    u = manifold.exp(saddle_x, xi)
    w = manifold.exp(saddle_x, Tangent(saddle_x, xi.coords + mu * thr.r * e1.coords))
    u0 = u

    psi, phi = [], []
    stop_reason = "t-max"
    escape_t = None
    max_dist = 0.0
    psi0 = None
    for t in range(T_max + 1):
        try:
            v = manifold.log(saddle_x, w).coords - manifold.log(saddle_x, u).coords
            max_dist = max(max_dist, manifold.dist(u0, u))
        except GeometryError:
            stop_reason = "left-injectivity-ball"
            break
        along = float(np.add.reduce(v * e1.coords, axis=None))
        psi.append(abs(along))
        phi.append(_norm(v - along * e1.coords))
        if psi0 is None:
            psi0 = psi[0]
        if psi0 > 0 and psi[-1] >= 10.0 * psi0:
            stop_reason = "escaped"
            escape_t = t
            break
        if t == T_max:
            break
        gu = obj.rgrad(u)
        u, _ = clamped_step(manifold, u, gu, gu.norm(), thr.eta)
        gw = obj.rgrad(w)
        w, _ = clamped_step(manifold, w, gw, gw.norm(), thr.eta)
    ratios = [psi[i + 1] / psi[i] for i in range(len(psi) - 1) if psi[i] > 0]
    growth_threshold = 1.0 + thr.eta * thr.gamma / 2.0
    frac = (sum(1 for q in ratios if q >= growth_threshold) / len(ratios)) if ratios else 0.0
    return CouplingReport(
        mu=mu, psi=psi, phi=phi, ratios=ratios,
        growth_threshold=growth_threshold, frac_growth_ok=frac,
        escape_t=escape_t, stop_reason=stop_reason, lambda_min=lam,
        max_dist_from_start=max_dist,
        dist_budget=3.0 * thr.c_hat * thr.script_S,
    )


def render_report(rep: VerificationReport) -> str:
    """Key-value text form of a report, with a per-scale table."""
    lines = [
        f"lemma = {rep.lemma_id}",
        f"n_samples = {rep.n_samples}",
        f"passed = {str(rep.passed).lower()}",
        f"fitted_slope = {rep.fitted_slope:.6g}",
        f"fitted_constant = {rep.fitted_constant:.6g}",
    ]
    if rep.slope_window is not None:
        lines.append(f"slope_window = [{rep.slope_window[0]:.2f}, {rep.slope_window[1]:.2f}]")
    for key, val in sorted(rep.details.items()):
        if isinstance(val, float):
            lines.append(f"{key} = {val:.6g}")
        elif isinstance(val, list):
            lines.append(f"{key} = " + " ".join(f"{v:.6g}" for v in val))
        else:
            lines.append(f"{key} = {val}")
    lines.append("scale max_residual")
    for s, r in zip(rep.scales, rep.max_residual_per_scale):
        lines.append(f"{s:.10g} {r:.10g}")
    return "\n".join(lines) + "\n"
