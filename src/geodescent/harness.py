"""Experiment harness: flat key=value configs, seeded experiment drivers,
CSV traces and structured summaries."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .manifolds import Euclidean, Grassmann, Oblique, Point, Sphere, principal_angles
from .objectives import (
    BurerMonteiro,
    DiagonalQuadratic,
    KPCA,
    estimate_smoothness,
    min_hess_eig,
)
from .optimizer import (
    RunResult,
    STATUS_SECOND_ORDER,
    ThresholdSet,
    classify_stationarity,
    derive_thresholds,
    practical_thresholds,
    run,
    AssumptionParams,
)
from . import verify as geoverify

EXPERIMENTS = ("sphere-quadratic", "kpca", "burer-monteiro", "verify")
VERIFY_CHECKS = ("descent", "two-step", "log-bilipschitz", "transport-contraction",
                 "holonomy", "linearization", "gradient-taylor", "coupling")

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_CONFIG = 2


def fmt(x) -> str:
    """Floats at 17 significant digits: lossless double round trip."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


class ConfigError(ValueError):
    """Carries every config problem found, not just the first."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass
class ExperimentConfig:
    experiment: str = ""
    seed: int | None = None
    mode: str = "practical"
    max_iters: int = 1_000_000
    out_dir: str | None = None
    epsilon: float = 1e-4
    delta: float = 0.1
    beta: float | None = None
    rho_hat: float | None = None
    eta: float | None = None
    r: float | None = None
    g_thres: float | None = None
    f_thres: float | None = None
    t_thres: int | None = None
    f_gap: float | None = None
    diag: list[float] | None = None
    x0: str | None = None
    k: int | None = None
    h_diag: list[float] | None = None
    h_file: str | None = None
    x0_cols: list[int] | None = None
    dim_d: int = 100
    p: int = 20
    block: int = 5
    a_file: str | None = None
    manifold: str = "sphere"
    n: int = 3
    checks: list[str] = field(default_factory=lambda: ["all"])
    n_samples: int = 1000
    scales: list[float] = field(default_factory=lambda: [0.2, 0.1, 0.05, 0.025])
    mu: float = 1.0
    probe_steps: int = 2000


def _parse_int(s):
    v = float(s)
    if not v.is_integer():
        raise ValueError("not an integer")
    return int(v)


def _parse_finite(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"non-finite entry {s!r}")
    return v


def _parse_list(item, s):
    return [item(tok) for tok in s.replace(",", " ").split()]


# one parser per field type; field annotations are strings under
# `from __future__ import annotations`
_TYPE_PARSERS = {
    "str": str, "int": _parse_int, "float": float,
    "list[str]": partial(_parse_list, str), "list[int]": partial(_parse_list, _parse_int),
    "list[float]": partial(_parse_list, _parse_finite),
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type.removesuffix(" | None")]
            for f in fields(ExperimentConfig)}

# the keys a run config reads: those of every run, its experiment's
# (`_build_problem`) and its mode's (`_thresholds_for`)
_OVERRIDES = {"eta", "r", "g_thres", "f_thres", "t_thres"}
_RUN_KEYS = {"experiment", "seed", "mode", "max_iters", "out_dir", "epsilon", "delta", "beta",
             "rho_hat"}
_EXPERIMENT_KEYS = {"sphere-quadratic": {"diag", "x0"}, "kpca": {"k", "h_diag", "h_file", "x0_cols"},
                    "burer-monteiro": {"dim_d", "p", "block", "a_file"}}
_MODE_KEYS = {"practical": _OVERRIDES, "theory": {"f_gap"}}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key=value config.

    Raises ConfigError listing every problem (unknown keys, type mismatches,
    missing required fields, keys a run config's experiment and mode do not
    read), each with its line number.
    """
    cfg = ExperimentConfig()
    errors: list[str] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
            continue
        seen[key] = lineno
        try:
            setattr(cfg, key, _PARSERS[key](value))
        except ValueError:
            errors.append(f"line {lineno}: cannot parse value {value!r} for key {key!r}")

    def require(cond: bool, msg: str):
        if not cond:
            errors.append(msg)

    require(cfg.experiment in EXPERIMENTS,
            f"missing or invalid 'experiment' (one of {', '.join(EXPERIMENTS)})")
    require(cfg.seed is not None, "missing required field 'seed'")
    require(cfg.seed is None or cfg.seed >= 0,
            f"line {seen.get('seed')}: seed must be >= 0, got {cfg.seed}")
    require(cfg.mode in ("theory", "practical"), f"invalid mode {cfg.mode!r}")
    for key in ("epsilon", "mu", "beta", "rho_hat", "eta", "r", "g_thres", "f_thres", "f_gap"):
        val = getattr(cfg, key)
        require(val is None or 0 < val < math.inf,
                f"line {seen.get(key)}: {key} must be finite and positive, got {val}")
    require(0 < cfg.delta < 1, f"line {seen.get('delta')}: delta must lie in (0, 1), got {cfg.delta}")
    for key in ("max_iters", "t_thres"):
        val = getattr(cfg, key)
        require(val is None or val >= 1, f"line {seen.get(key)}: {key} must be >= 1, got {val}")
    if cfg.experiment == "sphere-quadratic":
        require(cfg.diag is not None and len(cfg.diag) >= 2,
                "sphere-quadratic requires 'diag' with at least 2 entries")
    elif cfg.experiment == "kpca":
        require(cfg.k is not None and cfg.k >= 1, "kpca requires 'k' >= 1")
        require((cfg.h_diag is None) != (cfg.h_file is None),
                "kpca requires exactly one of 'h_diag' or 'h_file'")
    elif cfg.experiment == "burer-monteiro":
        require(cfg.dim_d >= 1 and cfg.p >= 2, "burer-monteiro requires dim_d >= 1, p >= 2")
        require(1 <= cfg.block <= cfg.dim_d, "burer-monteiro requires 1 <= block <= dim_d")
    elif cfg.experiment == "verify":
        require(cfg.manifold in ("sphere", "euclidean", "oblique", "grassmann"),
                f"invalid manifold {cfg.manifold!r}")
        for c in cfg.checks:
            require(c == "all" or c in VERIFY_CHECKS, f"unknown check {c!r}")
        require(cfg.n_samples >= 1,
                f"line {seen.get('n_samples')}: n_samples must be >= 1, got {cfg.n_samples}")
        require(all(0 < s < math.inf for s in cfg.scales) and len(set(cfg.scales)) >= 2,
                f"line {seen.get('scales')}: scales must hold at least two distinct "
                f"finite positive values, got {cfg.scales}")
        require(cfg.probe_steps >= 1,
                f"line {seen.get('probe_steps')}: probe_steps must be >= 1, got {cfg.probe_steps}")
        require(cfg.diag is None or cfg.manifold in ("oblique", "grassmann")
                or len(cfg.diag) == cfg.n, f"line {seen.get('diag')}: diag must have n = {cfg.n} "
                f"entries on {cfg.manifold}, got {len(cfg.diag or ())}")
    if cfg.mode == "theory" and cfg.experiment != "verify":
        for key in ("f_gap", "beta", "rho_hat"):
            require(key in seen, f"theory mode requires {key!r}")
    if cfg.experiment in _EXPERIMENT_KEYS and cfg.mode in _MODE_KEYS:
        reads = _RUN_KEYS | _EXPERIMENT_KEYS[cfg.experiment] | _MODE_KEYS[cfg.mode]
        if cfg.a_file is not None:  # the cost matrix is read, not drawn from dim_d and block
            reads -= {"dim_d", "block"}
        for key in sorted(seen.keys() - reads, key=seen.get):
            errors.append(f"line {seen[key]}: " + (
                f"theory mode derives {key!r}, so it takes no override" if key in _OVERRIDES
                else f"a {cfg.mode} {cfg.experiment} run does not read {key!r}"))
    if errors:
        raise ConfigError(errors)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """`parse_config` on the file at `path`, with a relative `a_file` or
    `h_file` read from the config file's directory."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    for key in ("a_file", "h_file"):
        if (name := getattr(cfg, key)) is not None:
            setattr(cfg, key, os.path.join(os.path.dirname(path), name))
    return cfg


# -- matrix file format: first line "rows cols", then whitespace rows --------

def write_matrix(path: str, m: np.ndarray):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(fmt(float(v)) for v in row) + "\n")


def read_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'rows cols' header")
    rows, cols = int(tokens[0]), int(tokens[1])
    data = tokens[2:]
    if len(data) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, found {len(data)}")
    m = np.array([float(t) for t in data]).reshape(rows, cols)
    if not np.isfinite(m).all():
        raise ValueError(f"{path}: non-finite entry")
    return m


# -- problem construction -----------------------------------------------------

def burer_monteiro_instance(dim_d: int, p: int, block: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Cost matrix with a random symmetric upper-left block and zeros elsewhere."""
    a = np.zeros((dim_d, dim_d))
    g = rng.standard_normal((block, block))
    a[:block, :block] = (g + g.T) / 2.0
    return a


def burer_monteiro_start(dim_d: int, p: int) -> np.ndarray:
    """Feasible block start: with q = dim_d // p, rows jq..jq+q-1 of column j
    are 1 (0-indexed), and the last column also takes the remaining rows."""
    if p > dim_d:
        raise ValueError(f"burer-monteiro needs p <= dim_d, got p = {p} > dim_d = {dim_d}")
    y0 = np.zeros((dim_d, p))
    rows_per_col = dim_d // p
    for i in range(dim_d):
        y0[i, min(i // rows_per_col, p - 1)] = 1.0
    return y0


def _build_problem(cfg: ExperimentConfig, rng_data: np.random.Generator):
    """Objective, start point and experiment-specific audit data."""
    extras: dict = {}
    if cfg.experiment == "sphere-quadratic":
        obj = DiagonalQuadratic(cfg.diag)
        man = obj.manifold
        if cfg.x0 is None:
            coords = np.zeros(man.n)
            coords[0] = 1.0
        elif cfg.x0 == "random":
            coords = man.random_point(rng_data).coords
        else:
            coords = man._as_ambient(_parse_list(_parse_finite, cfg.x0), "x0 of shape")
        x0 = Point(man, coords)
    elif cfg.experiment == "kpca":
        h = np.diag(cfg.h_diag) if cfg.h_diag is not None else read_matrix(cfg.h_file)
        obj = KPCA(h, cfg.k)
        man = obj.manifold
        n = man.n
        cols = cfg.x0_cols if cfg.x0_cols is not None else list(range(1, cfg.k + 1))
        if len(cols) != cfg.k or any(not 0 <= c < n for c in cols):
            raise ValueError(f"x0_cols must be {cfg.k} column indices in [0, {n})")
        x0 = Point(man, np.eye(n)[:, cols])
        w, v = np.linalg.eigh(h)
        extras["target_span"] = v[:, np.argsort(w)[::-1][:cfg.k]]
    elif cfg.experiment == "burer-monteiro":
        a = read_matrix(cfg.a_file) if cfg.a_file else \
            burer_monteiro_instance(cfg.dim_d, cfg.p, cfg.block, rng_data)
        obj = BurerMonteiro(a, cfg.p)
        x0 = Point(obj.manifold, burer_monteiro_start(a.shape[0], cfg.p))
        extras["f0"], g0 = obj.value_and_rgrad(x0)
        extras["grad0_norm"] = g0.norm()
    else:
        raise ValueError(f"not an optimization experiment: {cfg.experiment}")
    feas = obj.manifold.feasibility_residual(x0.coords)
    if not feas <= 1e-8:
        raise ValueError(f"initial point infeasible: residual {feas:.3e} > 1e-08")
    return obj, x0, extras


def _thresholds_for(cfg: ExperimentConfig, obj, x0,
                    rng_smooth: np.random.Generator) -> tuple[ThresholdSet, dict]:
    geom = obj.manifold.geometry()
    inj = geom.injectivity_radius
    info: dict = {}
    beta_hat, rho_hat = cfg.beta, cfg.rho_hat
    if beta_hat is None or rho_hat is None:
        radius = min(0.5, inj / 4.0)
        est = estimate_smoothness(obj, x0, radius, 12, rng_smooth)
        info["beta_estimated"] = est.beta_hat
        info["rho_estimated"] = est.rho_hat
        if beta_hat is None:
            beta_hat = max(est.beta_hat, 1e-8)
        if rho_hat is None:
            rho_hat = max(est.rho_hat, 1e-8)
    info["beta_hat"] = beta_hat
    info["rho_hat"] = rho_hat
    if cfg.mode == "theory":
        params = AssumptionParams(
            beta=beta_hat, rho=rho_hat, epsilon=cfg.epsilon, delta=cfg.delta, f_gap=cfg.f_gap,
            dim_d=geom.dimension, injectivity=inj)
        thr = derive_thresholds(params)
    else:
        thr = practical_thresholds(
            beta_hat, rho_hat, cfg.epsilon, dim_d=geom.dimension, delta=cfg.delta,
            eta=cfg.eta, r=cfg.r, g_thres=cfg.g_thres, f_thres=cfg.f_thres,
            t_thres=cfg.t_thres)
    return thr, info


@dataclass
class ExperimentOutcome:
    exit_code: int
    out_dir: str | None
    status: str | None = None
    classification: str | None = None
    summary: dict = field(default_factory=dict)
    run_result: RunResult | None = None
    reports: list = field(default_factory=list)
    thresholds: ThresholdSet | None = None
    messages: list[str] = field(default_factory=list)


# distinct trace rows whose formatted fields `write_trace_csv` keeps
_TRACE_ROWS_KEPT = 64


def write_trace_csv(path: str, result: RunResult):
    """One line per step.  A row with the bits of one of the last
    `_TRACE_ROWS_KEPT` distinct rows (a run that cycles repeats its rows) is
    formatted once; keying on bits keeps +0.0 apart from -0.0."""
    tr = result.trace
    bits = [memoryview(c).cast("B").cast("Q") for c in (tr.f, tr.gradnorm, tr.step_norm)]
    kept: dict = {}

    def lines():
        yield "t,f,gradnorm,step_norm,perturbed\n"
        for t, key in enumerate(zip(*bits, tr.perturbed)):
            row = kept.get(key)
            if row is None:
                if len(kept) >= _TRACE_ROWS_KEPT:
                    del kept[next(iter(kept))]
                row = kept[key] = (f"{fmt(tr.f[t])},{fmt(tr.gradnorm[t])},"
                                   f"{fmt(tr.step_norm[t])},{fmt(bool(key[3]))}\n")
            yield f"{t},{row}"

    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines())


def write_summary(path: str, summary: dict):
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in summary.items():
            fh.write(f"{key} = {fmt(val)}\n")


def _seed_streams(seed: int) -> list[np.random.Generator]:
    """The four generators of a run, in order: data, smoothness estimate,
    PRGD run and eigensolver."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]


def _resolve_seed(cfg: ExperimentConfig, seed: int | None) -> int:
    """The override if given, else the config's seed; raises ValueError
    unless it is >= 0."""
    seed = cfg.seed if seed is None else seed
    if seed is None or seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   seed: int | None = None) -> ExperimentOutcome:
    """Run one experiment (or the verification suite) and write its artifacts.

    Exit code 0 means the run completed and, for optimization experiments,
    the returned point classified as second-order (for verify: all checks
    passed); 1 means non-convergence or a failed check; 2 a config or data
    problem.
    """
    try:
        seed = _resolve_seed(cfg, seed)
    except ValueError as exc:
        return ExperimentOutcome(EXIT_CONFIG, None, messages=[str(exc)])
    out = out_dir or cfg.out_dir or f"out-{cfg.experiment}"
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        return ExperimentOutcome(EXIT_CONFIG, None,
                                 messages=[f"output directory not writable: {exc}"])

    if cfg.experiment == "verify":
        return _run_verify(cfg, out, seed)

    rng_data, rng_smooth, rng_run, rng_eig = _seed_streams(seed)
    try:
        obj, x0, extras = _build_problem(cfg, rng_data)
    except (ValueError, OSError) as exc:
        return ExperimentOutcome(EXIT_CONFIG, out, messages=[f"problem setup failed: {exc}"])

    try:
        thr, thr_info = _thresholds_for(cfg, obj, x0, rng_smooth)
    except ValueError as exc:
        return ExperimentOutcome(EXIT_CONFIG, out, messages=[f"threshold setup failed: {exc}"])

    result = run(obj, x0, thr, cfg.max_iters, rng_run)
    lam, _ = min_hess_eig(obj, result.final_point, 1e-3, rng_eig)
    label = classify_stationarity(result.final_gradnorm, lam, cfg.epsilon,
                                  thr_info["rho_hat"])

    summary = {
        "experiment": cfg.experiment,
        "mode": cfg.mode,
        "seed": seed,
        "status": result.status,
        "iterations": result.iterations,
        "final_f": result.final_f,
        "final_gradnorm": result.final_gradnorm,
        "lambda_min": lam,
        "classification": label,
        "epsilon": cfg.epsilon,
        "beta_hat": thr_info["beta_hat"],
        "rho_hat": thr_info["rho_hat"],
        "eta": thr.eta,
        "r": thr.r,
        "g_thres": thr.g_thres,
        "f_thres": thr.f_thres,
        "t_thres": thr.t_thres,
    }
    if cfg.experiment == "kpca":
        ang = principal_angles(result.final_point.coords, extras["target_span"])
        summary["principal_angle_max"] = float(np.max(ang))
    if cfg.experiment == "burer-monteiro":
        summary["f0"] = extras["f0"]
        summary["grad0_norm"] = extras["grad0_norm"]
        summary["decrease"] = extras["f0"] - result.final_f

    write_trace_csv(os.path.join(out, "trace.csv"), result)
    write_summary(os.path.join(out, "summary.txt"), summary)
    write_matrix(os.path.join(out, "final_point.txt"),
                 np.atleast_2d(result.final_point.coords))

    completed = result.status == STATUS_SECOND_ORDER
    code = EXIT_OK if (completed and label == "second-order") else EXIT_NOT_CONVERGED
    return ExperimentOutcome(code, out, status=result.status, classification=label,
                             summary=summary, run_result=result, thresholds=thr)


def _verify_manifold(cfg: ExperimentConfig):
    if cfg.manifold == "sphere":
        return Sphere(cfg.n)
    if cfg.manifold == "euclidean":
        return Euclidean(cfg.n)
    if cfg.manifold == "oblique":
        return Oblique(cfg.dim_d, cfg.p)
    return Grassmann(cfg.n, cfg.k if cfg.k is not None else 1)


def _run_verify(cfg: ExperimentConfig, out: str, seed: int) -> ExperimentOutcome:
    try:
        man = _verify_manifold(cfg)
    except ValueError as exc:
        return ExperimentOutcome(EXIT_CONFIG, out, messages=[f"problem setup failed: {exc}"])
    wanted = list(VERIFY_CHECKS) if "all" in cfg.checks else list(cfg.checks)
    ss = np.random.SeedSequence(seed)
    streams = {name: np.random.default_rng(s)
               for name, s in zip(VERIFY_CHECKS, ss.spawn(len(VERIFY_CHECKS)))}
    reports = []
    messages = []
    all_pass = True

    diag = np.asarray(cfg.diag if cfg.diag is not None else [1.0, -1.0, 4.0])
    obj = DiagonalQuadratic(diag, man) if diag.shape == man.shape else None  # sphere or flat space
    if obj is not None:
        # the one beta of the descent audit and the coupling probe: x^T D x has Riemannian
        # Hessian 2 P (D - f(x) I) P on the sphere and 2 D on flat space
        spread = np.ptp(diag) if isinstance(man, Sphere) else np.max(np.abs(diag))
        beta_hat = max(2 * float(spread), 1e-8)
        saddle = _first_saddle(obj, man)

    n = cfg.n_samples
    scales = cfg.scales
    # looked up on the module at call time, so wrappers installed on
    # geoverify.check_* see every call
    single = {
        "two-step": lambda rng: geoverify.check_two_step(man, n, scales, rng),
        "log-bilipschitz": lambda rng: geoverify.check_log_bilipschitz(man, n, scales, rng),
        "transport-contraction": lambda rng: geoverify.check_transport_contraction(man, n, rng),
        "holonomy": lambda rng: geoverify.check_holonomy(man, n, scales, rng),
        "gradient-taylor": lambda rng: geoverify.check_gradient_taylor(obj, man, n, scales, rng),
    }
    for name in wanted:
        rng = streams[name]
        if name in ("descent", "linearization", "gradient-taylor", "coupling") and obj is None:
            messages.append(f"{name}: skipped (needs a quadratic objective on sphere/euclidean)")
        elif name in single:
            reports.append(single[name](rng))
        elif name == "descent":
            center = man.random_point(rng)
            rep = geoverify.check_descent(obj, (center, 1.0), n, 0.9 / beta_hat, rng)
            rep.details["beta_hat"] = beta_hat
            reports.append(rep)
            neg = geoverify.check_descent(obj, (center, 1.0), n, 10.0 / beta_hat, rng)
            neg.lemma_id = "descent-negative-control"
            neg.passed = not neg.passed  # the control must produce violations
            neg.details["beta_hat"] = beta_hat
            reports.append(neg)
        elif saddle is None:  # linearization, coupling
            messages.append(f"{name}: skipped (no exact saddle for this diagonal)")
        elif name == "linearization":
            reports.append(geoverify.check_linearization(obj, man, saddle, n, scales, 0.05, rng))
        else:
            try:
                thr = practical_thresholds(beta_hat, beta_hat, cfg.epsilon,
                                           dim_d=man.geometry().dimension)
                probe = geoverify.coupling_probe(obj, man, saddle, thr, cfg.mu,
                                                 cfg.probe_steps, rng)
                with open(os.path.join(out, "report_coupling.txt"), "w", encoding="utf-8") as fh:
                    fh.write(render_coupling(probe))
                ok = probe.frac_growth_ok >= 0.9 and len(probe.ratios) > 0
                messages.append(f"coupling: {'PASS' if ok else 'FAIL'} "
                                f"(growth fraction {probe.frac_growth_ok:.3f})")
                all_pass = all_pass and ok
            except ValueError as exc:
                messages.append(f"coupling: skipped ({exc})")

    for rep in reports:
        with open(os.path.join(out, f"report_{rep.lemma_id}.txt"), "w", encoding="utf-8") as fh:
            fh.write(geoverify.render_report(rep))
        all_pass = all_pass and rep.passed
    code = EXIT_OK if all_pass else EXIT_NOT_CONVERGED
    return ExperimentOutcome(code, out, status="verify",
                             classification="all-pass" if all_pass else "failures",
                             reports=reports, messages=messages)


def _first_saddle(obj, man):
    """Standard basis vector that is a strict saddle on the sphere, if any."""
    if not isinstance(man, Sphere):
        return None
    diag = obj.diag
    for i in range(diag.size):
        if np.any(diag < diag[i]) and np.any(diag > diag[i]):
            coords = np.zeros(diag.size)
            coords[i] = 1.0
            return Point(man, coords)
    return None


def render_coupling(p) -> str:
    lines = [
        f"mu = {fmt(p.mu)}",
        f"lambda_min = {fmt(p.lambda_min)}",
        f"growth_threshold = {fmt(p.growth_threshold)}",
        f"frac_growth_ok = {fmt(p.frac_growth_ok)}",
        f"escape_t = {p.escape_t if p.escape_t is not None else 'none'}",
        f"stop_reason = {p.stop_reason}",
        f"max_dist_from_start = {fmt(p.max_dist_from_start)}",
        f"dist_budget = {fmt(p.dist_budget)}",
        "t psi phi",
    ]
    for t, (ps, ph) in enumerate(zip(p.psi, p.phi)):
        lines.append(f"{t} {fmt(ps)} {fmt(ph)}")
    return "\n".join(lines) + "\n"


def describe_thresholds(cfg: ExperimentConfig, seed: int | None = None) -> str:
    """Full derivation printout of the threshold set for audit."""
    seed = _resolve_seed(cfg, seed)
    rng_data, rng_smooth, _, _ = _seed_streams(seed)
    obj, x0, _ = _build_problem(cfg, rng_data)
    thr, info = _thresholds_for(cfg, obj, x0, rng_smooth)
    lines = [f"mode = {thr.mode}", f"seed = {seed}"]
    for key in ("beta_estimated", "rho_estimated", "beta_hat", "rho_hat"):
        if key in info:
            lines.append(f"{key} = {fmt(info[key])}")
    lines.append(f"epsilon = {fmt(cfg.epsilon)}")
    lines.append(f"delta = {fmt(cfg.delta)}")
    for f_ in fields(thr)[:-1]:  # every field but `mode`, which ends the printout
        lines.append(f"{f_.name} = {fmt(getattr(thr, f_.name))}")
    lines.append(f"injectivity = {fmt(obj.manifold.geometry().injectivity_radius)}")
    lines.append(f"mode = {thr.mode}")
    return "\n".join(lines) + "\n"
