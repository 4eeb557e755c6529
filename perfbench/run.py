#!/usr/bin/env python3
"""geodescent benchmark: seed sweeps of `harness.run_experiment` on the
shipped configs, end to end or traced layer by layer.

    python3 perfbench/run.py --workload bm-oblique --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One process drives the runs back to back (a closed loop with one caller).
The number of runs follows from `--seconds` and each run's seed is drawn from
the workload seed, so the same `--seed` and `--seconds` give the same runs.
The plain run (`--trace 0`) reports the end-to-end metrics; the traced run
(`--trace 1`) pairs every traced run with a plain run of the same seed and
reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line is one JSON object.  Spans
and a full record with per-run fingerprints go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import (MANIFOLDS, MAPS, VERIFY_CHECKS, LayerStats, StepClock, Tracer, aggregate,
                    count_inside, instrument)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Why each workload is here: see README.md in this directory.
WORKLOADS = {
    "bm-oblique": "burer-monteiro.cfg",
    "kpca-grassmann": "kpca.cfg",
    "verify-sphere": "verify.cfg",
}
# Typical seconds per run on 2 vCPUs.  A sweep makes a fixed number of runs,
# round(seconds / cost), so the same --seed and --seconds give the same runs
# and the same failures however fast the host is at the moment.
RUN_COST_S = {"bm-oblique": 8.0, "kpca-grassmann": 1.7, "verify-sphere": 4.0}
SETUP_REPEATS = 7
# us_per_iter is the FAST_PCT-th percentile of the cost per iteration over
# blocks of BLOCK_STEPS prgd steps (or over the calls of one lemma check).
BLOCK_STEPS = 64
FAST_PCT = 2
KPCA_F_TARGET = -4.5 + 1e-6
KPCA_ANGLE_TOL = 1e-3

# Bounded metrics must be steady from one workload seed to the next.  Run
# time and iterations per run are not: on bm-oblique one instance takes 20k
# iterations and the next 50k, and a sweep holds 3 runs.  They are printed
# with their sample counts (and reported per layer by the traced run), but
# are not bounded.
END_TO_END = [
    ("setup_s", "s"),
    ("us_per_iter", "us"),
    ("peak_rss_mb", "MB"),
]


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"manifolds.{m}.{op}.{kind}", unit)
             for m in MANIFOLDS for op in MAPS
             for kind, unit in (("calls", "count"), ("self_us", "us"))]
    names += [(f"objectives.{op}.{kind}", unit)
              for op in ("value", "rgrad", "hvp")
              for kind, unit in (("calls", "count"), ("self_us", "us"))]
    names += [("objectives.estimate_smoothness.s", "s"), ("objectives.min_hess_eig.s", "s"),
              ("objectives.min_hess_eig.hvp_calls", "count"),
              ("optimizer.iters.p50", "count"),
              ("optimizer.t_thres", "count"), ("optimizer.perturbations", "count"),
              ("optimizer.window_frac", "ratio"), ("optimizer.run.s", "s"),
              ("optimizer.run.dist_share", "ratio"),
              ("optimizer.prgd_step.calls", "count"), ("optimizer.prgd_step.self_us", "us"),
              ("harness.write_trace_csv.s", "s"), ("harness.trace_rows", "count"),
              ("harness.run_experiment.s", "s"), ("harness.run_experiment.self_s", "s")]
    names += [(f"verify.{check}.s", "s") for check in VERIFY_CHECKS]
    names += [("trace.overhead_frac", "ratio"), ("trace.unaccounted_frac", "ratio")]
    return names


# -- statistics -----------------------------------------------------------

def tail_percentile(n: int) -> int | None:
    """Highest whole percentile above the median with at least ten of `n`
    samples beyond it, by nearest rank (the p-th percentile is the
    ceil(p*n/100)-th smallest sample).  None when no such percentile exists,
    which is the case for n < 21."""
    for p in range(99, 50, -1):
        if n - -(-p * n // 100) >= 10:
            return p
    return None


def percentile(samples, p: int) -> float:
    ordered = sorted(samples)
    return ordered[max(-(-p * len(ordered) // 100), 1) - 1]


def fast_cost(segments) -> float:
    """Seconds per unit of work from `(kind, seconds, units)` segments.

    Per kind, the FAST_PCT-th percentile of seconds / units over its
    segments, weighted by the kind's share of all units.  A low percentile
    of short segments is the cost when the shared host is not slowing the
    process down, which it does for seconds at a time by up to 2x.
    """
    by_kind: dict[str, list[tuple[float, int]]] = {}
    for kind, seconds, units in segments:
        if units > 0:
            by_kind.setdefault(kind, []).append((seconds, units))
    total = sum(u for segs in by_kind.values() for _, u in segs)
    return sum(percentile([s / u for s, u in segs], FAST_PCT) * sum(u for _, u in segs)
               for segs in by_kind.values()) / total


def timing_summary(samples) -> dict:
    p = tail_percentile(len(samples))
    return {"n": len(samples), "p50": statistics.median(samples), "tail_pct": p,
            "tail": percentile(samples, p) if p is not None else None}


# -- output checks ----------------------------------------------------------

def check_outcome(workload: str, outcome) -> dict:
    """Operations attempted and failed in one run, and integrity problems.

    A failed operation ran cleanly but missed its success criterion; it is
    counted, not fatal.  A problem (exit code 2, a missing artifact, an exit
    code that disagrees with the outputs) means the outputs cannot be trusted
    and makes the benchmark report `correct: false`.
    """
    problems: list[str] = []
    failures: list[str] = []
    code = outcome.exit_code
    if code not in (0, 1):
        problems.append(f"exit code {code}: {'; '.join(outcome.messages)}")
    if workload == "verify-sphere":
        return _check_verify(outcome, problems, failures)
    summary = outcome.summary
    if not summary:
        problems.append("no summary")
        return {"attempted": 1, "failed": 1, "problems": problems, "failures": ["no summary"]}
    certified = (outcome.status == "second-order-point"
                 and outcome.classification == "second-order")
    if (code == 0) != certified:
        problems.append(f"exit code {code} but status {outcome.status}, "
                        f"classification {outcome.classification}")
    if code != 0:
        failures.append(f"exit code {code}")
    if workload == "kpca-grassmann":
        if not summary["final_f"] <= KPCA_F_TARGET:
            failures.append(f"final_f {summary['final_f']!r} > {KPCA_F_TARGET!r}")
        if not summary["principal_angle_max"] <= KPCA_ANGLE_TOL:
            failures.append(f"principal_angle_max {summary['principal_angle_max']!r}")
    else:
        if outcome.classification != "second-order":
            failures.append(f"classification {outcome.classification}")
        if not summary["decrease"] > 0:
            failures.append(f"decrease {summary['decrease']!r}")
    return {"attempted": 1, "failed": int(bool(failures)), "problems": problems,
            "failures": failures}


VERIFY_OPS = ("descent", "two-step", "log-bilipschitz", "transport-contraction",
              "holonomy", "linearization", "gradient-taylor", "coupling")


def _check_verify(outcome, problems, failures) -> dict:
    """One operation per lemma check; descent passes only with its negative
    control, and the coupling probe passes by the verdict the suite prints."""
    passed = {op: None for op in VERIFY_OPS}
    for rep in outcome.reports:
        op = "descent" if rep.lemma_id == "descent-negative-control" else rep.lemma_id
        if op not in passed:
            problems.append(f"unexpected report {rep.lemma_id}")
            continue
        passed[op] = bool(rep.passed) and passed[op] is not False
    verdicts = [m for m in outcome.messages if m.startswith("coupling:")]
    passed["coupling"] = bool(verdicts) and verdicts[0].startswith("coupling: PASS")
    for op, ok in passed.items():
        if not ok:
            failures.append(f"{op}: {'missing' if ok is None else 'FAIL'}")
    if (outcome.exit_code == 0) != all(passed.values()):
        problems.append(f"exit code {outcome.exit_code} disagrees with the check verdicts")
    return {"attempted": len(VERIFY_OPS), "failed": len(failures), "problems": problems,
            "failures": failures}


def fingerprint(out_dir: Path) -> tuple[str, dict]:
    """SHA-256 of each deterministic artifact and one digest over them all."""
    names = ["trace.csv", "summary.txt", "final_point.txt"]
    names += sorted(p.name for p in out_dir.glob("report_*.txt"))
    files = {}
    for name in names:
        path = out_dir / name
        if path.exists():
            files[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    combined = hashlib.sha256("".join(f"{k}:{v}\n" for k, v in files.items()).encode())
    return combined.hexdigest(), files


def combine(digests) -> str:
    return hashlib.sha256("".join(d + "\n" for d in digests).encode()).hexdigest()


# -- one run ----------------------------------------------------------------

def run_seeds(workload: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2 ** 31) for _ in range(n)]


def run_count(workload: str, seconds: float, per_seed: int = 1) -> int:
    """Run seeds in a sweep of about `seconds`, each run `per_seed` times."""
    return max(1, round(seconds / (per_seed * RUN_COST_S[workload])))


def coupling_steps(out_dir: Path) -> int:
    path = out_dir / "report_coupling.txt"
    if not path.exists():
        return 0
    lines = path.read_text().splitlines()
    return len(lines) - lines.index("t psi phi") - 1


def one_run(harness, workload: str, cfg, run_seed: int, out_dir: Path) -> dict:
    """One `run_experiment` call, timed, checked and fingerprinted."""
    t0 = time.perf_counter()
    try:
        outcome = harness.run_experiment(cfg, out_dir=str(out_dir), seed=run_seed)
    except Exception:  # a crash is a result to report, not a reason to stop
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        ops = len(VERIFY_OPS) if workload == "verify-sphere" else 1
        return {"run_seed": run_seed, "wall_s": wall, "attempted": ops, "failed": ops,
                "problems": ["exception"], "failures": ["exception"], "digest": None,
                "files": {}, "iterations": 0, "loop_s": wall}
    wall = time.perf_counter() - t0
    rec = {"run_seed": run_seed, "wall_s": wall, **check_outcome(workload, outcome)}
    rec["digest"], rec["files"] = fingerprint(out_dir)
    if outcome.exit_code in (0, 1):
        expected = [f"report_{r.lemma_id}.txt" for r in outcome.reports] or \
            ["trace.csv", "summary.txt", "final_point.txt"]
        rec["problems"] += [f"missing {name}" for name in expected if name not in rec["files"]]
    result = outcome.run_result
    if result is not None:
        rows = result.trace.rows
        first = next((r.t for r in rows if r.perturbed), None)
        rec.update(iterations=result.iterations, loop_s=result.trace.wall_time,
                   t_thres=outcome.thresholds.t_thres,
                   perturbations=sum(1 for r in rows if r.perturbed),
                   window_iters=0 if first is None else len(rows) - first,
                   trace_rows=len(rows))
    else:
        # verify: one iteration is one sampled configuration of a lemma
        # check or one step of the coupling probe
        rec.update(iterations=sum(r.n_samples for r in outcome.reports)
                   + coupling_steps(out_dir), loop_s=wall)
    shutil.rmtree(out_dir, ignore_errors=True)
    return rec


# -- set-up time --------------------------------------------------------------

SETUP_CODE = r"""
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import geodescent
from geodescent import harness
cfg = harness.load_config(sys.argv[2])
if cfg.experiment == "burer-monteiro":
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[0])
    a = harness.burer_monteiro_instance(cfg.dim_d, cfg.p, cfg.block, rng)
    obj = geodescent.BurerMonteiro(a, cfg.p)
    x0 = obj.manifold.point(harness.burer_monteiro_start(cfg.dim_d, cfg.p))
elif cfg.experiment == "kpca":
    obj = geodescent.KPCA(np.diag(cfg.h_diag), cfg.k)
    x0 = obj.manifold.point(np.eye(len(cfg.h_diag))[:, 1:cfg.k + 1])
else:
    obj = geodescent.DiagonalQuadratic(cfg.diag, geodescent.Sphere(cfg.n))
    x0 = obj.manifold.point(np.eye(cfg.n)[0])
obj.value(x0)
"""


def setup_once(cfg_path: Path) -> float:
    """Fresh interpreter: import geodescent, parse the config, build the
    first problem.  Wall time from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(cfg_path)],
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return wall


# -- context ----------------------------------------------------------------

def blas_threads() -> int | None:
    import ctypes

    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_context() -> dict:
    import numpy as np
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    try:
        blas_version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        blas_version = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "geodescent").glob("*.py")))
    return {"git_sha": sha, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": blas_version,
            "blas_threads": blas_threads(), "src_lines": src_lines,
            "loop": "closed, one caller"}


# -- sweeps -------------------------------------------------------------------

def plain_sweep(harness, workload, cfg, cfg_path, seed, seconds, work) -> tuple[dict, dict]:
    setup = [setup_once(cfg_path) for _ in range(SETUP_REPEATS)]
    runs = []
    clock = StepClock(BLOCK_STEPS)
    with clock.installed():
        for i, rs in enumerate(run_seeds(workload, seed, run_count(workload, seconds))):
            before = len(clock.segments)
            runs.append(one_run(harness, workload, cfg, rs, work / f"run{i}"))
            clock.end_run()
            if len(clock.segments) == before:
                # nothing reached the clock's hooks: fall back to the whole run
                clock.segments.append(("run", runs[-1]["loop_s"], runs[-1]["iterations"]))
    iters = [r["iterations"] for r in runs]
    metrics = {
        "setup_s": statistics.median(setup),
        "us_per_iter": 1e6 * fast_cost(clock.segments),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"runs": runs, "setup_samples": setup,
              "run_s": timing_summary([r["wall_s"] for r in runs]),
              "iters.p50": statistics.median(iters),
              "us_per_iter.mean": 1e6 * sum(r["loop_s"] for r in runs) / max(sum(iters), 1),
              "samples": {"setup_s": len(setup), "us_per_iter": len(clock.segments),
                          "peak_rss_mb": 1}}
    return metrics, detail


def traced_sweep(harness, workload, cfg, seed, seconds, work) -> tuple[dict, dict]:
    tracer = Tracer()
    plain, traced = [], []
    # each seed runs twice, and the traced run is about 10% slower
    for i, rs in enumerate(run_seeds(workload, seed, run_count(workload, seconds / 1.1, 2))):
        order = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
        for kind in order:
            if kind == "plain":
                plain.append(one_run(harness, workload, cfg, rs, work / f"plain{i}"))
            else:
                tracer.run_id = i
                with instrument(tracer):
                    traced.append(one_run(harness, workload, cfg, rs, work / f"traced{i}"))
        if plain[-1]["digest"] != traced[-1]["digest"]:
            traced[-1]["problems"].append("traced outputs differ from the plain run's")

    stats = aggregate(tracer)
    n = len(traced)

    def st(name):
        return stats.get(name, LayerStats())

    metrics = {}
    for prefix in [f"manifolds.{m}.{op}" for m in MANIFOLDS for op in MAPS] + \
            [f"objectives.{op}" for op in ("value", "rgrad", "hvp")] + ["optimizer.prgd_step"]:
        s = st(prefix)
        metrics[f"{prefix}.calls"] = s.calls / n
        metrics[f"{prefix}.self_us"] = 1e6 * s.self_s / s.calls if s.calls else 0.0
    hvp_in_eig, _ = count_inside(tracer, lambda nm: nm == "objectives.hvp",
                                 "objectives.min_hess_eig")
    _, dist_in_run = count_inside(tracer, lambda nm: nm.endswith(".dist"), "optimizer.run")
    loops = [r for r in traced if "t_thres" in r]
    run_s = st("optimizer.run").incl_s
    metrics.update({
        "objectives.estimate_smoothness.s": st("objectives.estimate_smoothness").incl_s / n,
        "objectives.min_hess_eig.s": st("objectives.min_hess_eig").incl_s / n,
        "objectives.min_hess_eig.hvp_calls": hvp_in_eig / n,
        "optimizer.iters.p50": statistics.median(r["iterations"] for r in loops) if loops else 0,
        "optimizer.t_thres": statistics.median(r["t_thres"] for r in loops) if loops else 0,
        "optimizer.perturbations": sum(r["perturbations"] for r in loops) / n,
        "optimizer.window_frac": (sum(r["window_iters"] for r in loops)
                                  / max(sum(r["iterations"] for r in loops), 1)),
        "optimizer.run.s": run_s / n,
        "optimizer.run.dist_share": dist_in_run / run_s if run_s else 0.0,
        "harness.write_trace_csv.s": st("harness.write_trace_csv").incl_s / n,
        "harness.trace_rows": sum(r.get("trace_rows", 0) for r in traced) / n,
        "harness.run_experiment.s": st("harness.run_experiment").incl_s / n,
        "harness.run_experiment.self_s": st("harness.run_experiment").self_s / n,
    })
    for check in VERIFY_CHECKS:
        metrics[f"verify.{check}.s"] = st(f"verify.{check}").incl_s / n
    traced_wall = sum(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = traced_wall / sum(r["wall_s"] for r in plain) - 1.0
    metrics["trace.unaccounted_frac"] = \
        (traced_wall - sum(s.self_s for s in stats.values())) / traced_wall

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.csv.gz"
    tracer.write_csv_gz(str(spans))
    detail = {"runs": plain + traced, "traced_runs": n, "spans": len(tracer),
              "spans_file": str(spans.relative_to(ROOT)),
              "samples": {name: n for name, _ in per_layer_names()}}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    cfg_path = ROOT / "configs" / WORKLOADS[args.workload]
    if not (ROOT / "src" / "geodescent" / "__init__.py").exists() or not cfg_path.exists():
        print(f"error: {ROOT} is not a geodescent checkout (needs src/geodescent and "
              f"{cfg_path.relative_to(ROOT)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from geodescent import harness

    cfg = harness.load_config(str(cfg_path))
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        # The first run in a process is slower (lazy imports, cold allocator
        # and interpreter caches); warm those up on a short run, untimed.
        harness.run_experiment(dataclasses.replace(cfg, max_iters=500, n_samples=50),
                               out_dir=str(work / "warmup"), seed=args.seed)
        if args.trace:
            metrics, detail = traced_sweep(harness, args.workload, cfg, args.seed,
                                           args.seconds, work)
            units = dict(per_layer_names())
        else:
            metrics, detail = plain_sweep(harness, args.workload, cfg, cfg_path, args.seed,
                                          args.seconds, work)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = detail["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    digests = [r["digest"] for r in runs if r["digest"]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": run_context(), "metrics": metrics,
              "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
              "problems": problems, "combined_digest": combine(digests), **detail}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]} "
              f"(n={detail['samples'][name]})")
    if not args.trace:
        t = detail["run_s"]
        tail = f"p{t['tail_pct']} = {t['tail']:.6g} s" if t["tail_pct"] else \
            f"n/a (needs 21 runs)"
        print(f"{args.workload} run_s.p50 = {t['p50']:.6g} s, run_s.tail = {tail}, "
              f"iters.p50 = {detail['iters.p50']:.6g}, "
              f"us_per_iter.mean = {detail['us_per_iter.mean']:.6g} us "
              f"(n={t['n']}, not bounded)")
    print(f"{args.workload} fail_frac = {failed}/{attempted}"
          + "".join(f"\n  run {r['run_seed']}: {'; '.join(r['failures'])}"
                    for r in runs if r["failures"]))
    print(f"{args.workload} combined_digest = {record['combined_digest']} "
          f"over {len(digests)} runs")
    for p in problems:
        print(f"{args.workload} PROBLEM: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
