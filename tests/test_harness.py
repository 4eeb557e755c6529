import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from geodescent.cli import main as cli_main
from geodescent.harness import (
    ConfigError,
    ExperimentConfig,
    burer_monteiro_instance,
    burer_monteiro_start,
    describe_thresholds,
    fmt,
    load_config,
    parse_config,
    principal_angles,
    read_matrix,
    run_experiment,
    write_matrix,
)
from geodescent.optimizer import TraceRow, practical_thresholds

MINIMAL_SPHERE = """
experiment = sphere-quadratic
seed = 7
diag = 1, -1, 4
epsilon = 1e-4
"""

VERIFY_TWO_STEP = "experiment = verify\nseed = 7\nchecks = two-step\n"
VERIFY_COUPLING = "experiment = verify\nseed = 7\nchecks = coupling\nprobe_steps = 50\n"
BM_P_ABOVE_DIM_D = "experiment = burer-monteiro\nseed = 7\ndim_d = 3\np = 5\nblock = 2\n"
NAN_MATRIX = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "nan_entry.txt")
NO_HEADER_MATRIX = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "no_header.txt")
THEORY_SPHERE = MINIMAL_SPHERE + "mode = theory\nbeta = 8\nrho_hat = 8\nf_gap = 2\n"
OBJECTIVE_CHECKS = ["descent", "linearization", "gradient-taylor", "coupling"]
GEOMETRY_CHECKS = ["two-step", "log-bilipschitz", "transport-contraction", "holonomy"]
THRESHOLD_OVERRIDES = {"eta": "0.5", "r": "1e-3", "g_thres": "1e-4", "f_thres": "1e-8", "t_thres": "7"}


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config(MINIMAL_SPHERE)
        assert cfg.experiment == "sphere-quadratic"
        assert cfg.seed == 7
        assert cfg.diag == [1.0, -1.0, 4.0]

    def test_missing_seed_named(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("experiment = sphere-quadratic\ndiag = 1,-1,4\n")
        assert any("seed" in e for e in exc.value.errors)

    def test_all_errors_reported_with_line_numbers(self):
        text = "experiment = bogus\nwhatkey = 3\nseed = not-a-number\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        errors = exc.value.errors
        assert len(errors) >= 3
        assert any("line 2" in e and "whatkey" in e for e in errors)
        assert any("line 3" in e for e in errors)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL_SPHERE + "seed = 9\n")
        assert any("duplicate" in e for e in exc.value.errors)

    def test_kpca_needs_exactly_one_h_source(self):
        base = "experiment = kpca\nseed = 1\nk = 3\n"
        with pytest.raises(ConfigError):
            parse_config(base)
        with pytest.raises(ConfigError):
            parse_config(base + "h_diag = 0,1,2\nh_file = h.txt\n")
        cfg = parse_config(base + "h_diag = 0,1,2,3,4\n")
        assert cfg.k == 3

    def test_theory_mode_requires_constants(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL_SPHERE + "mode = theory\n")
        joined = " ".join(exc.value.errors)
        assert "f_gap" in joined and "beta" in joined

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# header\n\nexperiment = sphere-quadratic # inline\nseed = 1\ndiag = 1,2\n")
        assert cfg.seed == 1

    def test_load_config_reads_matrix_files_from_the_config_directory(self, tmp_path):
        (tmp_path / "sub").mkdir()
        for text, want in [("h_file = h.txt", str(tmp_path / "sub" / "h.txt")),
                           (f"h_file = {tmp_path / 'h.txt'}", str(tmp_path / "h.txt"))]:
            text = f"experiment = kpca\nseed = 3\nk = 1\n{text}\n"
            (tmp_path / "sub" / "k.cfg").write_text(text)
            assert load_config(str(tmp_path / "sub" / "k.cfg")).h_file == want
            assert parse_config(text).h_file == text.split("= ")[-1].strip()


# field: (valid text, its parsed value, malformed text or None where any
# text is a valid value); the valid texts also pass validation of a verify
# config
SCHEMA_SAMPLES = {
    "experiment": ("verify", "verify", None),
    "seed": ("1e3", 1000, "inf"),
    "mode": ("theory", "theory", None),
    "max_iters": ("2e4", 20000, "1.5"),
    "out_dir": ("out-x", "out-x", None),
    "epsilon": ("2.5e-3", 0.0025, "small"),
    "delta": ("0.2", 0.2, "0.2.1"),
    "beta": ("8", 8.0, "b"),
    "rho_hat": ("4", 4.0, "-"),
    "eta": ("0.05", 0.05, "1/20"),
    "r": ("1e-3", 0.001, "e-3"),
    "g_thres": ("1e-4", 0.0001, "1e-4e"),
    "f_thres": ("1e-8", 1e-08, "x"),
    "t_thres": ("200", 200, "200.5"),
    "f_gap": ("2", 2.0, "2 3"),
    "diag": ("1, -1, 4", [1.0, -1.0, 4.0], "1, -1, x"),
    "x0": ("1, 0, 0", "1, 0, 0", None),
    "k": ("2", 2, "2.5"),
    "h_diag": ("0 1 2", [0.0, 1.0, 2.0], "0, 1, two"),
    "h_file": ("h.txt", "h.txt", None),
    "x0_cols": ("0, 2", [0, 2], "0, 1.5"),
    "dim_d": ("40", 40, "4e-1"),
    "p": ("4", 4, "nan"),
    "block": ("3", 3, "three"),
    "a_file": ("a.txt", "a.txt", None),
    "manifold": ("grassmann", "grassmann", None),
    "n": ("4", 4, "4.25"),
    "checks": ("two-step, holonomy", ["two-step", "holonomy"], None),
    "n_samples": ("1e2", 100, "1e-2"),
    "scales": ("0.2, 0.1", [0.2, 0.1], "0.2, 0.1x"),
    "mu": ("0.5", 0.5, "half"),
    "probe_steps": ("50", 50, "5O"),
}


# a minimal valid config of each run experiment, in practical mode
RUN_CONFIGS = {"sphere-quadratic": MINIMAL_SPHERE.lstrip(),
               "kpca": "experiment = kpca\nseed = 7\nk = 2\nh_diag = 0 1 2\n",
               "burer-monteiro": "experiment = burer-monteiro\nseed = 7\n"}
VERIFY_ONLY_KEYS = ["manifold", "n", "checks", "n_samples", "scales", "mu", "probe_steps"]


class TestUnreadKeys:
    """A run config sets only keys its experiment and mode read, so that no
    key is parsed and then dropped."""

    @pytest.mark.parametrize("experiment, key", [
        *[(e, key) for e in RUN_CONFIGS for key in VERIFY_ONLY_KEYS + ["f_gap"]],
        ("sphere-quadratic", "k"), ("sphere-quadratic", "a_file"), ("kpca", "diag"),
        ("kpca", "x0"), ("kpca", "dim_d"), ("burer-monteiro", "x0"), ("burer-monteiro", "k"),
        ("burer-monteiro", "h_diag")])
    def test_key_the_run_does_not_read_is_an_error(self, experiment, key):
        text = RUN_CONFIGS[experiment] + f"{key} = {SCHEMA_SAMPLES[key][0]}\n"
        parse_config(RUN_CONFIGS[experiment])
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        lineno = text.count("\n")
        assert exc.value.errors == [f"line {lineno}: a practical {experiment} run does not read {key!r}"]

    @pytest.mark.parametrize("key", ["dim_d", "block"])
    def test_a_file_run_does_not_read_the_drawn_instance_keys(self, key):
        """With a_file, a Burer-Monteiro run reads its cost matrix from the
        file: dim_d and block, which size the drawn instance, are not read."""
        text = f"experiment = burer-monteiro\nseed = 7\na_file = a.txt\n{key} = 40\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.errors == [f"line 4: a practical burer-monteiro run does not read {key!r}"]

    @pytest.mark.parametrize("f_gap", ["2", "5"])
    def test_practical_f_gap_exits_2(self, f_gap, tmp_path, capsys):
        """Two practical configs that differed only in f_gap printed the
        same thresholds: practical mode does not read it."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("experiment = sphere-quadratic\nseed = 7\ndiag = 1,-1,4\nbeta = 10\n"
                            f"rho_hat = 10\nf_gap = {f_gap}\n")
        assert cli_main(["thresholds", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert "line 6: a practical sphere-quadratic run does not read 'f_gap'" in captured.err
        assert captured.out == ""


class TestConfigSchema:
    def test_samples_cover_every_field(self):
        assert set(SCHEMA_SAMPLES) == {f.name for f in fields(ExperimentConfig)}

    @pytest.mark.parametrize("name", sorted(SCHEMA_SAMPLES))
    def test_field_parses_to_its_type(self, name):
        text, value, malformed = SCHEMA_SAMPLES[name]
        lines = {"experiment": "verify", "seed": "7", name: text}
        cfg = parse_config("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert repr(getattr(cfg, name)) == repr(value)  # repr tells 1000 from 1000.0
        if malformed is None:
            return
        lines[name] = malformed
        with pytest.raises(ConfigError) as exc:
            parse_config("".join(f"{k} = {v}\n" for k, v in lines.items()))
        lineno = list(lines).index(name) + 1
        assert f"line {lineno}: cannot parse value {malformed!r} for key {name!r}" in exc.value.errors


def test_every_config_key_is_documented():
    """Each config key is named in backticks in README's "Config format"."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### Config format", 1)[1].split("\n### ", 1)[0]
    assert [f.name for f in fields(ExperimentConfig) if f"`{f.name}`" not in section] == []


class TestMatrixIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 3)) * 1e3
        path = str(tmp_path / "m.txt")
        write_matrix(path, m)
        back = read_matrix(path)
        assert np.array_equal(back, m)
        with open(path) as fh:
            assert fh.readline().strip() == "4 3"

    def test_bad_header(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("3 3\n1 2 3\n")
        with pytest.raises(ValueError, match="expected 9 entries"):
            read_matrix(path)


class TestBurerMonteiroPieces:
    def test_start_pattern_matches_block_layout(self):
        y0 = burer_monteiro_start(100, 20)
        # rows 5j-4..5j (1-indexed) carry a 1 in column j
        for j in range(20):
            for i in range(5 * j, 5 * j + 5):
                assert y0[i, j] == 1.0
        assert np.all(np.sum(y0, axis=1) == 1.0)
        assert np.allclose(np.linalg.norm(y0, axis=1), 1.0)

    def test_instance_symmetric_block_only(self):
        a = burer_monteiro_instance(100, 20, 5, np.random.default_rng(3))
        assert np.array_equal(a, a.T)
        assert np.any(a[:5, :5] != 0)
        assert not np.any(a[5:, :])
        assert not np.any(a[:, 5:])


class TestRunExperiment:
    def test_sphere_quadratic_writes_artifacts(self, tmp_path):
        cfg = parse_config(MINIMAL_SPHERE)
        out = run_experiment(cfg, out_dir=str(tmp_path / "o"))
        assert out.exit_code == 0
        assert out.status == "second-order-point"
        assert out.classification == "second-order"
        trace = (tmp_path / "o" / "trace.csv").read_text().splitlines()
        assert trace[0] == "t,f,gradnorm,step_norm,perturbed"
        assert trace[0] == ",".join(f.name for f in fields(TraceRow))
        assert len(trace) == out.summary["iterations"] + 1
        summary = (tmp_path / "o" / "summary.txt").read_text()
        assert "classification = second-order" in summary
        assert "seed = 7" in summary
        final = read_matrix(str(tmp_path / "o" / "final_point.txt"))
        assert final.shape == (1, 3)

    def test_figure_one_start_is_default(self, tmp_path):
        # default x0 is e1, the exact saddle of the Figure-1 instance
        cfg = parse_config(MINIMAL_SPHERE)
        out = run_experiment(cfg, out_dir=str(tmp_path / "o"))
        assert abs(out.summary["final_f"] - (-1.0)) <= 1e-6

    def test_infeasible_start_exits_2(self, tmp_path):
        cfg = parse_config(MINIMAL_SPHERE + "x0 = 1, 1, 0\n")
        out = run_experiment(cfg, out_dir=str(tmp_path / "o"))
        assert out.exit_code == 2
        assert any("infeasible" in m for m in out.messages)

    def test_iteration_cap_exits_1(self, tmp_path):
        cfg = parse_config(MINIMAL_SPHERE + "max_iters = 5\n")
        out = run_experiment(cfg, out_dir=str(tmp_path / "o"))
        assert out.exit_code == 1
        assert out.status == "iteration-cap"

    def test_bit_identical_reruns(self, tmp_path):
        cfg = parse_config(MINIMAL_SPHERE)
        run_experiment(cfg, out_dir=str(tmp_path / "a"))
        run_experiment(cfg, out_dir=str(tmp_path / "b"))
        for name in ("trace.csv", "summary.txt", "final_point.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_trace(self, tmp_path):
        cfg = parse_config(MINIMAL_SPHERE)
        run_experiment(cfg, out_dir=str(tmp_path / "a"))
        run_experiment(cfg, out_dir=str(tmp_path / "b"), seed=8)
        assert (tmp_path / "a" / "trace.csv").read_bytes() != (tmp_path / "b" / "trace.csv").read_bytes()

    def test_kpca_from_file_with_symmetry_audit(self, tmp_path):
        h = np.diag([0.0, 1.0, 2.0, 3.0, 4.0])
        h_path = str(tmp_path / "h.txt")
        write_matrix(h_path, h)
        cfg = parse_config(f"experiment = kpca\nseed = 3\nk = 3\nh_file = {h_path}\n")
        out = run_experiment(cfg, out_dir=str(tmp_path / "o"))
        assert out.exit_code == 0
        assert out.summary["final_f"] <= -4.5 + 1e-6
        assert out.summary["principal_angle_max"] <= 1e-3

        bad = h.copy()
        bad[0, 1] = 1e-6  # asymmetric beyond the 1e-12 audit
        bad_path = str(tmp_path / "bad.txt")
        write_matrix(bad_path, bad)
        cfg2 = parse_config(f"experiment = kpca\nseed = 3\nk = 3\nh_file = {bad_path}\n")
        out2 = run_experiment(cfg2, out_dir=str(tmp_path / "o2"))
        assert out2.exit_code == 2
        assert any("symmetric" in m for m in out2.messages)

    def test_burer_monteiro_small_instance(self, tmp_path):
        cfg = parse_config(
            "experiment = burer-monteiro\nseed = 5\ndim_d = 12\np = 4\nblock = 3\n"
            "epsilon = 1e-3\n")
        out = run_experiment(cfg, out_dir=str(tmp_path / "o"))
        assert out.summary["grad0_norm"] <= 1e-10
        assert out.exit_code == 0
        assert out.summary["final_f"] < out.summary["f0"] - 1e-3

    def test_verify_mode_writes_reports(self, tmp_path):
        cfg = parse_config(
            "experiment = verify\nseed = 11\nmanifold = sphere\nn = 3\n"
            "n_samples = 120\nchecks = two-step, holonomy\n")
        out = run_experiment(cfg, out_dir=str(tmp_path / "v"))
        assert out.exit_code == 0
        assert {r.lemma_id for r in out.reports} == {"two-step", "holonomy"}
        assert (tmp_path / "v" / "report_two-step.txt").exists()
        assert (tmp_path / "v" / "report_holonomy.txt").exists()

    def test_verify_on_flat_space_passes_every_check(self, tmp_path):
        # the defects vanish up to rounding on Euclidean space, so no check
        # has a slope to fit and none may fail for lack of one
        cfg = parse_config("experiment = verify\nseed = 7\nmanifold = euclidean\nn = 3\n"
                           "n_samples = 200\n")
        out = run_experiment(cfg, out_dir=str(tmp_path / "v"))
        assert out.exit_code == 0
        reports = sorted((tmp_path / "v").glob("report_*.txt"))
        assert len(reports) == len(out.reports) >= 5
        for path in reports:
            assert "passed = true" in path.read_text().splitlines(), path.name

    def test_verify_without_diag_skips_the_objective_checks(self, tmp_path):
        """With no `diag`, a sphere whose n is not 3 has no objective: the four
        objective checks are skipped and the geometric ones still run."""
        cfg = parse_config("experiment = verify\nseed = 7\nmanifold = sphere\nn = 4\n"
                           "n_samples = 50\n")
        out = run_experiment(cfg, out_dir=str(tmp_path / "v"))
        assert out.exit_code == 0
        assert sorted(m.split(":")[0] for m in out.messages if "skipped" in m) == \
            ["coupling", "descent", "gradient-taylor", "linearization"]

    def test_shipped_verify_config_passes_at_seed_0(self, tmp_path):
        # the descent audit steps at 0.9/beta with beta = 2 (4 - (-1)) = 10,
        # the gradient Lipschitz constant of x^T diag(1, -1, 4) x on the sphere
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = load_config(os.path.join(root, "configs", "verify.cfg"))
        out = run_experiment(cfg, out_dir=str(tmp_path / "v"), seed=0)
        assert out.exit_code == 0
        lines = (tmp_path / "v" / "report_descent.txt").read_text().splitlines()
        assert "passed = true" in lines
        assert "beta_hat = 10" in lines

    def test_shipped_verify_config_passes_every_check_at_seeds_0_to_19(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = load_config(os.path.join(root, "configs", "verify.cfg"))
        for seed in range(20):
            out = run_experiment(cfg, out_dir=str(tmp_path / f"v{seed}"), seed=seed)
            assert out.exit_code == 0, seed
            assert len(out.reports) == 8 and all(r.passed for r in out.reports), seed
            assert [m.split(" (")[0] for m in out.messages] == ["coupling: PASS"], seed

    def test_shipped_verify_coupling_takes_the_descent_beta(self, tmp_path):
        """The coupling probe derives its thresholds from beta = rho_hat = 10,
        the beta of the descent audit, not from 2 max|d| = 8."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = load_config(os.path.join(root, "configs", "verify.cfg"))
        run_experiment(cfg, out_dir=str(tmp_path), seed=0)
        thr = practical_thresholds(10.0, 10.0, 1e-4, dim_d=2)
        lines = (tmp_path / "report_coupling.txt").read_text().splitlines()
        assert f"growth_threshold = {fmt(1.0 + thr.eta * thr.gamma / 2.0)}" in lines

    def test_random_start_is_drawn_from_the_seed(self, tmp_path):
        cfg = parse_config(MINIMAL_SPHERE + "x0 = random\n")
        runs = [run_experiment(cfg, out_dir=str(tmp_path / str(s)), seed=s) for s in (7, 7, 8)]
        assert [out.exit_code for out in runs] == [0, 0, 0]
        starts = [(tmp_path / str(s) / "trace.csv").read_text().splitlines()[1] for s in (7, 8)]
        assert starts[0] != starts[1]
        assert runs[0].summary == runs[1].summary

    @pytest.mark.parametrize("text, skipped, reason, reported", [
        ("manifold = oblique\ndim_d = 10\np = 3\n", OBJECTIVE_CHECKS,
         "needs a quadratic objective on sphere/euclidean", GEOMETRY_CHECKS),
        ("manifold = grassmann\nn = 6\nk = 2\n", OBJECTIVE_CHECKS,
         "needs a quadratic objective on sphere/euclidean", GEOMETRY_CHECKS),
        ("manifold = sphere\nn = 3\ndiag = 1, 1, 2\n", ["linearization", "coupling"],
         "no exact saddle for this diagonal",
         ["descent", "descent-negative-control", *GEOMETRY_CHECKS, "gradient-taylor"]),
    ], ids=["oblique", "grassmann", "sphere-without-saddle"])
    def test_verify_cli_skips_the_checks_it_cannot_run(self, tmp_path, capsys, text, skipped,
                                                       reason, reported):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"experiment = verify\nseed = 7\nn_samples = 200\n{text}")
        assert cli_main(["verify", str(cfg_path), "--out", str(tmp_path / "v")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:len(skipped)] == [f"{name}: skipped ({reason})" for name in skipped]
        assert [line.split(": ")[0] for line in lines[len(skipped):]] == reported
        assert all(": PASS " in line for line in lines[len(skipped):])


# two values of each key that a threshold mode reads
TWO_VALUES = {"beta": ("8", "10"), "rho_hat": ("8", "20"), "eta": ("0.05", "0.01"),
              "r": ("1e-3", "1e-2"), "g_thres": ("1e-4", "1e-3"), "f_thres": ("1e-8", "1e-7"),
              "t_thres": ("200", "300"), "epsilon": ("1e-4", "1e-3"), "delta": ("0.1", "0.2"),
              "f_gap": ("2", "5")}
THRESHOLD_KEYS = ["c_hat", "c_max", "chi", "r", "f_thres", "g_thres", "t_thres", "eta",
                  "gamma", "kappa", "script_F", "script_G", "script_S", "script_T",
                  "injectivity", "mode"]


class TestDescribeThresholds:
    @pytest.mark.parametrize("mode,text", [
        ("practical", MINIMAL_SPHERE),
        ("theory", "experiment = sphere-quadratic\nseed = 7\ndiag = 1,-1,4\n"
                   "mode = theory\nbeta = 8\nrho_hat = 8\nf_gap = 2\nepsilon = 0.1\n"),
    ])
    def test_ordered_keys(self, mode, text):
        lines = describe_thresholds(parse_config(text)).splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        # theory mode takes beta and rho_hat from the config, so nothing is estimated
        estimated = ["beta_estimated", "rho_estimated"] if mode == "practical" else []
        assert keys == ["mode", "seed", *estimated, "beta_hat",
                        "rho_hat", "epsilon", "delta"] + THRESHOLD_KEYS
        assert lines[0] == lines[-1] == f"mode = {mode}"
        assert "injectivity = 3.1415926535897931" in lines

    def test_practical_fields_present(self):
        cfg = parse_config(MINIMAL_SPHERE)
        text = describe_thresholds(cfg)
        for key in ("beta_hat", "rho_hat", "eta", "g_thres", "f_thres", "t_thres", "r"):
            assert f"{key} = " in text

    @pytest.mark.parametrize("mode,key", [
        *[("practical", key) for key in ("beta", "rho_hat", "eta", "r", "g_thres", "f_thres",
                                         "t_thres", "epsilon", "delta")],
        *[("theory", key) for key in ("beta", "rho_hat", "f_gap", "epsilon", "delta")],
    ])
    def test_every_key_the_mode_reads_moves_the_printout(self, mode, key):
        """No threshold key is parsed and then dropped: two values of a key
        that the mode reads print two different derivations."""
        base = {"experiment": "sphere-quadratic", "seed": "7", "diag": "1, -1, 4",
                "mode": mode, "beta": "10", "rho_hat": "10"}
        if mode == "theory":
            base["f_gap"] = "5"
        printouts = {describe_thresholds(parse_config(
            "".join(f"{k} = {v}\n" for k, v in {**base, key: value}.items())))
            for value in TWO_VALUES[key]}
        assert len(printouts) == 2

    def test_theory_mode_uses_box_formulas(self):
        cfg = parse_config(
            "experiment = sphere-quadratic\nseed = 7\ndiag = 1,-1,4\n"
            "mode = theory\nbeta = 8\nrho_hat = 8\nf_gap = 2\nepsilon = 0.1\n")
        text = describe_thresholds(cfg)
        assert "mode = theory" in text
        assert "chi = " in text


def test_readme_library_example_runs():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        code = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("second-order-point")


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(MINIMAL_SPHERE)
        code = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "classification = second-order" in out

    def test_config_errors_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("experiment = sphere-quadratic\n")
        code = cli_main(["run", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "seed" in err

    def test_missing_file_exit_2(self, capsys):
        assert cli_main(["run", "/nonexistent/cfg.txt"]) == 2

    def test_verify_subcommand_requires_verify_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(MINIMAL_SPHERE)
        assert cli_main(["verify", str(cfg_path)]) == 2

    @pytest.mark.parametrize("command, text, extra, message", [
        ("run", MINIMAL_SPHERE.replace("seed = 7", "seed = -1"), [],
         "line 3: seed must be >= 0, got -1"),
        ("run", MINIMAL_SPHERE, ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("run", MINIMAL_SPHERE + "x0 = 1, 0\nbeta = 8\nrho_hat = 8\n", [],
         "problem setup failed: sphere(3): expected x0 of shape (3,), got (2,)"),
        ("verify", "experiment = verify\nseed = 7\nmanifold = sphere\nn = 1\n", [],
         "problem setup failed: n must be >= 2"),
        ("thresholds", MINIMAL_SPHERE, ["--seed", "-2"], "seed must be >= 0, got -2"),
        ("verify", VERIFY_TWO_STEP + "n_samples = 0\n", [],
         "line 4: n_samples must be >= 1, got 0"),
        ("verify", VERIFY_TWO_STEP + "scales = 0.1\n", [],
         "line 4: scales must hold at least two distinct finite positive values, got [0.1]"),
        ("verify", VERIFY_TWO_STEP + "scales =\n", [],
         "line 4: scales must hold at least two distinct finite positive values, got []"),
        ("verify", VERIFY_TWO_STEP + "probe_steps = -1\n", [],
         "line 4: probe_steps must be >= 1, got -1"),
        ("verify", VERIFY_COUPLING + "epsilon = 0\n", [],
         "line 5: epsilon must be finite and positive, got 0.0"),
        ("run", MINIMAL_SPHERE.replace("1e-4", "nan"), [],
         "line 5: epsilon must be finite and positive, got nan"),
        ("verify", VERIFY_COUPLING + "mu = nan\n", [],
         "line 5: mu must be finite and positive, got nan"),
        ("run", MINIMAL_SPHERE + "beta = -8\n", [], "line 6: beta must be finite and positive, got -8.0"),
        ("thresholds", MINIMAL_SPHERE + "rho = nan\n", [], "line 6: unknown key 'rho'"),
        ("run", MINIMAL_SPHERE + "rho_hat = 0\n", [],
         "line 6: rho_hat must be finite and positive, got 0.0"),
        ("thresholds", MINIMAL_SPHERE + "eta = inf\n", [],
         "line 6: eta must be finite and positive, got inf"),
        ("run", MINIMAL_SPHERE + "r = nan\n", [], "line 6: r must be finite and positive, got nan"),
        ("thresholds", MINIMAL_SPHERE + "g_thres = nan\n", [],
         "line 6: g_thres must be finite and positive, got nan"),
        ("run", MINIMAL_SPHERE + "f_thres = inf\n", [],
         "line 6: f_thres must be finite and positive, got inf"),
        ("thresholds", MINIMAL_SPHERE + "f_gap = -2\n", [],
         "line 6: f_gap must be finite and positive, got -2.0"),
        ("run", MINIMAL_SPHERE + "delta = 0\n", [], "line 6: delta must lie in (0, 1), got 0.0"),
        ("run", MINIMAL_SPHERE + "max_iters = -3\n", [], "line 6: max_iters must be >= 1, got -3"),
        ("thresholds", MINIMAL_SPHERE + "t_thres = 0\n", [], "line 6: t_thres must be >= 1, got 0"),
        ("run", BM_P_ABOVE_DIM_D, [],
         "problem setup failed: burer-monteiro needs p <= dim_d, got p = 5 > dim_d = 3"),
        ("thresholds", BM_P_ABOVE_DIM_D, [],
         "error: burer-monteiro needs p <= dim_d, got p = 5 > dim_d = 3"),
        ("run", MINIMAL_SPHERE + "x0 = nan 0 0\n", [],
         "problem setup failed: non-finite entry 'nan'"),
        ("thresholds", MINIMAL_SPHERE + "x0 = 1, 1, 0\n", [],
         "error: initial point infeasible: residual 4.142e-01 > 1e-08"),
        ("run", f"experiment = kpca\nseed = 7\nk = 1\nh_file = {NAN_MATRIX}\n", [],
         f"problem setup failed: {NAN_MATRIX}: non-finite entry"),
        ("run", f"experiment = burer-monteiro\nseed = 7\np = 2\na_file = {NAN_MATRIX}\n", [],
         f"problem setup failed: {NAN_MATRIX}: non-finite entry"),
        ("verify", "experiment = verify\nseed = 7\nmanifold = sphere\nn = 4\ndiag = 1, -1, 4\n", [],
         "line 5: diag must have n = 4 entries on sphere, got 3"),
        ("verify", "experiment = verify\nseed = 7\nmanifold = euclidean\ndiag = 1, 2\n", [],
         "line 4: diag must have n = 3 entries on euclidean, got 2"),
        ("run", MINIMAL_SPHERE + "beta 8\n", [], "line 6: expected 'key = value', got 'beta 8'"),
        ("run", f"experiment = kpca\nseed = 7\nk = 1\nh_file = {NO_HEADER_MATRIX}\n", [],
         f"problem setup failed: {NO_HEADER_MATRIX}: missing 'rows cols' header"),
        ("run", "experiment = kpca\nseed = 7\nk = 2\nh_diag = 0 1 2\nx0_cols = 0, 3\n", [],
         "problem setup failed: x0_cols must be 2 column indices in [0, 3)"),
        ("thresholds", THEORY_SPHERE.replace("rho_hat", "rho"), [],
         "theory mode requires 'rho_hat'"),
        *[("thresholds", THEORY_SPHERE + f"{key} = {value}\n", [],
           f"line 10: theory mode derives {key!r}, so it takes no override")
          for key, value in THRESHOLD_OVERRIDES.items()],
    ], ids=["seed-in-config", "seed-override", "x0-length", "verify-n", "thresholds-seed",
            "verify-n-samples", "verify-one-scale", "verify-no-scales", "verify-probe-steps",
            "verify-epsilon-0", "run-epsilon-nan", "verify-mu-nan", "beta-negative", "rho-nan",
            "rho_hat-0", "eta-inf", "r-nan", "g_thres-nan", "f_thres-inf", "f_gap-negative",
            "delta-0", "max_iters-negative", "t_thres-0",
            "run-bm-p-above-dim_d", "thresholds-bm-p-above-dim_d",
            "x0-nan", "thresholds-x0-infeasible", "kpca-h_file-nan", "bm-a_file-nan",
            "verify-sphere-diag-length", "verify-euclidean-diag-length",
            "line-without-equals", "kpca-h_file-no-header", "kpca-x0_cols-out-of-range",
            "theory-rho-without-rho_hat",
            *[f"theory-{key}" for key in THRESHOLD_OVERRIDES]])
    def test_bad_value_exits_2_naming_it(self, tmp_path, capsys, command, text, extra, message):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(text)
        out = [] if command == "thresholds" else ["--out", str(tmp_path / "o")]
        code = cli_main([command, str(cfg_path), *out, *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.out + captured.err

    def test_thresholds_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(MINIMAL_SPHERE)
        assert cli_main(["thresholds", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "eta = " in out


def test_principal_angles_identity():
    x = np.eye(5)[:, :3]
    assert np.allclose(principal_angles(x, x), 0.0)
    y = np.eye(5)[:, [2, 3, 4]]
    ang = principal_angles(x, y)
    assert np.max(ang) == pytest.approx(math.pi / 2)
