"""The shipped configs write the same bytes as when these digests were pinned.

A change that alters an artifact's bytes on purpose updates its digest here
and says so in CHANGES.md; any other change must leave them all alone.  The
kpca run goes through Grassmann SVDs and QRs and BLAS matrix products, so its
digests hold on the host that pinned them (numpy 2.4, x86-64 OpenBLAS).  The
Burer-Monteiro run is pinned at its first 5,000 steps, which end at the
iteration cap inside the first window, and to its end (31,530 steps, 1-2 s),
which takes the perturbation, where every row of Y moves, and the Hessian
products of the smoothness estimate and the certificate.  A second
Burer-Monteiro run reads its cost matrix from `tests/data`, a 5 x 5 block on
the scattered rows 3, 17, 42, 64 and 90, so its steps run on an index of rows
where the drawn block's run on a slice; it is pinned to its end (2,665 steps).
The config paths below are relative to the repository root, and a config's
`a_file` to the config; the scattered run is also pinned through the command
line from another directory.
"""

import dataclasses
import hashlib
import os

import pytest

from geodescent import cli
from geodescent.harness import EXIT_NOT_CONVERGED, load_config, run_experiment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# config, seed, max_iters (None: the config's), {file: sha256}
PINNED = {
    "figure1-seed-7": ("configs/figure1.cfg", 7, None, {
        "trace.csv": "3016c0db2c1621a7c95fee1a7b258313e8dd9824893ba73f6a52423d6debb58d",
        "summary.txt": "dc80690a2a787e578121fde5121118c637ebc2af65527e1679efe9bd16a3fca8",
        "final_point.txt": "070fbe6c50833de274823b2d0a917d5351b3b0770d4d4a7670bc85ad46987850",
    }),
    "kpca-seed-0": ("configs/kpca.cfg", 0, None, {
        "trace.csv": "b54c6ceaa46402c5c470026b357d0b082c4adb4884dec2e4965bc0458408035a",
        "summary.txt": "acfa527fd063d9a83845cb1b9d31eb47ac024f5f60d8afe88dddd7f3f969f42c",
        "final_point.txt": "456af57061e7ab451a747493b40b46798ea7f22381c5c80809b4281bf63d9c82",
    }),
    "burer-monteiro-seed-7-5000-steps": ("configs/burer-monteiro.cfg", 7, 5000, {
        "trace.csv": "9a51e4ec3438bea67db3c2ddd0dc5723267393ca92f39c48bac471c949dedfb4",
        "summary.txt": "955af210313be413fa43f7d6a975ebccf719db6c8ac10e7ebf30332e1b754e97",
        "final_point.txt": "e9fadf2ddf4a2e7f293a8767625771145ad445c460c24823ce3ec0173e92c19d",
    }),
    "burer-monteiro-seed-7": ("configs/burer-monteiro.cfg", 7, None, {
        "trace.csv": "e983399812542b2f08f044bafbe4ed79ff6437425114d59870c34b16fd8b5047",
        "summary.txt": "2fd88c7557ba2dfd98ca10ce4f9e94801717984af87863d53fa2029ab06b18f0",
        "final_point.txt": "55922c859655bae81bc1fcf0284d7c3a692b6254f35c0b4bb5d75a6beed188d2",
    }),
    "burer-monteiro-scattered-seed-7": ("tests/data/burer-monteiro-scattered.cfg", 7, None, {
        "trace.csv": "1a5385a578065880d87c50d7c86fc4ac8447b99278aff05e2c94269c0332a102",
        "summary.txt": "ff3c124ab6c744b92eeb0feea01b5b82340211b1c74a9a92aee3e52ca518ba53",
        "final_point.txt": "0e3e9395ed2e49136aab0e9c79a5312160b4947bb207b3d644e62713ede680e8",
    }),
    "verify-seed-0": ("configs/verify.cfg", 0, None, {
        "report_coupling.txt": "63edd73154544cf5f8e88e418399bc3f878d4cb0368e25f53c2f696f1fc697ec",
        "report_descent-negative-control.txt":
            "24ada05d0d11e1381d0576ccab58bef6b1dbf67d14a568793409ac19e58ce264",
        "report_descent.txt": "8cb9bc89449b2fdfa92cdd49095d13639cc24666432c51576f396b7df4133aa7",
        "report_gradient-taylor.txt": "8b45f22fe9483e761dc825ab18afbaeb34c9fa5448b154925e03fbcf8bd89211",
        "report_holonomy.txt": "9c74e42013918ec765027b0d165317a2d14902fe5682496cbdbcd0732884df28",
        "report_linearization.txt": "60aa38696ae363bbf2f17f15efd4ac2efdebf4c0151572026da0451afd7b705d",
        "report_log-bilipschitz.txt": "a8c655825fd7b192fbfeac7592e87dd97aab577e31fef45f4687cd9b129aedf1",
        "report_transport-contraction.txt":
            "a630acf32ef171ee24317b84cd651ed0ccb338aeb76c1006f3cf332c9deb88a3",
        "report_two-step.txt": "cf2ffa3fcf7ae6005dabca5431d06abcb02db6550a2ccb26f0402ffd64ce133e",
    }),
}


def digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("run", list(PINNED))
def test_shipped_run_writes_the_pinned_bytes(run, tmp_path):
    config, seed, max_iters, want = PINNED[run]
    cfg = load_config(os.path.join(ROOT, config))
    if max_iters is not None:
        cfg = dataclasses.replace(cfg, max_iters=max_iters)
    out = run_experiment(cfg, out_dir=str(tmp_path), seed=seed)
    assert out.exit_code == (0 if max_iters is None else EXIT_NOT_CONVERGED)
    written = {p.name for p in tmp_path.iterdir() if p.name.startswith("report_")}
    assert written <= set(want)  # a verify run pins every report it writes
    assert digests(tmp_path, want) == want


def test_a_config_reads_its_matrix_file_from_its_own_directory(tmp_path, monkeypatch):
    config, seed, _, want = PINNED["burer-monteiro-scattered-seed-7"]
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", os.path.join(ROOT, config), "--out", "out", "--seed", str(seed)]) == 0
    assert digests(tmp_path / "out", want) == want
