"""Golden outputs: SHA-256 hashes of fixed-seed results on a 16 x 16 scene.

The scene comes from `sparseps render`; `sparseps eval --solver inpaint_ls`
writes a report and two error maps, and the diffusion-only control runs
through run_trials.  `sparseps maps` exports the scene's maps at w = 8,
`sparseps train` fits both models at w = 8 and at the production width
w = 32, `sparseps eval --solver trained` runs the w = 8 models on the
scene, and run_trials runs the reloaded w = 32 models on it, so the
production-width inference path is pinned in float64, not only through a
report's six digits.  make_training_set builds, from one generator, a
w = 32 set with four draws per point and a w = 8 set with two lights a
draw, where many draws land all in attached shadow and are redrawn; the
generator's next draws are hashed with them.  Every later change that
moves a bit of these outputs has to change a hash below in plain view.
To print the current table, run the module on an empty scratch directory:

    PYTHONPATH=src python tests/test_golden.py DIR
"""

import contextlib
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from sparseps.cli import main
from sparseps.evaluation import (
    InpaintLsSolver,
    ModelSolver,
    TrialConfig,
    run_trials,
)
from sparseps.losses import ROWS
from sparseps.mlp import load_model
from sparseps.render import load_scene
from sparseps.solvers import make_training_set

RENDER = ("--brdf", "blinnphong", "--res", 16, "--lights", 60, "--seed", 5)
EVAL = ("--solver", "inpaint_ls", "--trials", 8, "--lights", 10, "--seed", 3)
DIFFUSION = TrialConfig(n_trials=8, n_lights=10, seed=4)
MAPS = ("--w", 8, "--stride", 4)
TRAIN = ("--points", 60, "--lights", 10, "--w", 8, "--epochs", 3,
         "--batch", 16, "--seed", 6)
# Batches of 12 samples and a last one of 4: a full block of ROWS rows and
# a short one, and a batch shorter than ROWS; steps 5 and 11 train f.
TRAIN_W32 = ("--points", 40, "--lights", 10, "--w", 32, "--epochs", 3,
             "--batch", 12, "--seed", 6)
EVAL_TRAINED = ("--solver", "trained", "--w", 8, "--trials", 8,
                "--lights", 10, "--seed", 3)
TRAINED_W32 = TrialConfig(n_trials=8, n_lights=10, seed=7)
TRAINING_SETS = (dict(count=40, lights_per_point=10, w=32, draws_per_point=4),
                 dict(count=120, lights_per_point=2, w=8, min_nz=0.0,
                      dense_lights=100, draws_per_point=4))

GOLDEN = {
    "render":
        "273d873408604ad839d6ce77ad87c0815d0f974f674c1e1e83d18c3df6c02c58",
    "eval_report":
        "4a064482d14f5624a6d1e4c7840477e9b1eb80f72a873e24776bdae3a6ac5157",
    "eval_errmap_pfm":
        "a109df61650e3b10a2f8cc067964ae7cec27b80d59f6afdc6c509a13712502ee",
    "eval_errmap_pgm":
        "81a5590c1089788ddb016c96a81fee3ca9fa7160da58b6dbacfd98eef39f904b",
    "diffusion_ls":
        "71cffe9dbade2d18abf0cf2f1c0644d693ee6fec9f7f4754f507e81164de4a5c",
    "maps":
        "c533b0784d153bcaef76fe9190a56a0620359255ebfaf8f98bd4b84927b0ff10",
    "train_li":
        "c911d259e17efd77cc4fc7507b5028ef1907a60de88b585aae62ed455b630323",
    "train_ne":
        "9738e93668219331e9f91b48de44b057c39ab899ba626a9a3290904106ac1f9a",
    "train_trace":
        "5355a57c9118bed34194d2deaafacf09e7492bc49c9c5f91f55a8904eab603ef",
    "train_w32_li":
        "d16fbec4af414f7de54e2483d487594919a19e1ce0c5faec2741e13f7de9ef24",
    "train_w32_ne":
        "74013536c0f653421c2cea5a3740e94f799543ec10d9ee209b3d3d477fcb1df1",
    "train_w32_trace":
        "50454e22eab1cac911f0ffa21dc9abbc5ed6688523c2d04c8336464420187bc9",
    "trained_report":
        "f8840940fba2dd62136753e5928dac7b46a91184b36cc139344d19385e13ffb6",
    "trained_errmap_pfm":
        "e4cf1de40412cc52c5e03ec204fe40dd2ce998975264c8116309262a6426beb1",
    "trained_errmap_pgm":
        "08c21cfec84388401247ef2e7b8ebc3b51f4bc1de0fa823d43041b43311e3da2",
    "trained_w32":
        "6e9739aa3139c871f56c62efc2fe05d555bbcb85b1bb3345bdb571988424d2a2",
    "training_set":
        "8c9e5d642ef4ce3dfcf7e5301fe3b765ac9fee466cc1cf2fa6ee469bfabbf9b8",
}


def _sha_report(report):
    """Hash of a report's per-trial means, error map and exclusion count."""
    return _sha(report.per_trial_mean_deg.tobytes(),
                report.error_map_deg.tobytes(),
                str(report.excluded_pixels).encode())


def _sha(*chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _sha_dir(path):
    """Hash of every file's name and bytes in a directory, by name."""
    return _sha(*(part for f in sorted(path.iterdir())
                  for part in (f.name.encode(), f.read_bytes())))


def _sha_training_sets():
    """Hash of every field of TRAINING_SETS' triples, built in turn from
    one generator, and of that generator's next draws."""
    rng = np.random.default_rng(8)
    chunks = []
    for kwargs in TRAINING_SETS:
        for samples, n, d_gt in make_training_set(rng=rng, **kwargs):
            chunks += [samples.lights, samples.irradiance, samples.normal, n,
                       d_gt.values, d_gt.mask]
    chunks.append(rng.random(4))
    return _sha(*(np.ascontiguousarray(c).tobytes() for c in chunks))


def golden_hashes(directory):
    """Render, export, train, evaluate and hash, writing under `directory`
    (a Path)."""
    scene_dir = directory / "scene"
    maps_dir = directory / "maps"
    model_dir = directory / "model"
    model_w32 = directory / "model_w32"
    report = directory / "eval.txt"
    trained = directory / "trained.txt"
    assert main(["render", "--out", str(scene_dir), *map(str, RENDER)]) == 0
    assert main(["eval", "--scene", str(scene_dir), "--out", str(report),
                 *map(str, EVAL)]) == 0
    assert main(["maps", "--scene", str(scene_dir), "--out", str(maps_dir),
                 *map(str, MAPS)]) == 0
    assert main(["train", "--out", str(model_dir), *map(str, TRAIN)]) == 0
    assert main(["train", "--out", str(model_w32), *map(str, TRAIN_W32)]) == 0
    assert main(["eval", "--scene", str(scene_dir), "--model", str(model_dir),
                 "--out", str(trained), *map(str, EVAL_TRAINED)]) == 0
    scene = load_scene(scene_dir)
    diffusion = run_trials(scene, InpaintLsSolver(w=32, mirror_step=False),
                           DIFFUSION)
    solver_w32 = ModelSolver(load_model(model_w32 / "li.spln"),
                             load_model(model_w32 / "ne.spln"), w=32)
    trained_w32 = run_trials(scene, solver_w32, TRAINED_W32)
    return {
        "render": _sha_dir(scene_dir),
        "eval_report": _sha(report.read_bytes()),
        "eval_errmap_pfm": _sha((directory / "eval_errmap.pfm").read_bytes()),
        "eval_errmap_pgm": _sha((directory / "eval_errmap.pgm").read_bytes()),
        "diffusion_ls": _sha_report(diffusion),
        "maps": _sha_dir(maps_dir),
        "train_li": _sha((model_dir / "li.spln").read_bytes()),
        "train_ne": _sha((model_dir / "ne.spln").read_bytes()),
        "train_trace": _sha((model_dir / "trace.txt").read_bytes()),
        "train_w32_li": _sha((model_w32 / "li.spln").read_bytes()),
        "train_w32_ne": _sha((model_w32 / "ne.spln").read_bytes()),
        "train_w32_trace": _sha((model_w32 / "trace.txt").read_bytes()),
        "trained_report": _sha(trained.read_bytes()),
        "trained_errmap_pfm": _sha((directory / "trained_errmap.pfm").read_bytes()),
        "trained_errmap_pgm": _sha((directory / "trained_errmap.pgm").read_bytes()),
        "trained_w32": _sha_report(trained_w32),
        "training_set": _sha_training_sets(),
    }


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return golden_hashes(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_hash(hashes, name):
    assert hashes[name] == GOLDEN[name]


def test_w32_batches_straddle_row_blocks():
    # The w = 32 training above covers a full and a short block of rows.
    args = dict(zip(TRAIN_W32[::2], TRAIN_W32[1::2]))
    points, batch = args["--points"], args["--batch"]
    assert batch > ROWS and batch % ROWS and points % batch < ROWS


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} DIR")
    # The CLI's progress lines go to stderr, so stdout is the table alone.
    with contextlib.redirect_stdout(sys.stderr):
        current = golden_hashes(Path(sys.argv[1]))
    print("GOLDEN = {")
    for name, digest in current.items():
        print(f'    "{name}":\n        "{digest}",')
    print("}")
