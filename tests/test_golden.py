"""Golden outputs: SHA-256 hashes of fixed-seed results on a 16 x 16 scene.

The scene comes from `sparseps render`; `sparseps eval --solver inpaint_ls`
writes a report and two error maps, and the diffusion-only control runs
through run_trials.  `sparseps maps` exports the scene's maps at w = 8,
`sparseps train` fits both models at w = 8 and at the production width
w = 32, and `sparseps eval --solver trained` runs the w = 8 models on the
scene.  Every later change that moves a bit of these outputs has to change
a hash below in plain view.  Rerun this module's `golden_hashes` on a
scratch directory to print the new values.
"""

import hashlib

import pytest

from sparseps.cli import main
from sparseps.evaluation import InpaintLsSolver, TrialConfig, run_trials
from sparseps.losses import ROWS
from sparseps.render import load_scene

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
}


def _sha(*chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _sha_dir(path):
    """Hash of every file's name and bytes in a directory, by name."""
    return _sha(*(part for f in sorted(path.iterdir())
                  for part in (f.name.encode(), f.read_bytes())))


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
    diffusion = run_trials(load_scene(scene_dir),
                           InpaintLsSolver(w=32, mirror_step=False), DIFFUSION)
    return {
        "render": _sha_dir(scene_dir),
        "eval_report": _sha(report.read_bytes()),
        "eval_errmap_pfm": _sha((directory / "eval_errmap.pfm").read_bytes()),
        "eval_errmap_pgm": _sha((directory / "eval_errmap.pgm").read_bytes()),
        "diffusion_ls": _sha(diffusion.per_trial_mean_deg.tobytes(),
                             diffusion.error_map_deg.tobytes(),
                             str(diffusion.excluded_pixels).encode()),
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
