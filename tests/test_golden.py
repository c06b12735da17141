"""Golden outputs: SHA-256 hashes of fixed-seed results on a 16 x 16 scene.

The scene comes from `sparseps render`; `sparseps eval --solver inpaint_ls`
writes a report and two error maps, and the diffusion-only control runs
through run_trials.  Every later change that moves a bit of these outputs
has to change a hash below in plain view.  Rerun this module's
`golden_hashes` on a scratch directory to print the new values.
"""

import hashlib

import pytest

from sparseps.cli import main
from sparseps.evaluation import InpaintLsSolver, TrialConfig, run_trials
from sparseps.render import load_scene

RENDER = ("--brdf", "blinnphong", "--res", 16, "--lights", 60, "--seed", 5)
EVAL = ("--solver", "inpaint_ls", "--trials", 8, "--lights", 10, "--seed", 3)
DIFFUSION = TrialConfig(n_trials=8, n_lights=10, seed=4)

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
}


def _sha(*chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def golden_hashes(directory):
    """Render, evaluate and hash, writing under `directory` (a Path)."""
    scene_dir = directory / "scene"
    report = directory / "eval.txt"
    assert main(["render", "--out", str(scene_dir), *map(str, RENDER)]) == 0
    assert main(["eval", "--scene", str(scene_dir), "--out", str(report),
                 *map(str, EVAL)]) == 0
    files = sorted(scene_dir.iterdir())
    diffusion = run_trials(load_scene(scene_dir),
                           InpaintLsSolver(w=32, mirror_step=False), DIFFUSION)
    return {
        "render": _sha(*(part for f in files
                         for part in (f.name.encode(), f.read_bytes()))),
        "eval_report": _sha(report.read_bytes()),
        "eval_errmap_pfm": _sha((directory / "eval_errmap.pfm").read_bytes()),
        "eval_errmap_pgm": _sha((directory / "eval_errmap.pgm").read_bytes()),
        "diffusion_ls": _sha(diffusion.per_trial_mean_deg.tobytes(),
                             diffusion.error_map_deg.tobytes(),
                             str(diffusion.excluded_pixels).encode()),
    }


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return golden_hashes(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_hash(hashes, name):
    assert hashes[name] == GOLDEN[name]
