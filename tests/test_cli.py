"""End-to-end tests of the command-line interface."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparseps
from sparseps.cli import main
from sparseps.evaluation import read_report
from sparseps.fileio import read_pgm, read_pfm, write_pfm
from sparseps.mlp import save_model
from sparseps.render import Lambertian, render_sphere, save_scene
from sparseps.solvers import new_li_model, new_ne_model

from helpers import break_checkpoint


SUBCOMMANDS = ("render", "maps", "train", "eval", "sweep", "inspect")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(*args):
    return main([str(a) for a in args])


def run_module(*args, cwd):
    """Run ``python -m sparseps`` in a fresh process on this very package."""
    env = dict(os.environ)
    src = str(Path(sparseps.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "sparseps", *args],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=120)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenes") / "sphere"
    status = run("render", "--shape", "sphere", "--brdf", "lambertian",
                 "--res", 64, "--lights", 300, "--seed", 7, "--out", path)
    assert status == 0
    return path


class TestRender:
    def test_scene_directory_contents(self, scene_dir):
        files = sorted(os.listdir(scene_dir))
        assert "lights.txt" in files
        assert "normals.pfm" in files
        assert "meta.txt" in files
        assert "img_0000.pfm" in files
        assert "img_0299.pfm" in files
        normals = read_pfm(scene_dir / "normals.pfm")
        assert normals.shape == (64, 64, 3)
        # Viewer-facing convention: every valid normal has z >= 0.
        assert np.all(normals[:, :, 2] >= 0)
        meta = (scene_dir / "meta.txt").read_text()
        assert "brdf=lambertian" in meta
        assert "seed=7" in meta

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run("render", "--res", 32, "--lights", 20, "--seed", 3,
                       "--out", out) == 0
        for name in ("lights.txt", "normals.pfm", "img_0007.pfm", "meta.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestEval:
    def test_report_echoes_protocol(self, scene_dir, tmp_path):
        report_path = tmp_path / "report.txt"
        status = run("eval", "--scene", scene_dir, "--solver", "ls",
                     "--trials", 100, "--lights", 10, "--seed", 1,
                     "--out", report_path)
        assert status == 0
        header, trials = read_report(report_path)
        assert header["n_trials"] == "100"
        assert header["n_lights"] == "10"
        assert header["seed"] == "1"
        assert header["solver"] == "ls"
        assert trials.shape == (100,)
        assert os.path.exists(tmp_path / "report_errmap.pfm")
        assert os.path.exists(tmp_path / "report_errmap.pgm")

    def test_rerun_is_byte_identical(self, scene_dir, tmp_path):
        p1 = tmp_path / "r1.txt"
        p2 = tmp_path / "r2.txt"
        for path in (p1, p2):
            assert run("eval", "--scene", scene_dir, "--trials", 5,
                       "--seed", 2, "--out", path) == 0
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("case", ["truncated_header", "unknown_activation",
                                      "short_payload"])
    def test_broken_checkpoint_exits_one(self, scene_dir, tmp_path, capsys, case):
        model = tmp_path / "model"
        model.mkdir()
        rng = np.random.default_rng(44)
        save_model(new_li_model(4, rng, hidden=(4,)), model / "li.spln")
        save_model(new_ne_model(4, rng, hidden=(4,)), model / "ne.spln")
        break_checkpoint(model / "li.spln", case)
        status = run("eval", "--scene", scene_dir, "--solver", "trained",
                     "--model", model, "--w", 4, "--trials", 2,
                     "--out", tmp_path / "r.txt")
        assert status == 1
        assert capsys.readouterr().err.startswith(f"error: {model / 'li.spln'}: ")
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("model_w,eval_w", [(8, 16), (16, 8)])
    def test_model_width_mismatch_exits_one(self, scene_dir, tmp_path, capsys,
                                            model_w, eval_w):
        model = tmp_path / "model"
        model.mkdir()
        rng = np.random.default_rng(45)
        save_model(new_li_model(model_w, rng, hidden=(4,)), model / "li.spln")
        save_model(new_ne_model(model_w, rng, hidden=(4,)), model / "ne.spln")
        status = run("eval", "--scene", scene_dir, "--solver", "trained",
                     "--model", model, "--w", eval_w, "--trials", 2,
                     "--out", tmp_path / "r.txt")
        assert status == 1
        assert capsys.readouterr().err == (
            f"error: model f takes {2 * model_w ** 2} inputs, but maps of width "
            f"{eval_w} give 2*w*w = {2 * eval_w ** 2}\n")
        assert not (tmp_path / "r.txt").exists()

    def test_coplanar_light_pool_exits_one(self, tmp_path, capsys):
        t = np.radians([-30.0, -10.0, 10.0, 30.0])
        lights = np.column_stack([np.sin(t), np.zeros(4), np.cos(t)])
        save_scene(render_sphere(16, Lambertian(0.8), lights), tmp_path / "scene")
        status = run("eval", "--scene", tmp_path / "scene", "--lights", 3,
                     "--trials", 2, "--out", tmp_path / "r.txt")
        assert status == 1
        assert capsys.readouterr().err == "error: ls: no trial has a valid pixel\n"
        assert not (tmp_path / "r.txt").exists()

    def test_zero_light_row_exits_one(self, scene_dir, tmp_path, capsys):
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        lines = (scene / "lights.txt").read_text().splitlines()
        lines[4] = "0 0 0"
        (scene / "lights.txt").write_text("\n".join(lines) + "\n")
        status = run("eval", "--scene", scene, "--trials", 2,
                     "--out", tmp_path / "r.txt")
        assert status == 1
        assert "line 5" in capsys.readouterr().err


class TestSweep:
    def test_reports_per_sigma(self, scene_dir, tmp_path):
        out = tmp_path / "sweep"
        status = run("sweep", "--scene", scene_dir, "--sigmas", "0,4",
                     "--trials", 5, "--seed", 4, "--out", out)
        assert status == 0
        assert (out / "report_sigma_0.txt").exists()
        assert (out / "report_sigma_4.txt").exists()


class TestInspect:
    def test_pixel_map_pgm(self, scene_dir, tmp_path):
        out = tmp_path / "map.pgm"
        status = run("inspect", "--scene", scene_dir, "--pixel", "32,32",
                     "--w", 32, "--out", out)
        assert status == 0
        img = read_pgm(out)
        assert img.shape == (32, 32)
        assert img.max() == 255   # peak cell of a normalized map

    def test_outside_mask_is_domain_error(self, scene_dir, tmp_path):
        status = run("inspect", "--scene", scene_dir, "--pixel", "0,0",
                     "--out", tmp_path / "map.pgm")
        assert status == 1


class TestMaps:
    def test_batch_export(self, scene_dir, tmp_path):
        out = tmp_path / "maps"
        status = run("maps", "--scene", scene_dir, "--stride", 16,
                     "--out", out)
        assert status == 0
        files = sorted(os.listdir(out))
        assert any(f.endswith(".obsm") for f in files)
        assert any(f.endswith(".pgm") for f in files)

    def test_maps_match_inspect(self, scene_dir, tmp_path):
        out = tmp_path / "maps"
        assert run("maps", "--scene", scene_dir, "--stride", 16, "--out", out) == 0
        stem = sorted(f for f in os.listdir(out) if f.endswith(".pgm"))[0]
        row, col = int(stem[5:8]), int(stem[10:13])
        assert run("inspect", "--scene", scene_dir, "--pixel", f"{row},{col}",
                   "--out", tmp_path / "one.pgm") == 0
        np.testing.assert_array_equal(read_pgm(out / stem),
                                      read_pgm(tmp_path / "one.pgm"))

    @pytest.mark.parametrize("stride", [0, -8])
    def test_stride_below_one_is_domain_error(self, scene_dir, tmp_path, stride):
        assert run("maps", "--scene", scene_dir, "--stride", stride,
                   "--out", tmp_path / "maps") == 1


class TestTrainCommand:
    def test_train_writes_checkpoints(self, tmp_path):
        out = tmp_path / "model"
        status = run("train", "--points", 20, "--lights", 8, "--w", 8,
                     "--epochs", 2, "--batch", 8, "--seed", 5, "--out", out)
        assert status == 0
        assert (out / "li.spln").exists()
        assert (out / "ne.spln").exists()
        assert "ne_steps=" in (out / "trace.txt").read_text()

    @pytest.mark.parametrize("option,value,named", [
        ("--batch", -1, "batch_size"), ("--batch", 0, "batch_size"),
        ("--epochs", 0, "epochs"), ("--w", 7, "width w = 7")])
    def test_malformed_input_exits_one(self, tmp_path, capsys, option, value, named):
        out = tmp_path / "model"
        args = {"--points": 20, "--lights": 8, "--w": 8, "--epochs": 1,
                "--batch": 8, option: value}
        status = run("train", *[t for pair in args.items() for t in pair],
                     "--out", out)
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    def test_epoch_without_f_step_prints_dash(self, tmp_path, capsys):
        # Three steps an epoch: the first f step is step 5, in epoch 1.
        out = tmp_path / "model"
        status = run("train", "--points", 300, "--epochs", 2, "--seed", 5,
                     "--out", out)
        assert status == 0
        stdout = capsys.readouterr().out
        trace = (out / "trace.txt").read_text()
        for text in (stdout, trace):
            assert "nan" not in text.lower()
            lines = [l for l in text.splitlines() if l.startswith("epoch ")]
            assert len(lines) == 2
            assert lines[0].startswith("epoch 0 ne ") and lines[0].endswith(" li -")
            assert " li -" not in lines[1]


def _set_line(path, index, text):
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")


def _cut_lights(scene):
    lines = (scene / "lights.txt").read_text().splitlines(keepends=True)
    (scene / "lights.txt").write_text("".join(lines[:10]))


def _set_pixel(scene, value):
    image = read_pfm(scene / "img_0004.pfm")
    image[8, 8] = value
    write_pfm(scene / "img_0004.pfm", image)


def _truncate(scene):
    path = scene / "img_0004.pfm"
    path.write_bytes(path.read_bytes()[:100])


EVAL = ("eval", "--scene", "{scene}", "--trials", 2, "--out", "{out}")
TRAIN = ("train", "--points", 20, "--epochs", 1, "--batch", 8, "--out", "{out}")
SCENE_CMDS = {
    "maps": ("maps", "--scene", "{scene}", "--out", "{out}"),
    "inpaint": EVAL + ("--solver", "inpaint_ls"),
    "sweep": ("sweep", "--scene", "{scene}", "--trials", 2, "--out", "{out}"),
    "inspect": ("inspect", "--scene", "{scene}", "--pixel", "8,8",
                "--out", "{out}"),
}

# One row per malformed input: how to break the scene (or None), the
# command, and the start of the message after "error: ".
MALFORMED = [
    pytest.param(_cut_lights, EVAL, "{scene}/lights.txt: 10 lights, but ",
                 id="lights_cut_to_10_rows"),
    pytest.param(lambda s: (s / "img_0019.pfm").unlink(), EVAL,
                 "{scene}/lights.txt: 20 lights, but {scene} holds 19 ",
                 id="image_missing"),
    pytest.param(lambda s: _set_line(s / "meta.txt", 1, "lights=21"), EVAL,
                 "{scene}/meta.txt: lights=21, but ", id="meta_lights_disagree"),
    pytest.param(lambda s: _set_line(s / "lights.txt", 2, "0 0 -1"), EVAL,
                 "{scene}/lights.txt: line 3: ", id="light_below_horizon"),
    pytest.param(lambda s: _set_line(s / "lights.txt", 2, "0.1 0.2"), EVAL,
                 "{scene}/lights.txt: line 3: ", id="light_row_of_two_numbers"),
    pytest.param(lambda s: _set_pixel(s, np.nan), EVAL,
                 "{scene}/img_0004.pfm: pixels must be finite", id="nan_pixel"),
    pytest.param(lambda s: _set_pixel(s, -0.5), SCENE_CMDS["inpaint"],
                 "{scene}/img_0004.pfm: pixels must be finite",
                 id="negative_pixel"),
    pytest.param(lambda s: write_pfm(s / "img_0004.pfm", np.zeros((16, 8))),
                 EVAL, "{scene}/img_0004.pfm: image shape ", id="image_shape"),
    pytest.param(_truncate, EVAL, "{scene}/img_0004.pfm: 86 bytes of pixel "
                 "data, but a 16 x 16 x 1 PFM holds 1024", id="image_truncated"),
    pytest.param(None, TRAIN + ("--w", 0), "--w must be >= 2", id="train_w_0"),
    pytest.param(None, TRAIN + ("--w", -3), "--w must be >= 2", id="train_w_-3"),
    pytest.param(None, TRAIN + ("--w", 1), "--w must be >= 2", id="train_w_1"),
    pytest.param(None, SCENE_CMDS["maps"] + ("--w", 0), "--w must be >= 1",
                 id="maps_w_0"),
    pytest.param(None, SCENE_CMDS["inpaint"] + ("--w", 0), "--w must be >= 1",
                 id="eval_inpaint_ls_w_0"),
    pytest.param(None, EVAL + ("--w", -3), "--w must be >= 1", id="eval_w_-3"),
    pytest.param(None, SCENE_CMDS["sweep"] + ("--w", 0), "--w must be >= 1",
                 id="sweep_w_0"),
    pytest.param(None, SCENE_CMDS["inspect"] + ("--w", 0), "--w must be >= 1",
                 id="inspect_w_0"),
    pytest.param(None, SCENE_CMDS["inspect"] + ("--pixel", "8"),
                 "--pixel takes 2 comma-separated numbers, got '8'",
                 id="inspect_pixel_8"),
    pytest.param(None, SCENE_CMDS["sweep"] + ("--sigmas", "a,b"),
                 "--sigmas takes a list of comma-separated numbers, got 'a,b'",
                 id="sweep_sigmas_a_b"),
]


class TestMalformedInput:
    @pytest.fixture(scope="class")
    def small_scene(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("small") / "scene"
        assert run("render", "--res", 16, "--lights", 20, "--seed", 9,
                   "--out", path) == 0
        return path

    @pytest.mark.parametrize("edit,argv,message", MALFORMED)
    def test_exits_one_naming_the_input(self, small_scene, tmp_path, capsys,
                                        edit, argv, message):
        scene = tmp_path / "scene"
        shutil.copytree(small_scene, scene)
        if edit is not None:
            edit(scene)
        fill = {"scene": scene, "out": tmp_path / "out"}
        assert run(*(str(a).format(**fill) for a in argv)) == 1
        assert capsys.readouterr().err.startswith(
            "error: " + message.format(**fill))
        assert sorted(os.listdir(tmp_path)) == ["scene"]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["render", "--no-such-flag"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_domain_error_returns_one(self, tmp_path):
        status = run("eval", "--scene", tmp_path / "missing", "--out",
                     tmp_path / "r.txt")
        assert status == 1

    def test_console_script_installed(self, tmp_path):
        # The declared script target must be what ``python -m sparseps``
        # runs, so check the declaration, then run it without an install.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["sparseps"] == "sparseps.cli:main"
        proc = run_module("--help", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        for command in SUBCOMMANDS:
            assert command in proc.stdout

    def test_module_without_subcommand_exits_two(self, tmp_path):
        proc = run_module(cwd=tmp_path)
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_module_domain_error_exits_one(self, tmp_path):
        # main() returns 1 here rather than raising SystemExit, so this
        # only passes if the module hands the return code to the process.
        proc = run_module("eval", "--scene", tmp_path / "missing",
                          "--out", tmp_path / "r.txt", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    @pytest.mark.skipif(shutil.which("sparseps") is None,
                        reason="sparseps console script is not on PATH")
    def test_console_script_on_path(self):
        proc = subprocess.run(["sparseps", "--help"], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0
        for command in SUBCOMMANDS:
            assert command in proc.stdout
