"""Command-line entry point.

Subcommands: render (synthesize a scene directory), maps (batch-export
observation maps), train (fit the toy models on synthetic spheres), eval
(trial protocol for one solver), sweep (noise sweep over sigma levels), and
inspect (export one pixel's observation map as PGM).  All randomness is
controlled by --seed; identical invocations produce byte-identical outputs.
Exit codes: 0 success, 1 domain error, 2 usage error.
The CLI runs as the ``sparseps`` script or as ``python -m sparseps``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import DegenerateSamplesError, SparsePSError
from .evaluation import (
    InpaintLsSolver,
    LsSolver,
    ModelSolver,
    TrialConfig,
    noise_sweep,
    run_trials,
    write_report,
)
from .geometry import sample_hemisphere_lights
from .mlp import load_model, save_model
from .obsmap import (
    ObservationMap,
    build_observation_map,
    build_observation_maps,
    save_obsm,
    save_pgm,
)
from .render import BlinnPhong, Lambertian, load_scene, render_sphere, save_scene
from .solvers import TrainConfig, make_training_set, train_alternating


def _at_least(value, least, option):
    """Raise ValueError naming `option` when its value is below `least`."""
    if value < least:
        raise ValueError(f"{option} must be >= {least}, got {value}")


def _numbers(text, option, parse, count=None):
    """The comma-separated values of `option`, each read by `parse`; raises
    ValueError naming the option when one does not parse or, with `count`,
    when there are not `count` of them."""
    try:
        values = [parse(tok) for tok in text.split(",")]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise ValueError(f"{option} takes {count or 'a list of'} comma-separated "
                         f"numbers, got {text!r}")
    return values


def _brdf_from_args(args):
    if args.brdf == "lambertian":
        return Lambertian(albedo=args.albedo)
    if args.brdf == "blinnphong":
        return BlinnPhong(kd=args.kd, ks=args.ks, shininess=args.shininess)
    raise SparsePSError(f"unknown brdf {args.brdf!r}")


def _add_render(sub):
    p = sub.add_parser("render", help="synthesize a sphere scene directory")
    p.add_argument("--shape", default="sphere", choices=["sphere"])
    p.add_argument("--brdf", default="lambertian", choices=["lambertian", "blinnphong"])
    p.add_argument("--albedo", type=float, default=1.0)
    p.add_argument("--kd", type=float, default=0.3)
    p.add_argument("--ks", type=float, default=0.7)
    p.add_argument("--shininess", type=float, default=20.0)
    p.add_argument("--res", type=int, default=64)
    p.add_argument("--lights", type=int, default=300)
    p.add_argument("--max-zenith", type=float, default=75.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _run_render(args):
    rng = np.random.default_rng(args.seed)
    lights = sample_hemisphere_lights(args.lights, args.max_zenith, rng)
    scene = render_sphere(args.res, _brdf_from_args(args), lights)
    scene.meta.update({
        "seed": args.seed,
        "lights": args.lights,
        "max_zenith": args.max_zenith,
    })
    save_scene(scene, args.out)
    print(f"wrote scene with {args.lights} lights to {args.out}")


def _add_maps(sub):
    p = sub.add_parser("maps", help="export observation maps for scene pixels")
    p.add_argument("--scene", required=True)
    p.add_argument("--w", type=int, default=32)
    p.add_argument("--stride", type=int, default=8)
    p.add_argument("--out", required=True)


def _run_maps(args):
    _at_least(args.stride, 1, "--stride")
    _at_least(args.w, 1, "--w")
    scene = load_scene(args.scene)
    grid = np.zeros_like(scene.mask)
    grid[::args.stride, ::args.stride] = True
    rows, cols = np.nonzero(scene.mask & grid)
    values, mask, ok = build_observation_maps(
        scene.lights, scene.images[:, rows, cols], args.w)
    if not ok.all():
        bad = np.argmin(ok)
        raise DegenerateSamplesError(
            f"pixel ({rows[bad]}, {cols[bad]}): all sample irradiance values are zero")
    os.makedirs(args.out, exist_ok=True)
    for row, col, pixel_values in zip(rows, cols, values):
        obs = ObservationMap(pixel_values, mask)
        stem = os.path.join(args.out, f"map_r{row:03d}_c{col:03d}")
        save_obsm(obs, stem + ".obsm")
        save_pgm(obs, stem + ".pgm")
    print(f"wrote {rows.size} observation maps to {args.out}")


def _add_train(sub):
    p = sub.add_parser("train", help="train the toy models on synthetic spheres")
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--lights", type=int, default=10)
    p.add_argument("--w", type=int, default=32)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _epoch_loss(value):
    """An epoch's mean loss; "-" for an epoch without a step of that kind."""
    return "-" if np.isnan(value) else f"{value:.6g}"


def _run_train(args):
    _at_least(args.w, 2, "--w")
    _at_least(args.lights, 1, "--lights")
    _at_least(args.points, 1, "--points")
    rng = np.random.default_rng(args.seed)
    dataset = make_training_set(args.points, args.lights, args.w, rng)
    cfg = TrainConfig(
        learning_rate=args.lr, batch_size=args.batch,
        epochs=args.epochs, seed=args.seed,
    )
    li, ne, trace = train_alternating(dataset, cfg)
    os.makedirs(args.out, exist_ok=True)
    save_model(li, os.path.join(args.out, "li.spln"))
    save_model(ne, os.path.join(args.out, "ne.spln"))
    epochs = [
        f"epoch {epoch} ne {_epoch_loss(g)} li {_epoch_loss(f)}"
        for epoch, (g, f) in enumerate(zip(trace.ne_epoch_mean, trace.li_epoch_mean))
    ]
    with open(os.path.join(args.out, "trace.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"seed={args.seed}\n")
        fh.write(f"ne_steps={trace.ne_steps}\n")
        fh.write(f"li_steps={trace.li_steps}\n")
        for line in epochs:
            fh.write(line + "\n")
    for line in epochs:
        print(line)
    print(f"saved checkpoints to {args.out}")


# The options eval and sweep share, in their --help order.
_TRIAL_OPTIONS = (
    ("--scene", {"required": True}),
    ("--solver", {"default": "ls", "choices": ["ls", "inpaint_ls", "trained"]}),
    ("--model", {"default": None}),
    ("--trials", {"type": int, "default": 100}),
    ("--lights", {"type": int, "default": 10}),
    ("--w", {"type": int, "default": 32}),
    ("--seed", {"type": int, "default": 0}),
    ("--out", {"required": True}),
)


def _add_trial_command(sub, name, summary, after, flag, **kwargs):
    """A subcommand taking the shared trial options plus its own noise
    option `flag`, listed after the shared option `after`."""
    p = sub.add_parser(name, help=summary)
    for shared, options in _TRIAL_OPTIONS:
        p.add_argument(shared, **options)
        if shared == after:
            p.add_argument(flag, **kwargs)


def _solver_from_args(args):
    if args.solver == "ls":
        return LsSolver()
    if args.solver == "inpaint_ls":
        return InpaintLsSolver(w=args.w)
    if args.solver == "trained":
        if not args.model:
            raise SparsePSError("--model is required for the trained solver")
        li = load_model(os.path.join(args.model, "li.spln"))
        ne = load_model(os.path.join(args.model, "ne.spln"))
        return ModelSolver(li, ne, w=args.w)
    raise SparsePSError(f"unknown solver {args.solver!r}")


def _run_eval(args):
    _at_least(args.w, 1, "--w")
    scene = load_scene(args.scene)
    solver = _solver_from_args(args)
    cfg = TrialConfig(n_trials=args.trials, n_lights=args.lights,
                      seed=args.seed, sigma_deg=args.sigma)
    report = run_trials(scene, solver, cfg)
    write_report(report, args.out)
    print(f"{report.solver}: mean angular error "
          f"{report.overall_mean_deg:.6g} deg over {report.n_trials} trials")


def _run_sweep(args):
    _at_least(args.w, 1, "--w")
    sigmas = _numbers(args.sigmas, "--sigmas", float)
    scene = load_scene(args.scene)
    solver = _solver_from_args(args)
    cfg = TrialConfig(n_trials=args.trials, n_lights=args.lights, seed=args.seed)
    reports = noise_sweep(scene, solver, sigmas, cfg)
    os.makedirs(args.out, exist_ok=True)
    for sigma, report in zip(sigmas, reports):
        write_report(report, os.path.join(args.out, f"report_sigma_{sigma:g}.txt"))
        print(f"sigma {sigma:g}: mean error {report.overall_mean_deg:.6g} deg")


def _add_inspect(sub):
    p = sub.add_parser("inspect", help="export one pixel's observation map")
    p.add_argument("--scene", required=True)
    p.add_argument("--pixel", required=True, help="row,col")
    p.add_argument("--w", type=int, default=32)
    p.add_argument("--out", required=True)


def _run_inspect(args):
    _at_least(args.w, 1, "--w")
    row, col = _numbers(args.pixel, "--pixel", int, count=2)
    scene = load_scene(args.scene)
    obs = build_observation_map(scene.pixel_samples(row, col), args.w)
    save_pgm(obs, args.out)
    print(f"wrote {args.w}x{args.w} map for pixel ({row}, {col}) to {args.out}")


_RUNNERS = {
    "render": _run_render,
    "maps": _run_maps,
    "train": _run_train,
    "eval": _run_eval,
    "sweep": _run_sweep,
    "inspect": _run_inspect,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparseps",
        description="sparse photometric stereo toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_render(sub)
    _add_maps(sub)
    _add_train(sub)
    _add_trial_command(sub, "eval", "run the random-trial protocol for one solver",
                       "--lights", "--sigma", type=float, default=0.0)
    _add_trial_command(sub, "sweep", "noise sweep over lighting sigma levels",
                       "--model", "--sigmas", default="0,2,4,6,8")
    _add_inspect(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _RUNNERS[args.command](args)
    except (SparsePSError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
