"""Sparse photometric stereo toolkit.

Recovers per-pixel surface normals from images taken under a handful of
known directional lights.  The package provides the observation-map
representation with its mirror operator, symmetry-based loss functions
with analytic gradients, a synthetic sphere renderer with isotropic BRDFs,
a classical least-squares baseline, small trainable interpolation/estimation
models, and a reproducible evaluation harness.
"""

from .errors import (
    DegenerateLightingError,
    DegenerateSamplesError,
    DivergenceError,
    HemisphereError,
    NormalizationError,
    ShapeError,
    SparsePSError,
)
from .geometry import (
    VIEW_DIR,
    angular_error_deg,
    load_lights,
    normalize,
    perturb_light,
    sample_hemisphere_lights,
    save_lights,
)
from .obsmap import (
    ObservationMap,
    PixelSamples,
    axis_from_normal,
    build_observation_map,
    map_cell_lights,
    mirror,
    project_light,
)
from .render import (
    BlinnPhong,
    Lambertian,
    OccluderCone,
    RenderedScene,
    inject_cast_shadow,
    load_scene,
    make_dense_gt_map,
    render_sphere,
    save_scene,
    shade,
)
from .losses import (
    LossWeights,
    asym_loss,
    finite_diff_check,
    grad_map,
    li_recon_loss,
    li_total_loss,
    ne_recon_loss,
    ne_total_loss,
    sym_loss,
)
from .mlp import MlpModel, load_model, save_model
from .solvers import (
    TrainConfig,
    TrainTrace,
    ls_normal,
    make_training_set,
    new_li_model,
    new_ne_model,
    symmetry_inpaint,
    train_alternating,
)
from .evaluation import (
    EvalReport,
    TrialConfig,
    noise_sweep,
    outlier_sensitivity,
    read_report,
    run_trials,
    write_report,
)

__version__ = "0.1.0"
