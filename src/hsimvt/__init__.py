"""Multiview-PCA transformer toolkit for hyperspectral image classification.

Pipeline: min-max normalize a hyperspectral cube, split its bands into
interleaved views, reduce each view with PCA, then classify each pixel's
patch with a small convolutional encoder-decoder followed by a
quadrant-token attention block. Everything runs on a scratch-built numpy
tensor engine with reverse-mode autodiff.
"""

from .data import (HsiCube, LabelMap, PatchSource, SplitAssignment, load_cube,
                   load_labels, mmnorm, rotate180, save_cube, save_labels,
                   stratified_split, synth_scene)
from .errors import (CompatibilityError, ConfigError, DegenerateInputError,
                     DimensionError, DivergenceError, FormatError, HsimvtError,
                     PayloadLengthError, UsageError)
from .experiments import preprocess, run_once, sweep, write_sweep_csv
from .gradcheck import GradCheckReport, check_gradients
from .metrics import (MetricsReport, RotationAudit, confusion_matrix, evaluate,
                      predict_coords, report_from_confusion, rotation_audit)
from .model import (ModelConfig, ModelParams, assemble_tokens,
                    feature_and_classify, forward, load_params, multi_head,
                    predict, quadrant_bounds, save_params, sed_forward,
                    tokenize)
from .mpca import (PcaModel, ViewSpec, build_views, fit_pca, load_pca_models,
                   mpca, save_pca_models, transform_view, view_spec)
from .render import class_palette, render_class_map, write_ppm
from .runconfig import RunConfig
from .tensor import GradGraph, Tensor
from .training import (AdamState, TrainConfig, TrainResult, adam_step,
                       cross_entropy, derive_seeds, train)

__version__ = "0.1.0"
