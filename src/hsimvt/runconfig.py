"""JSON run configuration with full defaults and strict key checking.

The defaults reproduce the reference protocol (10 views x 3 components,
5x5 patches, 64 token channels, 8 heads, 300 epochs, batch 64, Adam at
1e-4, a 5/5/90 split), so the golden path
``synth -> preprocess -> train -> audit`` runs with no hand-written
config at all.
"""

from __future__ import annotations

import copy
import json
import math

from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig

DEFAULTS = {
    "data": {
        "cube_path": "synth_cube.hsz",
        "labels_path": "synth_labels.hsz",
    },
    "mpca": {
        "views": 10,
        "components": 3,
        "enabled": True,
    },
    "model": {
        "patch_size": 5,
        "encoder_kernels": 8,
        "squeeze_channels": 40,
        "token_channels": 64,
        "heads": 8,
        "feature_dim": 64,
        "use_sed": True,
        "use_global_token": True,
    },
    "train": {
        "epochs": 300,
        "batch": 64,
        "lr": 1e-4,
        "seed": 0,
        "fractions": [0.05, 0.05, 0.90],
    },
    "output": {
        "dir": ".",
    },
}

_TYPES = {
    ("data", "cube_path"): str,
    ("data", "labels_path"): str,
    ("mpca", "views"): int,
    ("mpca", "components"): int,
    ("mpca", "enabled"): bool,
    ("model", "patch_size"): int,
    ("model", "encoder_kernels"): int,
    ("model", "squeeze_channels"): int,
    ("model", "token_channels"): int,
    ("model", "heads"): int,
    ("model", "feature_dim"): int,
    ("model", "use_sed"): bool,
    ("model", "use_global_token"): bool,
    ("train", "epochs"): int,
    ("train", "batch"): int,
    ("train", "lr"): float,
    ("train", "seed"): int,
    ("train", "fractions"): list,
    ("output", "dir"): str,
}


class RunConfig:
    """Merged defaults + user overrides; rejects unknown sections/keys."""

    def __init__(self, doc: dict = None):
        doc = doc or {}
        if not isinstance(doc, dict):
            raise ConfigError(f"run config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown run config sections: {sorted(unknown)}")
        merged = copy.deepcopy(DEFAULTS)
        for section, values in doc.items():
            if not isinstance(values, dict):
                raise ConfigError(f"section {section!r} must be a JSON object")
            bad = set(values) - set(DEFAULTS[section])
            if bad:
                raise ConfigError(f"unknown keys in section {section!r}: {sorted(bad)}")
            for key, value in values.items():
                want = _TYPES[(section, key)]
                if want is float and isinstance(value, int) and not isinstance(value, bool):
                    value = float(value)
                if not isinstance(value, want) or (want is int and isinstance(value, bool)):
                    raise ConfigError(
                        f"{section}.{key} must be {want.__name__}, "
                        f"got {type(value).__name__}")
                merged[section][key] = value
        fr = merged["train"]["fractions"]
        if len(fr) != 3 or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                   for v in fr):
            raise ConfigError("train.fractions must be three numbers")
        if not all(math.isfinite(v) and v >= 0 for v in fr):
            raise ConfigError(f"train.fractions must be finite and non-negative, got {fr}")
        self.doc = merged

    @classmethod
    def load(cls, path=None) -> "RunConfig":
        """Read a JSON config file; None means pure defaults."""
        if path is None:
            return cls()
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return cls(doc)

    def __getitem__(self, section: str) -> dict:
        return self.doc[section]

    @property
    def fractions(self):
        return tuple(float(v) for v in self.doc["train"]["fractions"])

    def model_config(self, num_classes: int) -> ModelConfig:
        """Build the architecture config; channel width comes from the mpca section."""
        m = self.doc["model"]
        p = self.doc["mpca"]
        if p["enabled"]:
            views, components = p["views"], p["components"]
        else:
            views, components = 1, p["views"] * p["components"]
        return ModelConfig(
            patch_size=m["patch_size"],
            num_views=views,
            view_components=components,
            encoder_kernels=m["encoder_kernels"],
            squeeze_channels=m["squeeze_channels"],
            token_channels=m["token_channels"],
            num_heads=m["heads"],
            feature_dim=m["feature_dim"],
            num_classes=num_classes,
            use_sed=m["use_sed"],
            use_global_token=m["use_global_token"],
        )

    def train_config(self) -> TrainConfig:
        t = self.doc["train"]
        return TrainConfig(epochs=t["epochs"], batch_size=t["batch"],
                           learning_rate=t["lr"], seed=t["seed"])
