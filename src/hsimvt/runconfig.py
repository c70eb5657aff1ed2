"""JSON run configuration with full defaults and strict key checking.

Every mpca, model and train key takes its default from the ModelConfig
or TrainConfig field it sets, so the golden path
``synth -> preprocess -> train -> audit`` runs the reference protocol
with no hand-written config at all.
"""

from __future__ import annotations

import copy
import json

from .data import SPLIT_FRACTIONS, check_fractions
from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig

# Each mpca, model and train key sets the one ModelConfig or TrainConfig
# field named here, and takes that field's default and its type.
FIELDS = {
    "mpca": (ModelConfig, {"views": "num_views", "components": "view_components"}),
    "model": (ModelConfig, {
        "patch_size": "patch_size", "encoder_kernels": "encoder_kernels",
        "squeeze_channels": "squeeze_channels", "token_channels": "token_channels",
        "heads": "num_heads", "feature_dim": "feature_dim", "use_sed": "use_sed",
        "use_global_token": "use_global_token"}),
    "train": (TrainConfig, {"epochs": "epochs", "batch": "batch_size",
                            "lr": "learning_rate", "seed": "seed"}),
}


def _field_defaults(section: str) -> dict:
    cls, keys = FIELDS[section]
    return {key: getattr(cls, name) for key, name in keys.items()}


DEFAULTS = {
    "data": {"cube_path": "synth_cube.hsz", "labels_path": "synth_labels.hsz"},
    "mpca": _field_defaults("mpca"),
    "model": _field_defaults("model"),
    "train": {**_field_defaults("train"), "fractions": list(SPLIT_FRACTIONS)},
    "output": {"dir": "."},
}


class RunConfig:
    """Merged defaults + user overrides; rejects unknown sections/keys.

    Each key takes the type of its default value; an int is accepted
    where a float is expected (and promoted), a bool never where an int is.
    """

    def __init__(self, doc: dict = None):
        doc = {} if doc is None else doc
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
                want = type(DEFAULTS[section][key])
                if want is float and isinstance(value, int) and not isinstance(value, bool):
                    value = float(value)
                if not isinstance(value, want) or (want is int and isinstance(value, bool)):
                    raise ConfigError(
                        f"{section}.{key} must be {want.__name__}, "
                        f"got {type(value).__name__}")
                merged[section][key] = value
        check_fractions(merged["train"]["fractions"])
        self.doc = merged
        # The library configs check the other values; 2 classes is the
        # fewest a model takes, and the labels supply the real count.
        self.train_config()
        self.model_config(2)

    @classmethod
    def load(cls, path=None) -> "RunConfig":
        """Read a JSON config file; None means pure defaults."""
        if path is None:
            return cls()
        with open(path, encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
            except RecursionError:
                raise ConfigError(f"{path}: JSON nested too deeply") from None
        if doc is None:  # a file holding `null` does not mean the defaults
            raise ConfigError(f"{path}: run config must be a JSON object, got null")
        return cls(doc)

    def __getitem__(self, section: str) -> dict:
        return self.doc[section]

    @property
    def fractions(self):
        return tuple(float(v) for v in self.doc["train"]["fractions"])

    @property
    def mpca_shape(self):
        """(views, components) that preprocessing reduces the cube to."""
        return self.doc["mpca"]["views"], self.doc["mpca"]["components"]

    def _fields(self, section: str) -> dict:
        """The library fields that ``section``'s keys set, by field name."""
        _, keys = FIELDS[section]
        return {name: self.doc[section][key] for key, name in keys.items()}

    def model_config(self, num_classes: int) -> ModelConfig:
        """The architecture the mpca and model sections set, for ``num_classes``."""
        return ModelConfig(num_classes=num_classes, **self._fields("mpca"),
                           **self._fields("model"))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._fields("train"))
