"""Experiment specification: explicit-key YAML in, validated dataclasses out.

Every field has an embedded default; the fully resolved spec (defaults
applied) is what gets hashed and echoed into the run manifest, so a
change of defaults between versions is visible as a hash change.
Each block validates itself when it is built: every field must have its
declared type, every number must be finite, and the loss block must lie
in the calibrated domain (``kernel.check_domain``), so a block in hand is
always valid and the library code downstream can rely on it.  A block
built in code raises ``DomainError``; ``load_spec`` reports the same
failure as a ``SpecError``, before any computation or output.  The
spec checks itself when it is built too (its seeds, and the TAL
calibration of its dataset, ``check_calibration``) and raises ``SpecError``.
"""

from __future__ import annotations

import re
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .calibration import solve_calibration
from .errors import DomainError, SolverError, SpecError
from .kernel import check_domain
from .loss import _check_epsilon

__all__ = [
    "DatasetBlock",
    "ScheduleBlock",
    "LossBlock",
    "ExperimentSpec",
    "check_calibration",
    "load_spec",
]

_KEY_RENAMES = {"lambda": "lam"}
_SPEC_KEYS = {v: k for k, v in _KEY_RENAMES.items()}
_TYPE_NAMES = {"int": "an integer", "float": "a finite number", "bool": "true or false", "str": "a string"}


def _is_int(value) -> bool:
    """An int that is not a bool (YAML ``true`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_types(block, where: str) -> None:
    """Each field holds its annotated type.  ``2.0`` is not an int, a bool
    is not a number, and a float field takes any finite int or float."""
    for f in fields(block):
        value = getattr(block, f.name)
        if f.type == "int":
            ok = _is_int(value)
        elif f.type == "float":
            # abs(nan) and abs(inf) both fail the bound; ints compare exactly
            ok = (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max
        elif f.type == "bool":
            ok = isinstance(value, bool)
        else:
            ok = isinstance(value, str)
        if not ok:
            key = _SPEC_KEYS.get(f.name, f.name)
            raise DomainError(f"{where}.{key} must be {_TYPE_NAMES[f.type]}, got {value!r}")


@dataclass(frozen=True)
class DatasetBlock:
    classes: int = 10
    dim: int = 16
    tasks: int = 5
    per_class: int = 100
    test_per_class: int = 100
    sep: float = 2.5
    cov_scale: float = 1.0

    def validate(self):
        _check_types(self, "dataset")
        if self.classes < 2:
            raise DomainError("dataset.classes must be at least 2")
        if self.tasks < 1 or self.classes % self.tasks != 0:
            raise DomainError(
                f"dataset.classes={self.classes} must be divisible by dataset.tasks={self.tasks}"
            )
        if self.dim < 1 or self.per_class < 1 or self.test_per_class < 1:
            raise DomainError("dataset sizes must be positive")
        if self.sep <= 0 or self.cov_scale <= 0:
            raise DomainError("dataset.sep and dataset.cov_scale must be positive")

    __post_init__ = validate


@dataclass(frozen=True)
class ScheduleBlock:
    replay_per_class: int = 20
    epochs: int = 20
    batch_size: int = 32
    lr: float = 0.1
    hidden: int = 0

    def validate(self):
        _check_types(self, "schedule")
        if self.replay_per_class < 0:
            raise DomainError("schedule.replay_per_class cannot be negative")
        if self.epochs < 1 or self.batch_size < 1:
            raise DomainError("schedule.epochs and schedule.batch_size must be positive")
        if self.lr <= 0:
            raise DomainError("schedule.lr must be positive")
        if self.hidden < 0:
            raise DomainError("schedule.hidden cannot be negative")

    __post_init__ = validate


@dataclass(frozen=True)
class LossBlock:
    kind: str = "TAL"
    lam: float = 0.995
    r: float = 1.0
    epsilon: float = 1e-12
    exploratory: bool = False

    def validate(self):
        _check_types(self, "loss")
        if self.kind not in ("CE", "TAL"):
            raise DomainError(f"loss.kind must be CE or TAL, got {self.kind!r}")
        _check_epsilon(self.epsilon)
        check_domain(self.lam, self.r, self.exploratory)

    __post_init__ = validate


def check_calibration(dataset: DatasetBlock, loss: LossBlock) -> None:
    """A TAL loss block needs at least 2 classes per task of the dataset and
    a calibration that a double can hold at its final class count; a
    ``SpecError`` otherwise.  A CE block always passes."""
    if loss.kind != "TAL":
        return
    classes, tasks = dataset.classes, dataset.tasks
    if classes // tasks < 2:
        raise SpecError(
            f"loss.kind TAL needs at least 2 classes per task "
            f"(dataset.classes={classes}, dataset.tasks={tasks})"
        )
    # alpha = 1/x*^r grows with the class count, so if the last task's
    # calibration is representable, every earlier one is too
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            solve_calibration(classes, loss.r, strict=not loss.exploratory)
    except (DomainError, SolverError) as exc:
        raise SpecError(f"loss.r={loss.r!r} cannot be calibrated: {exc}") from exc


@dataclass(frozen=True)
class ExperimentSpec:
    dataset: DatasetBlock = field(default_factory=DatasetBlock)
    schedule: ScheduleBlock = field(default_factory=ScheduleBlock)
    loss: LossBlock = field(default_factory=LossBlock)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    output_dir: str | None = None

    def validate(self):
        check_calibration(self.dataset, self.loss)
        if not isinstance(self.seeds, (list, tuple)) or not self.seeds:
            raise SpecError("seeds must be a non-empty list")
        if not all(_is_int(s) and s >= 0 for s in self.seeds):
            raise SpecError("seeds must be nonnegative integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise SpecError(f"seeds must be unique, got {list(self.seeds)}")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise SpecError(f"output_dir must be a string, got {self.output_dir!r}")

    __post_init__ = validate

    def resolved_dict(self) -> dict:
        """Fully materialized mapping (defaults applied) for hashing/echoing."""
        out = asdict(self)
        out["seeds"] = list(self.seeds)
        out["loss"]["lambda"] = out["loss"].pop("lam")
        return out


def _build_block(cls, mapping, where: str):
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise SpecError(f"{where} must be a mapping")
    known = set(cls.__dataclass_fields__)
    kwargs = {}
    for key, value in mapping.items():
        name = _KEY_RENAMES.get(key, key)
        if name not in known:
            raise SpecError(f"unknown key {key!r} in {where}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except DomainError as exc:
        raise SpecError(f"bad value in {where}: {exc}") from exc


def spec_from_mapping(data: dict) -> ExperimentSpec:
    if not isinstance(data, dict):
        raise SpecError("spec root must be a mapping")
    unknown = set(data) - {"dataset", "schedule", "loss", "seeds", "output_dir"}
    if unknown:
        raise SpecError(f"unknown top-level keys: {sorted(unknown)}")
    seeds = data.get("seeds", ExperimentSpec.__dataclass_fields__["seeds"].default)
    if isinstance(seeds, list):
        seeds = tuple(seeds)
    return ExperimentSpec(
        dataset=_build_block(DatasetBlock, data.get("dataset"), "dataset"),
        schedule=_build_block(ScheduleBlock, data.get("schedule"), "schedule"),
        loss=_build_block(LossBlock, data.get("loss"), "loss"),
        seeds=seeds,
        output_dir=data.get("output_dir"),
    )


class _SpecLoader(yaml.SafeLoader):
    """Safe YAML 1.1, which reads ``1e-3`` as a string, plus YAML 1.2's exponent floats."""


_SpecLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_spec(path) -> ExperimentSpec:
    path = Path(path)
    if not path.is_file():
        raise SpecError(f"spec file not found: {path}")
    try:
        data = yaml.load(path.read_bytes(), Loader=_SpecLoader)  # undecodable: a YAMLError
    except yaml.YAMLError as exc:
        raise SpecError(f"could not parse {path}: {exc}") from exc
    if data is None:
        data = {}
    return spec_from_mapping(data)
