"""Flat `key = value` run-configuration files.

Lines starting with `#` and blank lines are ignored, and a value may not
hold a trailing comment. Every key has a documented default; unknown keys
are rejected. The model keys are `PacrrConfig`'s fields and its checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .corpus import CANONICAL_GRADES, write_atomic
from .errors import ConfigError
from .model import PacrrConfig


@dataclass
class RunConfig:
    # input/output paths
    corpus: str | None = None
    queries: str | None = None
    qrels: str | None = None
    embeddings: str | None = None
    run: str | None = None
    train_qids: str | None = None
    val_qids: str | None = None
    out_dir: str = "out"
    # model keys, written flat in the file
    model: PacrrConfig = field(default_factory=PacrrConfig)
    # training
    iterations: int = 150
    batches_per_iteration: int = 64
    # evaluation
    run_tag: str = "pacrr"
    # optional raw-grade remapping, e.g. "-1:0,5:4"
    grade_map: str | None = None

    def __post_init__(self):
        for key in ("iterations", "batches_per_iteration"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.run_tag.split() != [self.run_tag]:
            raise ConfigError(f"run_tag must be one token without whitespace, got "
                              f"{self.run_tag!r}")
        self.parsed_grade_map()

    def parsed_grade_map(self) -> dict[int, int] | None:
        if not self.grade_map:
            return None
        mapping = {}
        for item in self.grade_map.split(","):
            try:
                raw, canonical = map(int, item.split(":"))
            except ValueError:
                raise ConfigError(f"bad grade_map entry {item!r}") from None
            if canonical not in CANONICAL_GRADES:
                raise ConfigError(f"grade_map entry {item!r}: {canonical} is not a "
                                  f"canonical grade {sorted(CANONICAL_GRADES)}")
            mapping[raw] = canonical
        return mapping

    def require_paths(self, *names: str) -> None:
        """Check that the named path fields are set and exist on disk."""
        for name in names:
            value = getattr(self, name)
            if value is None:
                raise ConfigError(f"config is missing the required path {name!r}")
            if not Path(value).exists():
                raise ConfigError(f"{name} path does not exist: {value}")


# Whitespace then '#' in a value is read as a trailing comment and refused.
_TRAILING_COMMENT = re.compile(r"\s#")
_MODEL_KEYS = {f.name for f in fields(PacrrConfig)}
_FIELD_TYPES = {f.name: f.type for f in (*fields(RunConfig), *fields(PacrrConfig))
                if f.name != "model"}
_INT_KEYS = {name for name, t in _FIELD_TYPES.items() if t == "int"}
_FLOAT_KEYS = {name for name, t in _FIELD_TYPES.items() if t == "float"}


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Parse a config file (if given) and apply overrides on top of defaults."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        if not path.is_file():
            raise ConfigError(f"config path is not a file: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8 ({exc.reason})") from None
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if _TRAILING_COMMENT.search(raw):
                raise ConfigError(f"{key} on {path}:{lineno} has a trailing comment; "
                                  "comments must be whole lines")
            raw = raw.strip()
            try:
                if key in _INT_KEYS:
                    values[key] = int(raw)
                elif key in _FLOAT_KEYS:
                    values[key] = float(raw)
                else:
                    values[key] = raw
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}") from None
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        model = PacrrConfig(**{key: values.pop(key) for key in _MODEL_KEYS & set(values)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(model=model, **values)


def run_config_text(config: RunConfig) -> str:
    """The text `write_run_config` writes: one `key = value` line per set
    key. Raises ConfigError, naming the key, for a value `load_run_config`
    would not read back unchanged: one holding whitespace followed by '#'
    (a trailing comment), a line break, or leading or trailing whitespace."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        items = value.to_dict().items() if f.name == "model" else [(f.name, value)]
        for key, item in items:
            if item is None:
                continue
            text = str(item)
            if _TRAILING_COMMENT.search(f" {text}"):
                raise ConfigError(f"{key} value {item!r} holds whitespace followed by '#', "
                                  "which a config file reads as a trailing comment")
            if text != text.strip() or len(text.splitlines()) > 1:
                raise ConfigError(f"{key} value {item!r} holds a line break or leading or "
                                  "trailing whitespace, which a config file does not read "
                                  "back")
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def write_run_config(config: RunConfig, path) -> None:
    write_atomic(path, run_config_text(config).encode("utf-8"))
