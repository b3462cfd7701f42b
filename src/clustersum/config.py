"""Run configuration: presets, key=value config files, CLI overrides.

``PipelineConfig`` is the one place a run setting is declared and given a
default. The trainers, the sampler and the stage bodies take the whole
configuration and read the fields they need; no other module restates a
setting or its default.

Precedence is CLI > file > preset defaults. The canonical rendering of a
configuration hashes to a run fingerprint; artifacts record it so a later
phase refuses to mix with artifacts built under a different configuration.
A value no stage could run with is rejected when the configuration is built.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .tokenizer import SPECIAL_TOKENS


class ConfigError(Exception):
    """Bad configuration file, value, or combination."""


@dataclass(frozen=True)
class PipelineConfig:
    # model scale
    preset: str = "desk"            # desk | paper
    max_len: int = 64
    dropout: float = 0.1
    # clustering
    clustering: str = "kmeans"      # kmeans | labels
    num_clusters: int = 2
    # ablation toggles
    no_pretraining: bool = False
    no_decoder_init: bool = False
    unweighted_ce: bool = False
    # vocabulary
    vocab_max_size: int = 2000
    vocab_min_count: int = 1
    # masked-token pretraining
    mlm_epochs: int = 30
    mlm_batch_size: int = 8
    mlm_lr: float = 1e-3
    mlm_warmup_steps: int = 100
    mask_rate: float = 0.15
    # classifier fine-tuning
    finetune_epochs: int = 10
    finetune_batch_size: int = 8
    finetune_lr: float = 3e-3
    finetune_warmup_steps: int = 20
    # decoder training
    decoder_epochs: int = 20
    decoder_batch_size: int = 4
    decoder_lr: float = 2e-3
    decoder_warmup_steps: int = 50
    # shared training knobs
    weight_decay: float = 0.01
    val_fraction: float = 0.1
    seed: int = 0
    # summary sampling: each step keeps the top_k most probable next tokens
    # (at most the vocabulary) and, among those, the shortest prefix whose
    # mass reaches top_p
    top_k: int = 50
    top_p: float = 0.95
    num_candidates: int = 10
    max_summary_len: int = 32
    temperature: float = 1.0
    retain_top_m: int = 1

    def __post_init__(self):
        if self.preset not in ("desk", "paper"):
            raise ConfigError(f"unknown preset {self.preset!r} (expected desk or paper)")
        if self.clustering not in ("kmeans", "labels"):
            raise ConfigError(f"unknown clustering mode {self.clustering!r}")
        if self.num_clusters < 1:
            raise ConfigError(f"num_clusters must be at least 1, got {self.num_clusters}")
        # [CLS] and [SEP] frame every document, and pretraining masks at
        # least one body token between them
        if self.max_len < 3:
            raise ConfigError(f"max_len must be at least 3, got {self.max_len}")
        if self.vocab_max_size <= len(SPECIAL_TOKENS):
            raise ConfigError(f"vocab_max_size must exceed the {len(SPECIAL_TOKENS)} special "
                              f"tokens, got {self.vocab_max_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not 0.0 < self.mask_rate <= 1.0:
            raise ConfigError(f"mask_rate must lie in (0, 1], got {self.mask_rate}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        # the last generated token is decoded at position max_summary_len - 1
        if self.max_summary_len > self.max_len:
            raise ConfigError(
                f"max_summary_len {self.max_summary_len} exceeds max_len {self.max_len}"
            )
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith(("_epochs", "_batch_size")) and value < 1:
                raise ConfigError(f"{f.name} must be at least 1, got {value}")
            if f.name.endswith("_lr") and value <= 0:
                raise ConfigError(f"{f.name} must be positive, got {value}")
            if f.name.endswith("_warmup_steps") and value < 0:
                raise ConfigError(f"{f.name} must be non-negative, got {value}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        # every RNG stream is seeded with [seed, ...], which numpy refuses if negative
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name in ("top_k", "num_candidates", "max_summary_len", "retain_top_m"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0.0 < self.top_p <= 1.0:
            raise ConfigError(f"top_p must lie in (0, 1], got {self.top_p}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")

    @classmethod
    def paper_scale(cls) -> "PipelineConfig":
        """Full-scale training constants; impractical without matching compute."""
        return cls(
            preset="paper", max_len=512,
            vocab_max_size=30000,
            mlm_epochs=50, mlm_batch_size=32, mlm_lr=1e-4, mlm_warmup_steps=80000,
            finetune_epochs=10, finetune_batch_size=32, finetune_lr=3e-5,
            finetune_warmup_steps=1000,
            decoder_epochs=40, decoder_batch_size=8, decoder_lr=1e-4,
            decoder_warmup_steps=20000,
            max_summary_len=128,
        )

    @classmethod
    def for_preset(cls, preset: str) -> "PipelineConfig":
        if preset == "paper":
            return cls.paper_scale()
        if preset == "desk":
            return cls()
        raise ConfigError(f"unknown preset {preset!r}")

    @property
    def uses_labels(self) -> bool:
        return self.clustering == "labels"

    def canonical_string(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name}={getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_string().encode("utf-8")).hexdigest()


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}
_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_setting(text: str) -> tuple[str, object]:
    """Split one ``KEY=VALUE`` setting and convert the value to the field's type."""
    if "=" not in text:
        raise ConfigError(f"expected KEY=VALUE, got {text!r}")
    key, raw = (part.strip() for part in text.split("=", 1))
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    if kind == "bool":
        low = raw.lower()
        if low in _TRUE:
            return key, True
        if low in _FALSE:
            return key, False
        raise ConfigError(f"bad boolean for {key!r}: {raw!r}")
    if kind == "int":
        try:
            return key, int(raw)
        except ValueError as exc:
            raise ConfigError(f"bad integer for {key!r}: {raw!r}") from exc
    if kind == "float":
        try:
            return key, float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad float for {key!r}: {raw!r}") from exc
    return key, raw


def parse_config_file(path: str | Path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blanks skipped."""
    overrides = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            key, value = parse_setting(stripped)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        overrides[key] = value
    return overrides


def build_config(
    file_path: str | Path | None = None,
    cli_overrides: dict | None = None,
) -> PipelineConfig:
    """Layer preset defaults, then the config file, then CLI overrides."""
    file_overrides = parse_config_file(file_path) if file_path else {}
    cli_overrides = {k: v for k, v in (cli_overrides or {}).items() if v is not None}
    preset = cli_overrides.get("preset", file_overrides.get("preset", "desk"))
    config = PipelineConfig.for_preset(preset)
    merged = {**file_overrides, **cli_overrides}
    merged.pop("preset", None)
    unknown = set(merged) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    try:
        return replace(config, **merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
