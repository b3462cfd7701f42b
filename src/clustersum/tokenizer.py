"""Corpus-driven vocabulary and document encoding.

Word-level tokenization: text is lowercased and split into ``\\w+`` runs,
punctuation discarded. Every encoded document is framed as
``[CLS] tokens... [SEP]`` and truncated to the configured maximum length.
The five special tokens occupy fixed low ids.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .checkpoint import atomic_write

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)

_TOKEN_RE = re.compile(r"\w+")


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; whitespace and punctuation are separators."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    """Immutable token/id mapping, stored as ``id_to_token``, whose first
    entries are ``SPECIAL_TOKENS`` at the fixed ids ``PAD_ID``...``MASK_ID``;
    ``token_to_id`` is its inverse, built on construction."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def save(self, path: str | Path) -> None:
        """One token per line; the line number is the id, specials first.
        Written atomically: a failed write leaves the old file as it was."""
        with atomic_write(path) as fh:
            fh.write(("\n".join(self.id_to_token) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        tokens = Path(path).read_text(encoding="utf-8").splitlines()
        if tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise ValueError(f"vocabulary file {path} does not start with the special tokens")
        return cls(tokens)


def build_vocab(corpus: Iterable[str], max_size: int, min_count: int = 1) -> Vocabulary:
    """Rank tokens by frequency (ties lexicographic) and keep the top ones.

    ``max_size`` bounds the total vocabulary including the five specials.
    """
    if max_size <= len(SPECIAL_TOKENS):
        raise ValueError(f"max_size must exceed {len(SPECIAL_TOKENS)}, got {max_size}")
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(tokenize(text))
    if not counts:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    kept = ranked[: max_size - len(SPECIAL_TOKENS)]
    return Vocabulary(list(SPECIAL_TOKENS) + kept)


@dataclass
class EncodedDocument:
    """A document as a token-id sequence framed by [CLS] and [SEP]."""

    doc_id: str
    ids: list[int]
    label: int | None = None


def encode(
    text: str,
    vocab: Vocabulary,
    max_len: int,
    doc_id: str = "",
    label: int | None = None,
) -> EncodedDocument:
    """Tokenize, map unknowns to [UNK], truncate, and frame with specials."""
    if max_len < 2:
        raise ValueError(f"max_len must be at least 2, got {max_len}")
    body = [vocab.token_to_id.get(t, UNK_ID) for t in tokenize(text)][: max_len - 2]
    return EncodedDocument(doc_id=doc_id, ids=[CLS_ID] + body + [SEP_ID], label=label)


def pad_batch(sequences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad token-id sequences with [PAD] to the longest one.

    Returns ids ``[b, t]`` and each sequence's length ``[b]``.
    """
    if len(sequences) == 0 or any(np.ndim(s) != 1 for s in sequences):
        raise ValueError("expected a non-empty batch of token-id sequences")
    lengths = np.array([len(s) for s in sequences], dtype=np.intp)
    ids = np.full((len(sequences), int(lengths.max())), PAD_ID, dtype=np.intp)
    for row, seq in enumerate(sequences):
        ids[row, :len(seq)] = seq
    return ids, lengths


def decode(ids: Sequence[int], vocab: Vocabulary) -> str:
    """The ids' tokens, special tokens left out, joined by spaces."""
    return " ".join(vocab.id_to_token[i] for i in ids if i >= len(SPECIAL_TOKENS))


def mask_for_mlm(
    doc: EncodedDocument,
    rate: float,
    rng: np.random.Generator,
) -> tuple[list[int], list[int], list[int]]:
    """Mask a random subset of body positions for masked-token prediction.

    Selects ``round(rate * body_length)`` positions, at least one, uniformly
    among non-special body positions, and replaces each selected token with
    [MASK].

    Returns ``(masked_ids, positions, original_ids)`` with positions sorted.
    """
    body_len = len(doc.ids) - 2
    if body_len < 1:
        raise ValueError(f"document {doc.doc_id!r} has no body tokens to mask")
    count = max(1, round(rate * body_len))
    positions = sorted(rng.choice(np.arange(1, body_len + 1), size=count, replace=False).tolist())
    masked = list(doc.ids)
    originals = [doc.ids[p] for p in positions]
    for p in positions:
        masked[p] = MASK_ID
    return masked, positions, originals
