"""Deterministic toy text encoder.

Stands in for a large pretrained text encoder: tokens map to fixed unit
vectors drawn from a counter-based generator keyed on (token hash, seed),
so the same token always embeds identically across runs and platforms.
Also hosts verb extraction, the box-position MLP, and the construction of
position-augmented instance embeddings.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from functools import cache, lru_cache
from importlib import resources
from typing import Sequence

import numpy as np

from .errors import MalformedDoc, ShapeMismatch, read_utf8
from .layout import BBox

EMPTY_TOKEN = "⟨empty⟩"  # sentinel for empty input

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


def load_verb_lexicon(path) -> frozenset[str]:
    """Read a lexicon file: one lowercase verb stem per line, '#' comments."""
    stems = set()
    for line in read_utf8(path).split("\n"):
        line = line.split("#", 1)[0].strip()
        if line:
            stems.add(line.lower())
    if not stems:
        raise MalformedDoc(f"lexicon {path} names no verb")
    return frozenset(stems)


@cache
def default_verb_lexicon() -> frozenset[str]:
    """Lexicon shipped with the package (~60 common relation verbs), read
    once per process."""
    with resources.as_file(resources.files("radl").joinpath("data/verbs.txt")) as path:
        return load_verb_lexicon(path)


@dataclass(frozen=True)
class EmbedderConfig:
    """Toy embedder settings: width, seed, and the relation-verb lexicon."""

    dim: int = 8
    seed: int = 0
    verb_lexicon: frozenset[str] = field(default_factory=default_verb_lexicon)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"embedding dim must be >= 2, got {self.dim}")
        if not self.verb_lexicon:
            raise ValueError("verb lexicon must be non-empty")


@dataclass(frozen=True)
class EmbeddingSeq:
    """L x d sequence of token embeddings, or a stack (K, L, d) of sequences
    padded to the longest, with `keep` (K, L) False on the padding tokens."""

    values: np.ndarray
    keep: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim not in (2, 3) or v.shape[-2] < 1:
            raise ShapeMismatch(f"embedding sequence must be ([K,] L>=1, d), got {v.shape}")
        if self.keep is not None and self.keep.shape != v.shape[:-1]:
            raise ShapeMismatch(f"token mask {self.keep.shape} does not match {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def length(self) -> int:
        return self.values.shape[-2]

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @staticmethod
    def pack(seqs: Sequence["EmbeddingSeq"]) -> "EmbeddingSeq":
        """Stack sequences, padding each with zero tokens to the longest."""
        longest = max(s.length for s in seqs)
        values = np.zeros((len(seqs), longest, seqs[0].dim))
        keep = np.zeros((len(seqs), longest), dtype=bool)
        for j, s in enumerate(seqs):
            values[j, : s.length] = s.values
            keep[j, : s.length] = True
        return EmbeddingSeq(values, keep)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace/punctuation, drop empties.

    Empty input yields the single sentinel token so downstream attention
    always has at least one key.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    return tokens if tokens else [EMPTY_TOKEN]


def _hash64(token: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "little"
    )


@lru_cache(maxsize=65536)
def _token_vector(token: str, dim: int, seed: int) -> np.ndarray:
    # Philox is counter-based: the (token hash, seed) key fully determines
    # the stream, independent of call order.  Cached vectors are never
    # mutated (embed_tokens stacks copies).
    key = (_hash64(token) << 64) | (seed & 0xFFFFFFFFFFFFFFFF)
    rng = np.random.Generator(np.random.Philox(key=key))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def embed_tokens(tokens: list[str], cfg: EmbedderConfig) -> EmbeddingSeq:
    """Embed tokens as deterministic pseudorandom unit vectors."""
    if not tokens:
        raise ShapeMismatch("embed_tokens requires at least one token")
    rows = np.stack([_token_vector(t, cfg.dim, cfg.seed) for t in tokens])
    return EmbeddingSeq(rows)


def _ing_stems(token: str) -> list[str]:
    # "leaning" -> lean; "riding" -> rid/ride; "sitting" -> sitt/sit
    if not token.endswith("ing") or len(token) <= 3:
        return []
    stem = token[:-3]
    candidates = [stem, stem + "e"]
    if len(stem) >= 2 and stem[-1] == stem[-2]:
        candidates.append(stem[:-1])
    return candidates


def extract_verbs(prompt: str, cfg: EmbedderConfig) -> list[str]:
    """Tokens of the prompt that name relation verbs, in order, dups kept.

    A token matches if it is in the lexicon, or ends in "ing" with a stem
    in the lexicon.  An empty result is legal (relation branch disabled).
    """
    out = []
    for tok in tokenize(prompt):
        if tok == EMPTY_TOKEN:
            continue
        if tok in cfg.verb_lexicon:
            out.append(tok)
        elif any(s in cfg.verb_lexicon for s in _ing_stems(tok)):
            out.append(tok)
    return out


@dataclass
class PositionMLPParams:
    """One-hidden-layer relu MLP mapping a box [x1,y1,x2,y2] to d_pos dims."""

    w1: np.ndarray  # (4, h)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h, d_pos)
    b2: np.ndarray  # (d_pos,)

    @staticmethod
    def init(rng: np.random.Generator, hidden: int = 16, d_pos: int = 8) -> "PositionMLPParams":
        return PositionMLPParams(
            w1=rng.standard_normal((4, hidden)) / np.sqrt(4.0),
            b1=np.zeros(hidden),
            w2=rng.standard_normal((hidden, d_pos)) / np.sqrt(hidden),
            b2=np.zeros(d_pos),
        )


@dataclass(frozen=True)
class PositionEmbedCache:
    box: np.ndarray
    pre: np.ndarray   # hidden pre-activation


def position_embed_forward(
    bbox: BBox | Sequence[BBox], params: PositionMLPParams
) -> tuple[np.ndarray, PositionEmbedCache]:
    """out = W2' relu(W1' [x1,y1,x2,y2] + b1) + b2.

    One box gives (d_pos,); a sequence of K boxes gives (K, d_pos)."""
    box = bbox.as_array() if isinstance(bbox, BBox) else np.stack([b.as_array() for b in bbox])
    pre = box @ params.w1 + params.b1
    out = np.maximum(pre, 0.0) @ params.w2 + params.b2
    return out, PositionEmbedCache(box=box, pre=pre)


def position_embed_backward(
    d_out: np.ndarray, cache: PositionEmbedCache, params: PositionMLPParams
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. the MLP parameters, summed over
    the boxes of a stacked forward."""
    d_out = np.atleast_2d(d_out)
    d_pre = (d_out @ params.w2.T) * (np.atleast_2d(cache.pre) > 0.0)
    return {
        "w2": np.maximum(np.atleast_2d(cache.pre), 0.0).T @ d_out,
        "b2": d_out.sum(axis=0),
        "w1": np.atleast_2d(cache.box).T @ d_pre,
        "b1": d_pre.sum(axis=0),
    }


def build_instance_embedding_forward(
    label_emb: EmbeddingSeq, pos: np.ndarray, proj: np.ndarray
) -> tuple[EmbeddingSeq, np.ndarray]:
    """Concat the position embedding onto every token row, project back to d.

    Output token count equals the label's, so two instances of the same
    class at different boxes get distinguishable embeddings.  A stack of K
    padded label sequences takes K position vectors (K, d_pos); the result
    keeps the labels' padding.  The cache is the ([K,] L, d + d_pos) concat."""
    d = label_emb.dim
    d_pos = pos.shape[-1]
    if proj.shape != (d + d_pos, d):
        raise ShapeMismatch(
            f"instance-embedding projection must be ({d + d_pos}, {d}), got {proj.shape}"
        )
    rows = np.broadcast_to(pos[..., None, :], label_emb.values.shape[:-1] + (d_pos,))
    concat = np.concatenate([label_emb.values, rows], axis=-1)
    out = concat @ proj
    return EmbeddingSeq(out, label_emb.keep), concat


def build_instance_embedding_backward(
    d_out: np.ndarray, concat: np.ndarray, proj: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients w.r.t. the projection, the position vector(s), and label rows."""
    d = proj.shape[1]  # proj is (d + d_pos, d)
    d_concat = d_out @ proj.T
    return {
        "proj": concat.reshape(-1, proj.shape[0]).T @ d_out.reshape(-1, d),
        "pos": d_concat[..., d:].sum(axis=-2),
        "label": d_concat[..., :d],
    }
