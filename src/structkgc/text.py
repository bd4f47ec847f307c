"""Corpus tokenizer and a from-scratch transformer text encoder.

The encoder is deliberately small.  Its one non-standard feature is the
structural key/value prefix: at every layer one extra key vector and one
extra value vector (projected from structural embeddings) are prepended
to that layer's keys and values before self-attention.  Sequence
positions never include the prefix, so pooling is automatically over
token positions only.

A batch is encoded in one padded pass: the B sequences are padded with
[PAD] to the longest one and stacked into (B*L, d) rows, every linear
map (:func:`autodiff.linear`, one tape node each) and layer norm runs
once over those rows, and attention (:func:`autodiff.attention`) keeps
each sequence to its own keys, with keys past a sequence's length masked
out.  Pooling (:func:`autodiff.mean_pool`) averages each sequence's own
L rows with a (B, L) 0/1 weight that leaves out padding and any [PAD]
id inside the sequence; such an id is still attended as a key.  No
(B, B*L) pooling matrix is built, so pooling costs O(B*L*d) at any
batch size.

Prefixes are per sequence.  When a sequence's prefix value vector at a
layer is exactly zero, its prefix position is masked out at that layer
instead of being attended with a zero value.  This makes "no structural
prefix" an exact special case of the same code path (a zero key would
otherwise still soak up uniform attention mass), row by row, so one
batch can mix sequences with and without a prefix.  Gradients do not
flow to a masked prefix; the mask only ever triggers for exactly-zero
values, which in practice means the feature is off.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
_SPECIALS = (PAD, UNK, CLS, SEP)
_PAD_ID = _SPECIALS.index(PAD)
_WORD_RE = re.compile(r"[a-z0-9]+")


def split_text(text: str) -> list[str]:
    """Lowercase and split on anything that is not a letter or digit."""
    return _WORD_RE.findall(text.lower())


class Tokenizer:
    """Whitespace/punctuation tokenizer over a fixed vocabulary."""

    def __init__(self, token_to_id: dict[str, int]):
        for i, s in enumerate(_SPECIALS):
            if token_to_id.get(s) != i:
                raise ValueError(f"special token {s} must have id {i}")
        ids = sorted(token_to_id.values())
        if ids != list(range(len(token_to_id))):
            raise ValueError("token ids must be contiguous from 0")
        self.token_to_id = dict(token_to_id)
        self.id_to_token = {i: t for t, i in token_to_id.items()}
        self.pad_id, self.unk_id, self.cls_id, self.sep_id = range(4)

    @classmethod
    def build(cls, texts, min_freq: int = 2) -> "Tokenizer":
        """Count tokens over a text stream (with multiplicity) and keep the
        ones seen at least ``min_freq`` times, alphabetically ordered.

        Each distinct text is split once and its tokens counted as often
        as the text occurs."""
        counts: dict[str, int] = {}
        for text, times in Counter(texts).items():
            for tok in split_text(text):
                counts[tok] = counts.get(tok, 0) + times
        vocab = {s: i for i, s in enumerate(_SPECIALS)}
        for tok in sorted(counts):
            if counts[tok] >= min_freq:
                vocab[tok] = len(vocab)
        return cls(vocab)

    def __len__(self) -> int:
        return len(self.token_to_id)

    def encode_words(self, text: str) -> list[int]:
        return [self.token_to_id.get(t, self.unk_id) for t in split_text(text)]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i in range(len(self.id_to_token)):
                f.write(f"{self.id_to_token[i]}\t{i}\n")

    @classmethod
    def load(cls, path) -> "Tokenizer":
        vocab: dict[str, int] = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                if not line.strip():
                    continue
                token, idx = line.rstrip("\n").split("\t")
                vocab[token] = int(idx)
        return cls(vocab)


def _fit_segments(segments: list[list[int]], drop_order: list[int], budget: int):
    """Trim segments (from the tail of each) in drop_order until they fit."""
    total = sum(len(s) for s in segments)
    for seg_idx in drop_order:
        if total <= budget:
            break
        overflow = total - budget
        seg = segments[seg_idx]
        removed = min(overflow, len(seg))
        if removed:
            del seg[len(seg) - removed:]
            total -= removed
    return segments


def tokenize_hr(tokenizer: Tokenizer, head_name: str, head_description: str,
                relation_name: str, relation_description: str,
                max_len: int) -> list[int]:
    """([CLS], head name, head description, [SEP], relation name,
    relation description, [SEP]), truncated to ``max_len``.

    The head description is truncated first so the relation segment
    survives; the trailing separators are always kept.
    """
    segments = [
        tokenizer.encode_words(head_name),
        tokenizer.encode_words(head_description),
        tokenizer.encode_words(relation_name),
        tokenizer.encode_words(relation_description),
    ]
    budget = max_len - 3  # [CLS] and two [SEP]
    # head description, then head name, then relation description, then name
    _fit_segments(segments, [1, 0, 3, 2], budget)
    head, head_desc, rel, rel_desc = segments
    return (
        [tokenizer.cls_id] + head + head_desc + [tokenizer.sep_id]
        + rel + rel_desc + [tokenizer.sep_id]
    )


def tokenize_entity(tokenizer: Tokenizer, name: str, description: str,
                    max_len: int) -> list[int]:
    """([CLS], name, description, [SEP]) for the tail side."""
    segments = [
        tokenizer.encode_words(name),
        tokenizer.encode_words(description),
    ]
    _fit_segments(segments, [1, 0], max_len - 2)
    name_ids, desc_ids = segments
    return [tokenizer.cls_id] + name_ids + desc_ids + [tokenizer.sep_id]


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TextEncoderConfig:
    layers: int
    hidden_dim: int
    heads: int
    max_len: int
    vocab_size: int

    def __post_init__(self):
        if self.hidden_dim % self.heads != 0:
            raise ValueError(
                f"hidden dim {self.hidden_dim} not divisible by {self.heads} heads"
            )


def _linear_init(rng, rows, cols):
    return rng.normal(0.0, 0.02, size=(rows, cols))


def _zeros(rows, cols):
    return np.zeros((rows, cols))


def _ones(rows, cols):
    return np.ones((rows, cols))


class TextEncoder:
    """Toy BERT-style encoder producing unit-norm mean-pooled embeddings."""

    def __init__(self, config: TextEncoderConfig, rng: np.random.Generator | None,
                 name: str = "enc", loaded: ad.LoadedValues | None = None):
        self.config = config
        self.name = name
        d = config.hidden_dim
        self._params: dict[str, Node] = {}

        def param(key, rows, cols, init):
            node = ad.parameter(f"{name}.{key}", (rows, cols), init, loaded)
            self._params[f"{name}.{key}"] = node
            return node

        def normal(rows, cols):
            return _linear_init(rng, rows, cols)

        self.tok_emb = param("tok_emb", config.vocab_size, d, normal)
        self.pos_emb = param("pos_emb", config.max_len, d, normal)
        self.layers = []
        for i in range(config.layers):
            layer = {
                "wq": param(f"l{i}.wq", d, d, normal),
                "bq": param(f"l{i}.bq", 1, d, _zeros),
                "wk": param(f"l{i}.wk", d, d, normal),
                "bk": param(f"l{i}.bk", 1, d, _zeros),
                "wv": param(f"l{i}.wv", d, d, normal),
                "bv": param(f"l{i}.bv", 1, d, _zeros),
                "wo": param(f"l{i}.wo", d, d, normal),
                "bo": param(f"l{i}.bo", 1, d, _zeros),
                "ln1_g": param(f"l{i}.ln1_g", 1, d, _ones),
                "ln1_b": param(f"l{i}.ln1_b", 1, d, _zeros),
                "w1": param(f"l{i}.w1", d, 4 * d, normal),
                "b1": param(f"l{i}.b1", 1, 4 * d, _zeros),
                "w2": param(f"l{i}.w2", 4 * d, d, normal),
                "b2": param(f"l{i}.b2", 1, d, _zeros),
                "ln2_g": param(f"l{i}.ln2_g", 1, d, _ones),
                "ln2_b": param(f"l{i}.ln2_b", 1, d, _zeros),
            }
            self.layers.append(layer)

    def parameters(self) -> dict[str, Node]:
        return dict(self._params)

    def encode(self, token_seqs, prefixes=None) -> Node:
        """Encode B token sequences to unit-norm (B, d) embeddings.

        ``prefixes`` is an optional per-layer list of (key, value) Nodes of
        shape (B, d) from a prefix projector, row b for sequence b.
        """
        cfg = self.config
        seqs = [list(tokens) for tokens in token_seqs]
        if not seqs:
            raise ValueError("cannot encode an empty batch")
        lengths = np.array([len(tokens) for tokens in seqs])
        if lengths.max() > cfg.max_len:
            raise ValueError(
                f"sequence length {lengths.max()} exceeds max_len {cfg.max_len}"
            )
        if lengths.min() == 0:
            raise ValueError("cannot encode an empty token sequence")
        if prefixes is not None and len(prefixes) != cfg.layers:
            raise ValueError(
                f"got {len(prefixes)} prefix layers for a {cfg.layers}-layer encoder"
            )

        batch, seq_len = len(seqs), int(lengths.max())
        ids = np.full((batch, seq_len), _PAD_ID, dtype=np.intp)
        for b, tokens in enumerate(seqs):
            ids[b, :len(tokens)] = tokens
        x = ad.add(
            ad.gather_rows(self.tok_emb, ids.ravel()),
            ad.gather_rows(self.pos_emb, np.tile(np.arange(seq_len), batch)),
        )
        for i, layer in enumerate(self.layers):
            q = ad.linear(x, layer["wq"], layer["bq"])
            k = ad.linear(x, layer["wk"], layer["bk"])
            v = ad.linear(x, layer["wv"], layer["bv"])
            context = ad.attention(q, k, v, lengths, cfg.heads,
                                   None if prefixes is None else prefixes[i])
            attn = ad.linear(context, layer["wo"], layer["bo"])
            x = ad.layer_norm_rows(ad.add(x, attn), layer["ln1_g"], layer["ln1_b"])
            ffn = ad.linear(ad.gelu(ad.linear(x, layer["w1"], layer["b1"])),
                            layer["w2"], layer["b2"])
            x = ad.layer_norm_rows(ad.add(x, ffn), layer["ln2_g"], layer["ln2_b"])

        # row b averages its own positions, leaving out padding and [PAD] ids
        pooled = ad.mean_pool(x, (np.arange(seq_len) < lengths[:, None]) & (ids != _PAD_ID))
        return ad.l2_normalize_rows(pooled)
