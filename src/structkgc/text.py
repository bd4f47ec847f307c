"""Corpus tokenizer and a from-scratch transformer text encoder.

The encoder is deliberately small.  Its one non-standard feature is the
structural key/value prefix: at every layer one extra key vector and one
extra value vector (projected from structural embeddings) are prepended
to that layer's keys and values before self-attention.  Sequence
positions never include the prefix, so pooling is automatically over
token positions only.

A batch is encoded in one padded pass: the B sequences are padded with
[PAD] to the longest one and stacked into (B*L, d) rows.  The token and
position lookups are one tape node (:func:`autodiff.gather_rows_sum`),
and each layer is two: :func:`autodiff.attention_sublayer` and
:func:`autodiff.ffn_sublayer`, each a whole residual block with its
layer norm, run once over those rows.  Attention keeps each sequence to
its own keys, with keys past a sequence's length masked out.  Each node
keeps only what its backward reads, and under :func:`autodiff.no_grad`
frees each intermediate once it is consumed.  Pooling
(:func:`autodiff.mean_pool`) averages each sequence's own L rows with a
(B, L) 0/1 weight that leaves out padding and any [PAD] id inside the
sequence; such an id is still attended as a key.  No
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
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .graph import DataError, KnowledgeGraph, read_text

if TYPE_CHECKING:
    from .model import ModelConfig

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
_SPECIALS = (PAD, UNK, CLS, SEP)
_PAD_ID = _SPECIALS.index(PAD)
_WORD_RE = re.compile(r"[a-z0-9]+")
MIN_TOKEN_FREQ = 2      # default count a token needs to enter the vocabulary


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
        self.unk_id, self.cls_id, self.sep_id = range(1, 4)  # [PAD] is _PAD_ID, 0

    @classmethod
    def build(cls, texts, min_freq: int = MIN_TOKEN_FREQ) -> "Tokenizer":
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
        """Read ``token<TAB>id`` lines; a bad line raises a ``DataError``
        naming ``path:line``, and ids the constructor refuses one naming ``path``."""
        vocab: dict[str, int] = {}
        for line_no, line in enumerate(read_text(path).split("\n"), start=1):
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise DataError(path, line_no,
                                f"expected 2 tab-separated columns, got {len(cols)}")
            token, idx = cols
            if token in vocab:
                raise DataError(path, line_no, f"duplicate token {token!r}")
            try:
                vocab[token] = int(idx)
            except ValueError:
                raise DataError(path, line_no,
                                f"token id {idx!r} is not an integer") from None
        try:
            return cls(vocab)
        except ValueError as e:
            raise DataError(path, None, str(e)) from None


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


def tokenize_hr(tokenizer: Tokenizer, graph: KnowledgeGraph, head: int,
                relation: int, max_len: int) -> list[int]:
    """([CLS], head name, head description, [SEP], relation name,
    relation description, [SEP]) from ``graph``, truncated to ``max_len``.

    The head description is truncated first so the relation segment
    survives; the trailing separators are always kept.
    """
    rel = graph.relations[relation]
    segments = [
        tokenizer.encode_words(graph.entity_names[head]),
        tokenizer.encode_words(graph.entity_descriptions[head]),
        tokenizer.encode_words(rel.name),
        tokenizer.encode_words(rel.description),
    ]
    budget = max_len - 3  # [CLS] and two [SEP]
    # head description, then head name, then relation description, then name
    _fit_segments(segments, [1, 0, 3, 2], budget)
    head, head_desc, rel, rel_desc = segments
    return (
        [tokenizer.cls_id] + head + head_desc + [tokenizer.sep_id]
        + rel + rel_desc + [tokenizer.sep_id]
    )


def tokenize_entity(tokenizer: Tokenizer, graph: KnowledgeGraph, entity: int,
                    max_len: int) -> list[int]:
    """([CLS], name, description, [SEP]) of ``graph``'s ``entity``, for the
    tail side, truncated to ``max_len``."""
    segments = [
        tokenizer.encode_words(graph.entity_names[entity]),
        tokenizer.encode_words(graph.entity_descriptions[entity]),
    ]
    _fit_segments(segments, [1, 0], max_len - 2)
    name_ids, desc_ids = segments
    return [tokenizer.cls_id] + name_ids + desc_ids + [tokenizer.sep_id]


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def _linear_init(rng, rows, cols):
    return rng.normal(0.0, 0.02, size=(rows, cols))


def _zeros(rows, cols):
    return np.zeros((rows, cols))


def _ones(rows, cols):
    return np.ones((rows, cols))


class TextEncoder:
    """Toy BERT-style encoder producing unit-norm mean-pooled embeddings,
    shaped by the model config's layers, hidden_dim, heads, max_len and
    vocab_size."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None,
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

        ``prefixes`` is an optional per-layer list of (node, key column)
        pairs from ``PrefixProjector.project``, row b for sequence b.
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
        x = ad.gather_rows_sum(self.tok_emb, ids.ravel(),
                               self.pos_emb, np.tile(np.arange(seq_len), batch))
        for i, p in enumerate(self.layers):
            x = ad.attention_sublayer(
                x, (p["wq"], p["bq"]), (p["wk"], p["bk"]), (p["wv"], p["bv"]),
                (p["wo"], p["bo"]), (p["ln1_g"], p["ln1_b"]), lengths, cfg.heads,
                None if prefixes is None else prefixes[i])
            x = ad.ffn_sublayer(x, (p["w1"], p["b1"]), (p["w2"], p["b2"]),
                                (p["ln2_g"], p["ln2_b"]))

        # row b averages its own positions, leaving out padding and [PAD] ids
        pooled = ad.mean_pool(x, (np.arange(seq_len) < lengths[:, None]) & (ids != _PAD_ID))
        return ad.l2_normalize_rows(pooled)
