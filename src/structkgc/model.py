"""Aggregate of the trainable components and their wiring.

A model owns the structural tables, the optional KV-prefix projectors,
the optional pair of text encoders (query side and tail side, separate
weights unless sharing is requested) and the learnable log-temperature.
Parameter order is fixed by construction order, which checkpointing
relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .structural import (
    AseKind,
    PrefixProjector,
    StructuralTable,
    struct_score_matrix_node,
    struct_scores_all_tails,
)
from .text import TextEncoder, TextEncoderConfig


@dataclass(frozen=True)
class ModelConfig:
    num_entities: int
    num_base_relations: int
    struct_dim: int = 64
    layers: int = 2
    hidden_dim: int = 64
    heads: int = 4
    max_len: int = 64
    vocab_size: int = 0
    ase_kind: AseKind = AseKind.ADDITIVE
    share_text_encoders: bool = False
    use_text: bool = True
    use_ase: bool = True
    tau_init: float = 0.05

    def __post_init__(self):
        if not math.isfinite(self.tau_init):
            raise ValueError(f"tau_init must be a finite number, got {self.tau_init}")
        if self.tau_init <= 0:
            raise ValueError(f"tau_init must be positive, got {self.tau_init}")
        if not self.use_text and not self.use_ase:
            raise ValueError("at least one of the text and structural paths must be on")
        if self.use_text and self.vocab_size <= 4:
            raise ValueError("text path needs a tokenizer vocabulary")
        if self.use_text and self.hidden_dim % self.heads != 0:
            raise ValueError(
                f"hidden dim {self.hidden_dim} not divisible by {self.heads} heads"
            )
        if self.ase_kind is AseKind.ROTATION and self.struct_dim % 2 != 0:
            raise ValueError(
                f"rotation combiner needs an even struct dim, got {self.struct_dim}"
            )


def encode_entities(encoder: TextEncoder, projector: PrefixProjector | None,
                    entity_table: Node | None, token_seqs, ids) -> Node:
    """Encode entity text, each row prefixed by its projected structural
    embedding when ``projector`` is given (the table is then required);
    (B, d)."""
    prefixes = None
    if projector is not None:
        prefixes = projector.project(ad.gather_rows(entity_table, ids))
    return encoder.encode(token_seqs, prefixes)


class Model:
    """The trainable components, wired as ``config`` asks.

    ``Model(config, seed)`` draws fresh parameters from ``seed``.  With
    ``loaded`` given, every parameter takes its stored array instead and
    nothing is drawn; the checkpoint loader builds models this way.
    """

    def __init__(self, config: ModelConfig, seed: int = 0,
                 loaded: ad.LoadedValues | None = None):
        self.config = config
        rng = np.random.default_rng(seed) if loaded is None else None
        self.struct = StructuralTable(
            config.num_entities, config.num_base_relations, config.struct_dim,
            config.ase_kind, rng, loaded,
        )
        self.hr_projector = None
        self.tail_projector = None
        self.hr_encoder = None
        self.tail_encoder = None
        if config.use_text:
            enc_cfg = TextEncoderConfig(
                layers=config.layers, hidden_dim=config.hidden_dim,
                heads=config.heads, max_len=config.max_len,
                vocab_size=config.vocab_size,
            )
            self.hr_encoder = TextEncoder(enc_cfg, rng, name="hr", loaded=loaded)
            if config.share_text_encoders:
                self.tail_encoder = self.hr_encoder
            else:
                self.tail_encoder = TextEncoder(enc_cfg, rng, name="tail", loaded=loaded)
            if config.use_ase:
                self.hr_projector = PrefixProjector(
                    config.struct_dim, config.layers, config.hidden_dim, rng,
                    name="hr_prefix", loaded=loaded,
                )
                self.tail_projector = PrefixProjector(
                    config.struct_dim, config.layers, config.hidden_dim, rng,
                    name="tail_prefix", loaded=loaded,
                )
        self.log_tau = ad.parameter(
            "log_tau", (1, 1),
            lambda rows, cols: np.full((rows, cols), np.log(config.tau_init)), loaded)

    def parameters(self) -> dict[str, Node]:
        out: dict[str, Node] = {}
        out.update(self.struct.parameters())
        if self.hr_projector is not None:
            out.update(self.hr_projector.parameters())
            out.update(self.tail_projector.parameters())
        if self.hr_encoder is not None:
            out.update(self.hr_encoder.parameters())
            if self.tail_encoder is not self.hr_encoder:
                out.update(self.tail_encoder.parameters())
        out["log_tau"] = self.log_tau
        return out

    @property
    def tau(self) -> float:
        return float(np.exp(self.log_tau.value[0, 0]))

    # ------------------------------------------------------------------
    # prefix plumbing
    # ------------------------------------------------------------------

    def hr_prefixes(self, heads, relations):
        """Per-layer (key, value) prefixes of (B, hidden_dim), row q from
        combine(E_h[q], E_r[q]); None without a query projector."""
        if self.hr_projector is None:
            return None
        return self.hr_projector.project(self.struct.combine(heads, relations))

    # ------------------------------------------------------------------
    # batch encoding
    # ------------------------------------------------------------------

    def encode_queries(self, token_seqs, pairs) -> Node:
        """Encode (head, relation) text with structural prefixes; (B, d)."""
        heads, relations = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
        return self.hr_encoder.encode(token_seqs, self.hr_prefixes(heads, relations))

    def encode_tails(self, token_seqs, tail_ids) -> Node:
        return encode_entities(self.tail_encoder, self.tail_projector,
                               self.struct.entity_embeddings, token_seqs, tail_ids)

    # ------------------------------------------------------------------
    # structural scoring
    # ------------------------------------------------------------------

    def struct_score_matrix(self, heads, relations, tails) -> Node:
        return struct_score_matrix_node(self.struct, heads, relations, tails)

    def struct_scores_all_tails(self, head: int, relation: int) -> np.ndarray:
        return struct_scores_all_tails(self.struct, head, relation)
