"""Epoch loop wiring encoders, samplers and the contrastive objectives.

One step: encode the query side with structural prefixes, encode the
batch tails, gather in-batch / intra-relation / momentum-hard negatives,
compute the combined loss, backprop, take an AdamW step, clamp the
temperature, EMA-update the momentum encoder and push its features for
the batch tails into the queue.

:class:`TrainConfig` holds every training setting: the loss's clamp
range, margin and beta, and the loop, optimizer and sampler settings.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graph import KnowledgeGraph
from .losses import clamp_log_tau, contrastive_loss, structural_loss, total_loss
from .model import Model
from .negatives import (
    MomentumEncoder,
    MomentumQueue,
    in_batch_mask,
    mix_hard_negatives,
    sample_intra_relation,
)
from .optim import AdamW, NonFiniteGradientError
from .text import Tokenizer, tokenize_entity, tokenize_hr


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    # loss: tau_min and tau_max bound the temperature after every step
    tau_min: float = 0.01
    tau_max: float = 1.0
    margin: float = 0.02
    beta: float = 0.5
    # loop, optimizer and samplers
    epochs: int = 10
    batch_size: int = 32
    lr: float = 5e-4
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    seed: int = 0
    use_mh: bool = True
    use_ir: bool = True
    queue_capacity: int = 256
    hardest_k: int = 32
    mh_count: int = 64
    ir_count: int = 3
    momentum: float = 0.999

    def __post_init__(self):
        for name in ("tau_min", "tau_max", "margin", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if not 0 < self.tau_min <= self.tau_max:
            raise ValueError(
                f"temperature clamp range [{self.tau_min}, {self.tau_max}] must be "
                f"positive and non-empty"
            )
        if self.margin < 0:
            raise ValueError(f"margin must be non-negative, got {self.margin}")
        if self.beta < 0:
            raise ValueError(f"structural weight must be non-negative, got {self.beta}")
        for name in ("lr", "weight_decay", "clip_norm", "momentum"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        # 0 turns decay or clipping off; below 0 decay grows the weights
        # and clipping is silently off
        for name in ("weight_decay", "clip_norm"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        # the queue is read for hardest negatives only once it holds 2 rows
        if (self.queue_capacity < 2 or self.hardest_k < 2 or self.mh_count < 1
                or self.ir_count < 1):
            raise ValueError("queue capacity and hardest-k must be at least 2, and mix "
                             "count and intra-relation count positive")
        # scores are cosines, so a loss row sums at most `terms` values of at
        # most e^(1/tau); below the floor that sum overflows float64
        terms = self.batch_size + self.use_mh * self.mh_count + self.use_ir * self.ir_count
        floor = 1.0 / (math.log(sys.float_info.max) - math.log(terms))
        if self.tau_min < floor:
            raise ValueError(
                f"tau_min must be at least {floor:.6g} for {terms} terms per loss row, "
                f"got {self.tau_min}: below it e^(1/tau) times the terms overflows float64"
            )


def require_text_path(cfg: TrainConfig, use_text: bool) -> None:
    """Refuse the momentum-hard or intra-relation switch without the text
    path: both negative sources are tail text features, so neither would
    run."""
    for name in ("use_mh", "use_ir"):
        if getattr(cfg, name) and not use_text:
            raise ValueError(f"{name} needs the text path (use_text=true)")


@dataclass
class EpochMetrics:
    epoch: int
    mean_loss: float
    tau: float
    lr: float
    queue_fill: float
    irns_fallback_rate: float

    # the metrics file's header line; ``as_log_line`` writes the rows under it
    HEADER = "epoch\tmean_loss\ttau\tlr\tqueue_fill\tirns_fallback_rate"

    def as_log_line(self) -> str:
        return "\t".join(
            [
                str(self.epoch),
                f"{self.mean_loss:.6f}",
                f"{self.tau:.6f}",
                f"{self.lr:.6e}",
                f"{self.queue_fill:.4f}",
                f"{self.irns_fallback_rate:.4f}",
            ]
        )


class Trainer:
    def __init__(self, graph: KnowledgeGraph, model: Model,
                 tokenizer: Tokenizer | None, cfg: TrainConfig):
        if model.config.use_text and tokenizer is None:
            raise ValueError("the text path needs a tokenizer")
        require_text_path(cfg, model.config.use_text)
        # in log space, like the clamp: exp(log(tau)) need not give tau back
        log_tau = model.log_tau.value[0, 0]
        if not np.log(cfg.tau_min) <= log_tau <= np.log(cfg.tau_max):
            raise ValueError(
                f"model temperature {model.tau:g} outside clamp range "
                f"[{cfg.tau_min}, {cfg.tau_max}]"
            )
        self.graph = graph
        self.model = model
        self.tokenizer = tokenizer
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)

        self.train_triples = graph.triples("train")
        if not len(self.train_triples):
            raise ValueError("no training triples")
        steps_per_epoch = math.ceil(len(self.train_triples) / cfg.batch_size)
        self.optimizer = AdamW(
            model.parameters(), cfg.lr, total_steps=cfg.epochs * steps_per_epoch,
            weight_decay=cfg.weight_decay, clip_norm=cfg.clip_norm,
        )

        self.queue = None
        self.momentum_encoder = None
        if cfg.use_mh:
            self.queue = MomentumQueue(cfg.queue_capacity, model.config.hidden_dim)
            self.momentum_encoder = MomentumEncoder(
                model.tail_encoder, model.tail_projector,
                model.struct.entity_embeddings, momentum=cfg.momentum,
            )

        self.telemetry = {"irns_queries": 0, "irns_fallbacks": 0}

    # ------------------------------------------------------------------
    def _irns_pool_empty(self, head: int, relation: int) -> bool:
        # within one split e(h, r) is a subset of e(r), so e(r) - e(h, r)
        # is empty exactly when the two sets have the same size
        return len(self.graph.tails_by_relation(relation, ("train",))) == len(
            self.graph.tails_by_pair(head, relation, ("train",))
        )

    # ------------------------------------------------------------------
    def _step(self, batch: np.ndarray) -> float:
        """One optimizer step on a (B, 3) array of train triples."""
        model, cfg = self.model, self.cfg
        # the tape lives in _loss_backward's frame only, so it is freed
        # before the optimizer, EMA and momentum encode allocate
        loss_value, tail_tokens, tails = self._loss_backward(batch)
        try:
            self.optimizer.step()
        except NonFiniteGradientError as exc:
            ids = [tuple(t) for t in batch.tolist()]
            raise TrainingError(f"{exc} on batch triples {ids}") from exc
        clamp_log_tau(model.log_tau, cfg.tau_min, cfg.tau_max)

        if cfg.use_mh:
            self.momentum_encoder.ema_update()
            feats = self.momentum_encoder.encode_tails(tail_tokens, tails)
            self.queue.push(feats)
        return loss_value

    def _loss_backward(self, batch: np.ndarray) -> tuple[float, list | None, list]:
        """Forward, loss and backward for one batch: the loss value, the
        tail token lists (None without the text path) and the tail ids."""
        model, cfg = self.model, self.cfg
        heads, rels, tails = batch.T.tolist()
        queries = list(zip(heads, rels))
        mask = in_batch_mask(queries, tails, self.graph)

        loss_cl = None
        tail_tokens = None
        if model.config.use_text:
            tokenizer, graph, max_len = self.tokenizer, self.graph, model.config.max_len
            hr_tokens = [tokenize_hr(tokenizer, graph, h, r, max_len) for h, r in queries]
            tail_tokens = [tokenize_entity(tokenizer, graph, t, max_len) for t in tails]
            h_hr = model.encode_queries(hr_tokens, queries)
            h_t = model.encode_tails(tail_tokens, tails)

            mh_features = None
            if cfg.use_mh and len(self.queue) >= 2:
                tau_now = model.tau
                mh_features = np.stack([
                    mix_hard_negatives(
                        self.queue.hardest(h_hr.value[q], tau_now, cfg.hardest_k),
                        cfg.mh_count, self.rng,
                    )[0]
                    for q in range(len(batch))
                ])

            ir_features = None
            if cfg.use_ir:
                sampled = []
                for h, r in queries:
                    self.telemetry["irns_queries"] += 1
                    if self._irns_pool_empty(h, r):
                        self.telemetry["irns_fallbacks"] += 1
                    sampled.append(
                        sample_intra_relation(self.graph, h, r, cfg.ir_count, self.rng)
                    )
                # each distinct tail is encoded once, in order of first draw
                drawn = dict.fromkeys(t for ts in sampled for t in ts)
                row_of = {t: i for i, t in enumerate(drawn)}
                if row_of:
                    ir_batch = model.encode_tails(
                        [tokenize_entity(tokenizer, graph, t, max_len) for t in row_of],
                        list(row_of),
                    )
                    # query q's tails fill the first slots of index row q, -1 the rest
                    index = np.full((len(batch), cfg.ir_count), -1, dtype=np.intp)
                    for q, ts in enumerate(sampled):
                        index[q, :len(ts)] = [row_of[t] for t in ts]
                    ir_features = (ir_batch, index)

            loss_cl = contrastive_loss(
                h_hr, h_t, mask, model.log_tau, cfg.margin,
                mh_features=mh_features, ir_features=ir_features,
            )

        loss_dis = None
        if model.config.use_ase:
            score_mat = model.struct_score_matrix(heads, rels, tails)
            loss_dis = structural_loss(score_mat, mask, model.log_tau, cfg.margin)

        if loss_cl is not None and loss_dis is not None:
            loss = total_loss(loss_cl, loss_dis, cfg.beta)
        elif loss_cl is not None:
            loss = loss_cl
        else:
            loss = loss_dis

        loss_value = float(loss.value[0, 0])
        if not np.isfinite(loss_value):
            ids = [tuple(t) for t in batch.tolist()]
            raise TrainingError(f"non-finite loss on batch triples {ids}")

        ad.backward(loss)
        return loss_value, tail_tokens, tails

    # ------------------------------------------------------------------
    def train_epoch(self, epoch: int) -> EpochMetrics:
        self.telemetry = dict.fromkeys(self.telemetry, 0)
        order = self.rng.permutation(len(self.train_triples))
        losses = []
        bs = self.cfg.batch_size
        for start in range(0, len(order), bs):
            batch = self.train_triples[order[start:start + bs]]
            losses.append(self._step(batch))
        queries = max(1, self.telemetry["irns_queries"])
        return EpochMetrics(
            epoch=epoch,
            mean_loss=float(np.mean(losses)),
            tau=self.model.tau,
            lr=self.optimizer.current_lr(),
            queue_fill=(len(self.queue) / self.queue.capacity) if self.cfg.use_mh else 0.0,
            irns_fallback_rate=self.telemetry["irns_fallbacks"] / queries,
        )

    def train(self) -> list[EpochMetrics]:
        return [self.train_epoch(e) for e in range(1, self.cfg.epochs + 1)]

    def parameter_checksum(self) -> str:
        """Stable digest of every parameter, for determinism checks."""
        import hashlib

        h = hashlib.sha256()
        for name, node in self.model.parameters().items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(node.value).tobytes())
        return h.hexdigest()
