import collections
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from structkgc import training
from structkgc.data import build_tokenizer
from structkgc.graph import SPLITS, KnowledgeGraph, Triple
from structkgc.model import Model, ModelConfig
from structkgc.negatives import MomentumEncoder
from structkgc.optim import AdamW, NonFiniteGradientError, linear_decay
from structkgc.structural import AseKind
from structkgc.toygen import make_planted_graph, make_text_toy
from structkgc.training import TrainConfig, Trainer, TrainingError
from structkgc.autodiff import Node
import structkgc.autodiff as ad

import autodiff_reference
import loss_reference
import text_reference
import update_reference
from graph_reference import ReferenceAsArrays, ReferenceGraph, entity_records


def tiny_text_setup(seed=0, num_entities=12, num_triples=20, **model_kw):
    toy = make_text_toy(num_entities=num_entities, num_relations=2,
                        num_triples=num_triples, seed=seed)
    tokenizer = build_tokenizer(toy.graph, min_freq=2)
    cfg = ModelConfig(
        num_entities=toy.graph.num_entities,
        num_base_relations=toy.graph.num_base_relations,
        struct_dim=8, layers=1, hidden_dim=16, heads=2, max_len=16,
        vocab_size=len(tokenizer), **{"ase_kind": AseKind.ADDITIVE, **model_kw},
    )
    model = Model(cfg, seed=seed)
    return toy, tokenizer, model


def small_train_cfg(**kw):
    defaults = dict(
        epochs=2, batch_size=4, lr=1e-3, queue_capacity=16, hardest_k=4,
        mh_count=4, ir_count=1, seed=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestOptimizer:
    def test_linear_decay_non_increasing_and_zero_at_end(self):
        total = 25
        values = [linear_decay(0.1, total, s) for s in range(total + 1)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(0.1)
        assert values[total] == 0.0

    def test_adamw_moves_toward_minimum(self):
        p = Node([[5.0]])
        opt = AdamW({"p": p}, lr=0.5, total_steps=200, weight_decay=0.0,
                    clip_norm=0.0)
        for _ in range(150):
            loss = ad.mul(p, p)
            ad.backward(loss)
            opt.step()
        assert abs(p.value[0, 0]) < 0.5

    def test_decoupled_decay_skips_row_vectors(self):
        matrix = Node(np.ones((3, 2)))
        bias = Node(np.ones((1, 2)))
        opt = AdamW({"m": matrix, "b": bias}, lr=0.1, total_steps=10,
                    weight_decay=0.5, clip_norm=0.0)
        # no gradients: only the decay term can move parameters
        opt.step()
        assert np.all(matrix.value < 1.0)
        assert np.all(bias.value == 1.0)

    def test_step_returns_the_pre_clip_global_norm(self):
        rng = np.random.default_rng(3)
        params = {"a": Node(np.zeros((3, 2))), "b": Node(np.zeros((1, 2))),
                  "c": Node(np.zeros((2, 2)))}
        opt = AdamW(params, lr=0.1, total_steps=10, clip_norm=0.5)
        params["a"].grad = rng.normal(size=(3, 2)) * 4.0
        params["b"].grad = rng.normal(size=(1, 2))
        # "c" has no gradient and counts as zero
        expected = np.sqrt(sum(float((p.grad ** 2).sum())
                               for p in params.values() if p.grad is not None))
        assert expected > 0.5  # the step clips, the returned norm is from before
        assert opt.step() == pytest.approx(expected, rel=1e-12)
        assert opt.step() == 0.0

    def test_clipping_bounds_update_norm(self):
        p = Node(np.zeros((4, 4)))
        opt = AdamW({"p": p}, lr=1.0, total_steps=10, weight_decay=0.0,
                    clip_norm=1.0)
        p.grad = np.full((4, 4), 100.0)
        opt.step()
        # Adam normalizes per-coordinate, so just check finite small step
        assert np.all(np.isfinite(p.value))


class TestInPlaceUpdatesMatchTheReference:
    """AdamW's moments and the EMA shadows are updated in place; values,
    moments and shadows keep the out-of-place bodies' bytes."""

    @staticmethod
    def _params(rng):
        return {"w": Node(rng.normal(size=(5, 3))), "b": Node(rng.normal(size=(1, 3))),
                "t": Node(rng.normal(size=(5, 3))), "idle": Node(rng.normal(size=(3, 2)))}

    @pytest.mark.parametrize("clip_norm", [0.0, 0.5, 100.0], ids=["off", "clips", "loose"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05], ids=["no_decay", "decay"])
    def test_adamw_steps_keep_their_bytes(self, clip_norm, weight_decay):
        runs = []
        for step in (AdamW.step, update_reference.adamw_step):
            rng = np.random.default_rng(11)
            params = self._params(rng)
            opt = AdamW(params, lr=0.05, total_steps=8, weight_decay=weight_decay,
                        clip_norm=clip_norm)
            norms = []
            for _ in range(6):
                for name, p in params.items():
                    if name != "idle":  # one parameter never gets a grad
                        p.grad = rng.normal(size=p.value.shape)
                # two leaves may share one grad array; it must stay unchanged
                shared = params["t"].grad = params["w"].grad
                before = shared.tobytes()
                norms.append(step(opt))
                assert shared.tobytes() == before
            runs.append((norms, [(p.value.tobytes(), opt._m[k].tobytes(), opt._v[k].tobytes())
                                 for k, p in params.items()]))
        assert runs[0] == runs[1]

    def test_a_step_keeps_the_old_value_array_unchanged(self):
        p = Node(np.ones((3, 2)))
        opt = AdamW({"p": p}, lr=0.1, total_steps=4)
        held = p.value
        p.grad = np.full((3, 2), 0.5)
        opt.step()
        assert p.value is not held
        assert np.all(held == 1.0)

    def test_ema_updates_keep_their_bytes(self):
        shadows = []
        for update in (MomentumEncoder.ema_update, update_reference.ema_update):
            _, _, model = tiny_text_setup(seed=2)
            mom = MomentumEncoder(model.tail_encoder, model.tail_projector,
                                  model.struct.entity_embeddings, momentum=0.9)
            rng = np.random.default_rng(5)
            for _ in range(3):
                for _, online in mom._pairs:
                    online.value = online.value + rng.normal(size=online.value.shape)
                update(mom)
            shadows.append([shadow.value.tobytes() for shadow, _ in mom._pairs])
        assert shadows[0] == shadows[1]


class TestTrainerSmoke:
    def test_smoke_two_epochs_finite_loss(self):
        toy, tokenizer, model = tiny_text_setup()
        trainer = Trainer(toy.graph, model, tokenizer, small_train_cfg())
        metrics = trainer.train()
        assert len(metrics) == 2
        assert all(np.isfinite(m.mean_loss) for m in metrics)
        assert metrics[0].queue_fill > 0

    def test_struct_only_mode(self):
        planted = make_planted_graph(num_entities=30, num_relations=3, dim=8,
                                     seed=1)
        cfg = ModelConfig(
            num_entities=planted.graph.num_entities,
            num_base_relations=planted.graph.num_base_relations,
            struct_dim=8, use_text=False, use_ase=True, vocab_size=0,
        )
        model = Model(cfg, seed=1)
        trainer = Trainer(planted.graph, model, None,
                          small_train_cfg(use_mh=False, use_ir=False))
        metrics = trainer.train()
        assert all(np.isfinite(m.mean_loss) for m in metrics)

    def test_mh_requires_text_path(self):
        planted = make_planted_graph(num_entities=20, num_relations=2, dim=8,
                                     seed=2)
        cfg = ModelConfig(
            num_entities=planted.graph.num_entities,
            num_base_relations=planted.graph.num_base_relations,
            struct_dim=8, use_text=False, use_ase=True, vocab_size=0,
        )
        model = Model(cfg, seed=2)
        with pytest.raises(ValueError, match="text path"):
            Trainer(planted.graph, model, None, small_train_cfg(use_mh=True))

    def test_ir_requires_text_path(self):
        planted = make_planted_graph(num_entities=20, num_relations=2, dim=8,
                                     seed=2)
        cfg = ModelConfig(
            num_entities=planted.graph.num_entities,
            num_base_relations=planted.graph.num_base_relations,
            struct_dim=8, use_text=False, use_ase=True, vocab_size=0,
        )
        model = Model(cfg, seed=2)
        with pytest.raises(ValueError, match="^use_ir needs the text path"):
            Trainer(planted.graph, model, None,
                    small_train_cfg(use_mh=False, use_ir=True))

    def test_nan_loss_aborts_with_batch_ids(self):
        toy, tokenizer, model = tiny_text_setup()
        model.struct.entity_embeddings.value[:] = np.nan
        trainer = Trainer(toy.graph, model, tokenizer,
                          small_train_cfg(use_mh=False, use_ir=False))
        with pytest.raises(TrainingError, match=r"batch triples \[\("):
            trainer.train_epoch(1)

    def test_metrics_log_line_shape(self):
        toy, tokenizer, model = tiny_text_setup()
        trainer = Trainer(toy.graph, model, tokenizer, small_train_cfg(epochs=1))
        m = trainer.train_epoch(1)
        parts = m.as_log_line().split("\t")
        assert len(parts) == 6
        assert parts[0] == "1"


def hub_relation_setup(**model_kw):
    """The tiny text toy with relation 1 replaced by a hub: one head
    linked to four tails.  Its queries and their inverses leave
    e(r) - e(h, r) empty; relation 0's queries do not."""
    toy, tokenizer, model = tiny_text_setup(**model_kw)
    g = toy.graph
    base = g.num_base_relations
    keep = [t for t in g.triples("train").tolist() if t[1] % base == 0]
    hub = [Triple(0, 1, t) for t in range(1, 5)]
    hub += [Triple(t.tail, t.relation + base, t.head) for t in hub]
    graph = KnowledgeGraph(entity_records(g), g.relations, {"train": keep + hub},
                           num_base_relations=base)
    return graph, tokenizer, model


class TestSamplerTelemetry:
    def test_pool_empty_matches_set_difference(self):
        graph, tokenizer, model = hub_relation_setup()
        trainer = Trainer(graph, model, tokenizer, small_train_cfg())
        seen = set()
        for h in range(graph.num_entities):
            for r in range(graph.num_relations):
                diff = (set(graph.tails_by_relation(r, ("train",)).tolist())
                        - set(graph.tails_by_pair(h, r, ("train",)).tolist()))
                assert trainer._irns_pool_empty(h, r) == (not diff)
                seen.add(not diff)
        assert seen == {True, False}

    def test_fallback_rate_is_per_epoch(self):
        graph, tokenizer, model = hub_relation_setup()
        trainer = Trainer(graph, model, tokenizer, small_train_cfg(use_mh=False))
        triples = trainer.train_triples
        empty = [trainer._irns_pool_empty(h, r) for h, r, _ in triples.tolist()]
        assert 0 < sum(empty) < len(empty)
        first = trainer.train_epoch(1)
        assert first.irns_fallback_rate == pytest.approx(sum(empty) / len(empty))
        # epoch 2 trains only queries with a non-empty pool
        trainer.train_triples = triples[~np.array(empty)]
        second = trainer.train_epoch(2)
        cumulative = sum(empty) / (len(triples) + len(trainer.train_triples))
        assert cumulative > 0.0
        assert second.irns_fallback_rate == 0.0
        assert trainer.telemetry["irns_queries"] == len(trainer.train_triples)


class TestTrainingMatchesReferenceGraph:
    @pytest.mark.parametrize("use_ase", [True, False], ids=["ase", "no_ase"])
    @pytest.mark.parametrize("kind", list(AseKind), ids=lambda k: k.value)
    def test_same_checksum_with_either_graph(self, kind, use_ase):
        checksums = []
        for use_reference in (False, True):
            graph, tokenizer, model = hub_relation_setup(ase_kind=kind, use_ase=use_ase)
            if use_reference:
                graph = ReferenceAsArrays(ReferenceGraph(
                    entity_records(graph), graph.relations,
                    {split: graph.triples(split).tolist() for split in SPLITS},
                    num_base_relations=graph.num_base_relations))
            trainer = Trainer(graph, model, tokenizer, small_train_cfg())
            metrics = trainer.train()
            checksums.append(trainer.parameter_checksum())
        assert 0 < metrics[0].irns_fallback_rate < 1
        assert checksums[0] == checksums[1]


class TestFiniteGradientGuard:
    def _optimizer(self):
        params = {"a": Node(np.ones((2, 3))), "b": Node(np.ones((1, 3))),
                  "c": Node(np.ones((3, 3)))}
        opt = AdamW(params, lr=0.1, total_steps=10)
        for p in params.values():  # one clean step, so the moments are non-zero
            p.grad = np.full_like(p.value, 0.5)
        opt.step()
        return params, opt

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_first_bad_parameter_and_changes_nothing(self, bad):
        params, opt = self._optimizer()
        values = {k: p.value.copy() for k, p in params.items()}
        moments = {k: (opt._m[k].copy(), opt._v[k].copy()) for k in params}
        for p in params.values():
            p.grad = np.full_like(p.value, 0.25)
        params["b"].grad[0, 1] = bad
        params["c"].grad[2, 2] = bad
        with pytest.raises(NonFiniteGradientError, match="'b'") as info:
            opt.step()
        assert info.value.param == "b"
        assert opt.step_count == 1
        for k, p in params.items():
            np.testing.assert_array_equal(p.value, values[k])
            np.testing.assert_array_equal(opt._m[k], moments[k][0])
            np.testing.assert_array_equal(opt._v[k], moments[k][1])

    def test_trainer_raises_training_error_naming_the_parameter(self, monkeypatch):
        toy, tokenizer, model = tiny_text_setup()
        trainer = Trainer(toy.graph, model, tokenizer, small_train_cfg())
        backward = ad.backward

        def backward_then_plant_nan(loss):
            backward(loss)
            model.struct.relation_embeddings.grad[0, 0] = np.nan

        monkeypatch.setattr(ad, "backward", backward_then_plant_nan)
        before = {k: p.value.copy() for k, p in model.parameters().items()}
        with pytest.raises(TrainingError, match="'struct.relations'"):
            trainer.train_epoch(1)
        for k, p in model.parameters().items():
            np.testing.assert_array_equal(p.value, before[k])
            assert not trainer.optimizer._m[k].any() and not trainer.optimizer._v[k].any()


class TestDeterminism:
    def _run(self, seed):
        toy, tokenizer, model = tiny_text_setup(seed=3)
        trainer = Trainer(toy.graph, model, tokenizer, small_train_cfg(seed=seed))
        metrics = trainer.train()
        return [m.mean_loss for m in metrics], trainer.parameter_checksum()

    def test_same_seed_bit_identical(self):
        losses_a, sum_a = self._run(7)
        losses_b, sum_b = self._run(7)
        assert losses_a == losses_b
        assert sum_a == sum_b

    def test_different_seed_differs(self):
        _, sum_a = self._run(7)
        _, sum_b = self._run(8)
        assert sum_a != sum_b


class TestTapeSize:
    def test_one_step_builds_a_fixed_tape(self, monkeypatch):
        # every node of the encoders, both losses and the MH/IR sums; a
        # per-query loop or a split-up primitive would change the count
        toy, tokenizer, model = tiny_text_setup(seed=1)
        trainer = Trainer(toy.graph, model, tokenizer, small_train_cfg(ir_count=2))
        sizes = []
        toposort = ad._toposort

        def counting(root):
            order = toposort(root)
            sizes.append(len(order))
            return order

        monkeypatch.setattr(ad, "_toposort", counting)
        batch = trainer.train_triples[:4]
        trainer._step(batch)  # fills the queue: no MH term yet
        trainer._step(batch)
        assert sizes == [80, 81]

    def test_no_node_only_slices_or_rescales(self, monkeypatch):
        # each attention sublayer reads its prefix blocks from the one
        # projection node and each loss reads log tau, so the one smul left
        # weights the structural loss
        toy, tokenizer, model = tiny_text_setup(seed=1)
        trainer = Trainer(toy.graph, model, tokenizer, small_train_cfg(ir_count=2))
        steps = []
        backward = ad.backward

        def counting(root):
            steps.append(collections.Counter(
                n._vjp.__qualname__.split(".")[0] for n in ad._toposort(root) if n._parents))
            backward(root)

        monkeypatch.setattr(ad, "backward", counting)
        batch = trainer.train_triples[:4]
        trainer._step(batch)
        trainer._step(batch)
        assert len(steps) == 2
        for ops in steps:
            assert ops["smul"] == 1 and ops["info_nce"] == 2
            assert ops["attention_sublayer"] == 3  # queries, tails, IR tails
            assert "gather_cols" not in ops and "exp" not in ops

    def test_no_constant_leaf_takes_a_gradient(self, monkeypatch):
        # the masks, the identity and the MH features are arrays, not leaves
        toy, tokenizer, model = tiny_text_setup(seed=1)
        trainer = Trainer(toy.graph, model, tokenizer, small_train_cfg(ir_count=2))
        leaves = []
        backward = ad.backward

        def listing(root):
            leaves.append([n for n in ad._toposort(root) if not n._parents])
            backward(root)

        monkeypatch.setattr(ad, "backward", listing)
        batch = trainer.train_triples[:4]
        trainer._step(batch)
        trainer._step(batch)  # with the MH term
        assert trainer.cfg.use_mh and trainer.cfg.use_ir
        params = {id(p) for p in model.parameters().values()}
        for step in leaves:
            assert [n for n in step if id(n) not in params] == []

    @staticmethod
    def _second_step_tape(monkeypatch, composed):
        """The nodes and the arrays of the tape at the start of the second
        backward of :meth:`test_one_step_builds_a_fixed_tape`'s run, the
        encoder tables, and the parameter checksum after that step."""
        found = {}
        with monkeypatch.context() as patch:
            if composed:
                text_reference.use_compositions(patch)
            toy, tokenizer, model = tiny_text_setup(seed=1)
            trainer = Trainer(toy.graph, model, tokenizer, small_train_cfg(ir_count=2))
            backward = ad.backward

            def inventory(root):
                found["nodes"] = ad._toposort(root)
                found["arrays"] = autodiff_reference.tape_arrays(root)
                backward(root)

            patch.setattr(ad, "backward", inventory)
            batch = trainer.train_triples[:4]
            trainer._step(batch)
            trainer._step(batch)  # with the MH term
        tables = {id(enc.tok_emb) for enc in (model.hr_encoder, model.tail_encoder)}
        tables |= {id(enc.pos_emb) for enc in (model.hr_encoder, model.tail_encoder)}
        return found["nodes"], found["arrays"], tables, trainer.parameter_checksum()

    @staticmethod
    def _dropped(nodes, tables):
        """The arrays of a one-node-per-op tape that no sublayer backward
        reads: the k and v projections, the out-projection and FFN-out
        outputs, both residual sums, the GELU output, the two gathered
        embedding lookups, and the prefix key and value column gathers
        with their column indices."""
        op = {id(n): n._vjp.__qualname__.split(".")[0] if n._vjp else None for n in nodes}

        def mixes(n):  # the out-projection or FFN-out linear map
            return op[id(n)] == "linear" and op[id(n._parents[0])] in ("attention", "gelu")

        dropped = []
        for n in nodes:
            if op[id(n)] == "attention":
                dropped += [n._parents[1].value, n._parents[2].value]
            elif op[id(n)] == "gelu" or mixes(n):
                dropped.append(n.value)
            elif op[id(n)] == "add" and mixes(n._parents[1]):
                dropped.append(n.value)
            elif op[id(n)] == "gather_rows" and id(n._parents[0]) in tables:
                dropped.append(n.value)
            elif op[id(n)] == "gather_cols":  # a view of a transposed copy
                dropped.append(n.value.base)
                dropped += [cell.cell_contents for cell in n._vjp.__closure__
                            if isinstance(cell.cell_contents, np.ndarray)]
        return dropped

    def test_the_tape_keeps_only_what_backward_reads(self, monkeypatch):
        # the same step built one node per op: every array the sublayer
        # tape holds, the composed one holds too, and the composed one
        # holds nothing else but the dropped arrays
        nodes, arrays, tables, checksum = self._second_step_tape(monkeypatch, composed=False)
        c_nodes, c_arrays, c_tables, c_checksum = self._second_step_tape(monkeypatch, composed=True)
        assert checksum == c_checksum
        assert len(nodes) == 81
        # 3 encodes (query, tail, IR) of one layer: 10 nodes fewer per layer,
        # 2 per embedding lookup and 2 per prefix key and value slice
        assert len(c_nodes) - len(nodes) == 3 * (10 + 2 + 2)

        def keys(found):
            return {(a.shape, a.tobytes()) for a in found}

        dropped = self._dropped(c_nodes, c_tables)
        assert len(dropped) == 3 * (7 + 2 + 2 * 2)
        assert keys(arrays.values()) == keys(c_arrays.values()) - keys(dropped)
        assert keys(dropped) <= keys(c_arrays.values())
        kept = sum(a.nbytes for a in arrays.values())
        assert kept == sum(a.nbytes for a in c_arrays.values()) - sum(a.nbytes for a in dropped)


def reference_bodies(monkeypatch):
    """Patch the step's backward, optimizer and EMA to their earlier bodies."""
    monkeypatch.setattr(ad, "backward", autodiff_reference.backward)
    monkeypatch.setattr(AdamW, "step", update_reference.adamw_step)
    monkeypatch.setattr(MomentumEncoder, "ema_update", update_reference.ema_update)


class TestStepMemory:
    """A step frees its tape before the optimizer runs and keeps gradients
    on leaves only, with the bytes of the earlier bodies."""

    def _trainer(self):
        toy, tokenizer, model = tiny_text_setup(seed=1)
        return Trainer(toy.graph, model, tokenizer, small_train_cfg(batch_size=8))

    def test_same_checksum_as_the_reference_bodies(self, monkeypatch):
        runs = []
        for reference in (False, True):
            if reference:
                reference_bodies(monkeypatch)
                text_reference.use_compositions(monkeypatch)
                loss_reference.use_compositions(monkeypatch)
            trainer = self._trainer()
            assert trainer.cfg.use_mh and trainer.cfg.use_ir
            assert trainer.model.config.use_text and trainer.model.config.use_ase
            losses = [m.mean_loss for m in trainer.train()]
            assert len(trainer.queue) >= 2  # the MH term ran
            moments = [trainer.optimizer._m[k].tobytes() + trainer.optimizer._v[k].tobytes()
                       for k in trainer.optimizer.params]
            runs.append((losses, trainer.parameter_checksum(), moments))
        assert runs[0] == runs[1]

    def test_the_tape_is_freed_before_the_optimizer_runs(self, monkeypatch):
        # Node has no __weakref__ slot, so watch an array only the tape holds
        watched = []
        seen_alive = []
        contrastive = training.contrastive_loss
        step = AdamW.step

        def watching_loss(*args, **kwargs):
            loss = contrastive(*args, **kwargs)
            watched.append(weakref.ref(loss.value))
            return loss

        def checking_step(opt):
            seen_alive.append(watched[-1]() is not None)
            return step(opt)

        monkeypatch.setattr(training, "contrastive_loss", watching_loss)
        monkeypatch.setattr(AdamW, "step", checking_step)
        trainer = self._trainer()
        trainer.train_epoch(1)
        assert len(watched) > 1
        assert seen_alive == [False] * len(watched)

    def _second_step_peak(self):
        """The traced peak of a step that runs the MH term."""
        trainer = self._trainer()
        batch = trainer.train_triples[:8]
        trainer._step(batch)  # fills the queue, so the next step runs MH
        gc.collect()
        tracemalloc.start()
        try:
            trainer._step(batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_step_peaks_well_below_the_reference_step(self, monkeypatch):
        # measured: the lean step peaks 30% below the reference step, which
        # holds its tape to the end; the 25% bound leaves a margin
        peaks = []
        for reference in (False, True):
            if reference:
                reference_bodies(monkeypatch)
                contrastive = training.contrastive_loss
                held = []

                def holding_loss(*args, **kwargs):
                    held.append(contrastive(*args, **kwargs))
                    return held[-1]

                monkeypatch.setattr(training, "contrastive_loss", holding_loss)
            peaks.append(self._second_step_peak())
        lean, reference = peaks
        assert lean < 0.75 * reference

    def test_a_step_peaks_below_the_one_node_per_op_step(self, monkeypatch):
        # measured: the sublayer step peaks 32% below the same lean step with
        # the encoder built one node per op; the 20% bound leaves a margin
        lean = self._second_step_peak()
        text_reference.use_compositions(monkeypatch)
        assert lean < 0.8 * self._second_step_peak()


class TestTemperature:
    def test_log_tau_receives_gradient_after_one_step(self):
        toy, tokenizer, model = tiny_text_setup()
        before = model.log_tau.value.copy()
        trainer = Trainer(toy.graph, model, tokenizer,
                          small_train_cfg(epochs=1, use_mh=False))
        trainer.train_epoch(1)
        assert model.log_tau.value[0, 0] != before[0, 0]

    def test_tau_stays_clamped(self):
        toy, tokenizer, model = tiny_text_setup()
        trainer = Trainer(toy.graph, model, tokenizer,
                          small_train_cfg(tau_min=0.04, tau_max=0.06, epochs=2,
                                          lr=0.05, use_mh=False))
        trainer.train()
        assert 0.04 - 1e-12 <= model.tau <= 0.06 + 1e-12

    @pytest.mark.parametrize("tau_init", [0.03, 0.07])
    def test_model_tau_outside_the_clamp_range_rejected(self, tau_init):
        toy, tokenizer, model = tiny_text_setup(tau_init=tau_init)
        with pytest.raises(ValueError, match="outside clamp range"):
            Trainer(toy.graph, model, tokenizer,
                    small_train_cfg(tau_min=0.04, tau_max=0.06, use_mh=False))

    def test_model_tau_at_the_clamp_bounds_accepted(self):
        for tau in (0.04, 0.06):
            toy, tokenizer, model = tiny_text_setup(tau_init=tau)
            Trainer(toy.graph, model, tokenizer,
                    small_train_cfg(tau_min=0.04, tau_max=0.06, use_mh=False))

    @pytest.mark.parametrize("tau_init", [0.05, 0.003, 0.7])
    def test_model_log_tau_is_the_log_of_tau_init(self, tau_init):
        model = Model(ModelConfig(num_entities=3, num_base_relations=1,
                                  use_text=False, tau_init=tau_init), seed=0)
        assert model.log_tau.value.shape == (1, 1)
        assert model.log_tau.value[0, 0] == np.log(tau_init)

    @pytest.mark.parametrize("tau_init", [0.0, -0.05, float("nan"), float("inf")])
    def test_model_config_rejects_a_bad_tau_naming_the_key(self, tau_init):
        with pytest.raises(ValueError, match="^tau_init must be"):
            ModelConfig(num_entities=3, num_base_relations=1, use_text=False,
                        tau_init=tau_init)


class TestLossSettings:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.tau_min == 0.01 and cfg.tau_max == 1.0 and cfg.margin == 0.02

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau_min": 0.0},
            {"tau_min": -0.1},
            {"tau_min": 0.5, "tau_max": 0.1},
            {"margin": -0.5},
            {"beta": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["tau_min", "tau_max", "margin", "beta"])
    def test_non_finite_rejected_naming_the_field(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be a finite number"):
            TrainConfig(**{key: value})


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"lr": 0.0},
            {"momentum": 1.0},
            {"queue_capacity": 0},
            {"queue_capacity": 1},
            {"hardest_k": 1},
            {"ir_count": -1},
            {"ir_count": 0},
            {"weight_decay": -0.01},
            {"clip_norm": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["lr", "weight_decay", "clip_norm", "momentum"])
    def test_non_finite_rejected_naming_the_field(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be a finite number"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("key", ["weight_decay", "clip_norm"])
    def test_negative_rejected_naming_the_field(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be non-negative"):
            TrainConfig(**{key: -0.5})

    @pytest.mark.parametrize("key", ["weight_decay", "clip_norm"])
    def test_zero_turns_decay_or_clipping_off(self, key):
        assert getattr(TrainConfig(**{key: 0.0}), key) == 0.0
