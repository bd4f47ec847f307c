import copy
import gc
import weakref

import numpy as np
import pytest

from structkgc import evaluation
from structkgc.data import build_tokenizer
from structkgc.evaluation import (
    DEFAULT_FILTER_SPLITS,
    SCORE_MODES,
    ModelScorer,
    QueryResult,
    RerankConfig,
    aggregate,
    build_report,
    evaluate,
    filtered_rank,
    miou,
    rerank,
    top_candidates,
)
from structkgc.graph import EntityRecord, KnowledgeGraph, RelationRecord, Triple
from structkgc.model import Model, ModelConfig
from structkgc.structural import AseKind
from structkgc.text import tokenize_entity
from structkgc.toygen import make_text_toy

from graph_reference import ReferenceGraph
from scorers import TableScorer, encode_one_query


def oracle_rank(scores, gold, filter_ids):
    """Sort-based oracle: order candidates, gold last among score ties."""
    entries = [
        (i, s) for i, s in enumerate(scores) if i == gold or i not in filter_ids
    ]
    entries.sort(key=lambda item: (-item[1], item[0] == gold))
    return [i for i, _ in entries].index(gold) + 1


# ---------------------------------------------------------------------------
# reference loops: the per-candidate code the array versions replaced
# ---------------------------------------------------------------------------

def reference_filtered_rank(scores, gold, filter_ids):
    scores = np.asarray(scores, dtype=np.float64)
    filter_ids = set(filter_ids)
    if gold in filter_ids:
        raise ValueError(f"gold entity {gold} is in the filter set")
    gold_score = scores[gold]
    rank = 1
    for i, s in enumerate(scores):
        if i == gold or i in filter_ids:
            continue
        if s >= gold_score:
            rank += 1
    return rank


def reference_rerank(scores, neighbor_ids, alpha):
    if alpha < 0:
        raise ValueError(f"re-ranking penalty must be non-negative, got {alpha}")
    out = np.array(scores, dtype=np.float64, copy=True)
    if alpha == 0.0:
        return out
    neighbor_ids = set(neighbor_ids)
    penalty = np.full(out.shape, alpha)
    if neighbor_ids:
        penalty[sorted(neighbor_ids)] = 0.0
    return out - penalty


def reference_top(scores, filter_ids, k):
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [int(i) for i in order if i not in filter_ids][:k]


def reference_evaluate(scorer, graph, split, filter_splits=DEFAULT_FILTER_SPLITS,
                       rerank_config=None, collect_details=False, top_k=10):
    rerank_config = rerank_config or RerankConfig()
    results = []
    for h, r, t in graph.triples(split):
        raw = np.asarray(scorer.scores(h, r), dtype=np.float64)
        if rerank_config.alpha > 0:
            neighbors = graph.tails_by_relation(r, rerank_config.splits)
            adjusted = reference_rerank(raw, neighbors, rerank_config.alpha)
        else:
            adjusted = raw
        filter_ids = set(graph.tails_by_pair(h, r, filter_splits))
        filter_ids.discard(t)
        rank = reference_filtered_rank(adjusted, t, filter_ids)
        direction = "head" if graph.is_inverse_relation(r) else "tail"
        result = QueryResult(h, r, t, rank, direction)
        if collect_details:
            kept = reference_top(adjusted, filter_ids, top_k)
            result.top = [(i, float(adjusted[i])) for i in kept]
        results.append(result)
    return build_report(results), results


def reference_miou(graph, test_triples):
    """The set formula ``miou`` used before e(r) became a sorted array."""
    test_triples = [Triple(*t) for t in test_triples]
    per_relation = {}
    for _, r, _ in test_triples:
        if r in per_relation:
            continue
        train_tails = graph.tails_by_relation(r, ("train",))
        test_tails = graph.tails_by_relation(r, ("test",))
        if not train_tails:
            per_relation[r] = 0.0
            continue
        union = train_tails | test_tails
        per_relation[r] = len(train_tails & test_tails) / len(union) if union else 0.0
    if not test_triples:
        return 0.0, per_relation
    mean = float(np.mean([per_relation[t.relation] for t in test_triples]))
    return mean, per_relation


class TestFilteredRank:
    def test_filtered_competitor_removed(self):
        scores = np.array([0.9, 0.8, 0.7])  # X, Y, Z
        assert filtered_rank(scores, gold=2, filter_ids={0}) == 2

    def test_gold_highest(self):
        assert filtered_rank(np.array([0.1, 0.9, 0.5]), 1, set()) == 1

    def test_pessimistic_ties(self):
        assert filtered_rank(np.ones(5), 2, set()) == 5

    def test_gold_in_filter_rejected(self):
        with pytest.raises(ValueError, match="filter"):
            filtered_rank(np.ones(3), 1, {1})

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            # quantized scores make ties common
            scores = rng.integers(0, 6, size=n).astype(float) / 5.0
            gold = int(rng.integers(0, n))
            others = [i for i in range(n) if i != gold]
            rng.shuffle(others)
            filter_ids = set(others[: int(rng.integers(0, len(others) + 1))])
            assert filtered_rank(scores, gold, filter_ids) == oracle_rank(
                scores, gold, filter_ids
            )


class TestAggregate:
    def test_perfect(self):
        out = aggregate([1, 1])
        assert out["mrr"] == 1.0 and out["hits1"] == 1.0 and out["hits10"] == 1.0

    def test_one_and_two(self):
        out = aggregate([1, 2])
        assert out["mrr"] == pytest.approx(0.75)
        assert out["hits1"] == pytest.approx(0.5)
        assert out["hits3"] == pytest.approx(1.0)

    def test_rank_four(self):
        out = aggregate([4])
        assert out["mrr"] == pytest.approx(0.25)
        assert out["hits3"] == 0.0
        assert out["hits10"] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate([])

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            ranks = rng.integers(1, 40, size=rng.integers(1, 20))
            out = aggregate(ranks)
            assert out["mrr"] == pytest.approx(sum(1.0 / r for r in ranks) / len(ranks))
            for k, key in ((1, "hits1"), (3, "hits3"), (10, "hits10")):
                assert out[key] == pytest.approx(
                    sum(1 for r in ranks if r <= k) / len(ranks)
                )

    def test_report_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            out = aggregate(rng.integers(1, 25, size=rng.integers(1, 30)))
            assert out["hits1"] <= out["hits3"] <= out["hits10"]
            assert out["hits1"] <= out["mrr"] <= 1.0


class TestRerank:
    def test_alpha_zero_identity(self):
        scores = np.array([0.3, -0.2, 0.9])
        np.testing.assert_array_equal(rerank(scores, {1}, 0.0), scores)

    def test_large_alpha_makes_members_dominate(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(-1, 1, size=20)
        members = {3, 7, 11}
        out = rerank(scores, members, alpha=10.0)
        worst_member = min(out[i] for i in members)
        best_outsider = max(out[i] for i in range(20) if i not in members)
        assert worst_member > best_outsider

    def test_hand_case(self):
        out = rerank(np.array([0.5, 0.4]), {1}, alpha=0.2)
        np.testing.assert_allclose(out, [0.3, 0.4])
        assert int(np.argmax(out)) == 1

    def test_pure_function(self):
        scores = np.array([0.5, 0.4])
        rerank(scores, {1}, alpha=0.2)
        np.testing.assert_array_equal(scores, [0.5, 0.4])

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(-1, 1, size=15)
        members = {0, 5}
        outsider_rank_prev = None
        for alpha in (0.0, 0.1, 0.5, 2.0):
            out = rerank(scores, members, alpha)
            # rank of the best outsider relative to members never improves
            outsider = max(out[i] for i in range(15) if i not in members)
            above = sum(1 for i in members if out[i] > outsider)
            if outsider_rank_prev is not None:
                assert above >= outsider_rank_prev
            outsider_rank_prev = above

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            rerank(np.zeros(3), set(), -0.1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.1])
    def test_config_rejects_non_finite_or_negative_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite non-negative"):
            RerankConfig(alpha=alpha)


def graph_with_splits(n_entities, n_relations, train, test):
    ents = [EntityRecord(f"e{i}", "", i) for i in range(n_entities)]
    rels = [RelationRecord(f"r{i}", "", i) for i in range(n_relations)]
    return KnowledgeGraph(ents, rels, {"train": train, "test": test})


class TestMiou:
    def test_identical_sets(self):
        train = [Triple(0, 0, 1), Triple(2, 0, 3)]
        test = [Triple(4, 0, 1), Triple(4, 0, 3)]
        g = graph_with_splits(5, 1, train, test)
        value, table = miou(g)
        assert value == pytest.approx(1.0)
        assert table[0] == pytest.approx(1.0)

    def test_partial_overlap(self):
        train = [Triple(0, 0, 1), Triple(0, 0, 2)]  # e(r)_train = {1, 2}
        test = [Triple(3, 0, 2), Triple(3, 0, 4)]   # e(r)_test = {2, 4}
        g = graph_with_splits(5, 1, train, test)
        value, _ = miou(g)
        assert value == pytest.approx(1.0 / 3.0)

    def test_valid_split_compares_against_valid_tails(self):
        # e(r) is {1, 3} in train and in valid; test holds other tails
        ents = [EntityRecord(f"e{i}", "", i) for i in range(6)]
        g = KnowledgeGraph(ents, [RelationRecord("r0", "", 0)], {
            "train": [Triple(0, 0, 1), Triple(2, 0, 3)],
            "valid": [Triple(4, 0, 1), Triple(5, 0, 3)],
            "test": [Triple(4, 0, 5)],
        })
        value, table = miou(g, "valid")
        assert value == 1.0 and table == {0: 1.0}
        assert miou(g, "test") == (0.0, {0: 0.0})

    def test_disjoint_sets(self):
        g = graph_with_splits(6, 1, [Triple(0, 0, 1)], [Triple(2, 0, 3)])
        value, _ = miou(g)
        assert value == 0.0

    def test_relation_absent_from_train(self):
        g = graph_with_splits(4, 2, [Triple(0, 0, 1)], [Triple(2, 1, 3)])
        value, table = miou(g)
        assert value == 0.0 and table[1] == 0.0

    def test_multiplicity_weighting(self):
        # relation 0 has IOU 1, relation 1 IOU 0; relation 0 appears twice
        train = [Triple(0, 0, 1), Triple(0, 1, 2)]
        test = [Triple(3, 0, 1), Triple(2, 0, 1), Triple(3, 1, 3)]
        g = graph_with_splits(5, 2, train, test)
        value, _ = miou(g)
        assert value == pytest.approx((1.0 + 1.0 + 0.0) / 3.0)

    def test_matches_set_oracle_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n_e, n_r = int(rng.integers(3, 10)), int(rng.integers(1, 4))
            def rand_triples(k):
                return [
                    Triple(int(rng.integers(0, n_e)), int(rng.integers(0, n_r)),
                           int(rng.integers(0, n_e)))
                    for _ in range(k)
                ]
            g = graph_with_splits(
                n_e, n_r, rand_triples(int(rng.integers(1, 15))),
                rand_triples(int(rng.integers(1, 10))),
            )
            test_triples = g.triples("test")
            value, _ = miou(g, "test")
            # independent set-library recomputation
            expected = []
            for _, r, _ in test_triples.tolist():
                tr = {t for _, q, t in g.triples("train").tolist() if q == r}
                te = {t for _, q, t in test_triples.tolist() if q == r}
                expected.append(len(tr & te) / len(tr | te) if tr else 0.0)
            assert value == pytest.approx(float(np.mean(expected)), abs=1e-12)


    def test_matches_old_set_formula_exactly(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n_e, n_r = int(rng.integers(2, 12)), int(rng.integers(1, 5))
            ents = [EntityRecord(f"e{i}", "", i) for i in range(n_e)]
            rels = [RelationRecord(f"r{i}", "", i) for i in range(n_r)]
            splits = {s: rng.integers(0, [n_e, n_r, n_e], size=(int(rng.integers(0, 20)), 3))
                      for s in ("train", "test")}
            g = KnowledgeGraph(ents, rels, splits)
            ref = ReferenceGraph(ents, rels, {s: a.tolist() for s, a in splits.items()})
            assert miou(g) == reference_miou(ref, ref.triples("test"))


class TestEvaluate:
    def _toy(self):
        train = [Triple(0, 0, 1), Triple(0, 0, 2), Triple(3, 0, 4)]
        test = [Triple(0, 0, 3), Triple(2, 0, 4)]
        return graph_with_splits(5, 1, train, test)

    def _oracle_table(self, g, rng):
        table = {}
        for h, r, _ in g.triples("test"):
            table[(h, r)] = rng.uniform(-1, 1, size=g.num_entities)
        return table

    def test_matches_brute_force(self):
        g = self._toy()
        rng = np.random.default_rng(6)
        table = self._oracle_table(g, rng)
        report, results = evaluate(TableScorer(table), g, "test",
                                   filter_splits=("train", "test"))
        for res, (h, r, t) in zip(results, g.triples("test").tolist()):
            scores = table[(h, r)]
            known = {
                tail
                for head, rel, tail in g.triples("train").tolist() + g.triples("test").tolist()
                if head == h and rel == r and tail != t
            }
            assert res.rank == oracle_rank(scores, t, known)
        assert report.hits1 <= report.hits3 <= report.hits10
        assert report.hits1 <= report.mrr <= 1.0

    def test_alpha_zero_equals_no_rerank(self):
        g = self._toy()
        rng = np.random.default_rng(7)
        table = self._oracle_table(g, rng)
        base, _ = evaluate(TableScorer(table), g, "test")
        zero, _ = evaluate(TableScorer(table), g, "test",
                           rerank_config=RerankConfig(alpha=0.0))
        assert base == zero

    def test_collect_details_top_k(self):
        g = self._toy()
        rng = np.random.default_rng(8)
        table = self._oracle_table(g, rng)
        _, results = evaluate(TableScorer(table), g, "test",
                              collect_details=True, top_k=3)
        for res in results:
            assert len(res.top) == 3
            scores = [s for _, s in res.top]
            assert scores == sorted(scores, reverse=True)

    def test_direction_breakdown(self):
        results = [
            QueryResult(0, 0, 1, 1, "tail"),
            QueryResult(1, 1, 0, 2, "head"),
        ]
        report = build_report(results)
        assert report.by_direction["tail"]["mrr"] == 1.0
        assert report.by_direction["head"]["mrr"] == 0.5
        assert report.mrr == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# array ranking pinned to the reference loops
# ---------------------------------------------------------------------------

def quantized(rng, n, levels=6):
    """Scores on a coarse grid, so ties are common."""
    return rng.integers(0, levels, size=n).astype(float) / (levels - 1)


def assert_same_ranking(scores, gold, filter_ids, k=10):
    """Rank and top-k agree with the loops for a set, a list and an array."""
    expected_rank = reference_filtered_rank(scores, gold, filter_ids)
    expected_top = reference_top(scores, filter_ids, k)
    as_array = np.array(sorted(filter_ids), dtype=np.intp)
    for ids in (set(filter_ids), sorted(filter_ids), as_array):
        assert filtered_rank(scores, gold, ids) == expected_rank
        assert top_candidates(scores, ids, k).tolist() == expected_top


class TestArrayRankingMatchesLoops:
    def test_random_tables_with_planted_ties(self):
        rng = np.random.default_rng(20)
        for _ in range(500):
            n = int(rng.integers(1, 60))
            scores = quantized(rng, n, levels=int(rng.integers(2, 8)))
            gold = int(rng.integers(0, n))
            others = [i for i in range(n) if i != gold]
            rng.shuffle(others)
            filter_ids = set(others[: int(rng.integers(0, len(others) + 1))])
            assert_same_ranking(scores, gold, filter_ids, k=int(rng.integers(0, 15)))

    def test_ties_straddling_the_kth_slot(self):
        rng = np.random.default_rng(21)
        for k in (1, 3, 10):
            for _ in range(50):
                n = 40
                scores = rng.permutation(n).astype(float)
                # the scores ranked k-1 to k+3 become one tie across place k
                scores[(scores >= n - k - 3) & (scores <= n - k + 1)] = n - k
                filter_ids = set(rng.choice(n, size=5, replace=False).tolist())
                gold = next(i for i in range(n) if i not in filter_ids)
                assert_same_ranking(scores, gold, filter_ids, k)

    def test_gold_tied_with_filtered_and_unfiltered(self):
        scores = np.array([0.5, 0.9, 0.5, 0.5, 0.1, 0.5])
        # gold 2 ties with 0 and 5 (kept) and with 3 (filtered); 1 is above
        assert filtered_rank(scores, 2, {3}) == reference_filtered_rank(scores, 2, {3}) == 4
        assert_same_ranking(scores, 2, {3}, k=4)
        assert_same_ranking(scores, 2, {1, 3}, k=2)

    def test_empty_filter_and_filter_of_all_but_gold(self):
        rng = np.random.default_rng(22)
        scores = quantized(rng, 30)
        assert_same_ranking(scores, 7, set())
        everything_else = set(range(30)) - {7}
        assert filtered_rank(scores, 7, everything_else) == 1
        assert top_candidates(scores, np.array(sorted(everything_else)), 10).tolist() == [7]
        assert_same_ranking(scores, 7, everything_else)

    def test_fewer_candidates_than_k(self):
        rng = np.random.default_rng(23)
        for n in range(1, 10):
            scores = quantized(rng, n)
            assert_same_ranking(scores, n - 1, set(range(n // 2)) - {n - 1}, k=10)

    def test_nan_scores(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            scores = quantized(rng, n)
            scores[rng.random(n) < 0.3] = np.nan
            gold = int(rng.integers(0, n))
            filter_ids = set(rng.choice(n, size=n // 3, replace=False).tolist()) - {gold}
            assert_same_ranking(scores, gold, filter_ids, k=int(rng.integers(1, 12)))

    def test_gold_in_filter_rejected_for_every_container(self):
        for ids in ({1}, [1], np.array([0, 1])):
            with pytest.raises(ValueError, match="filter"):
                filtered_rank(np.ones(3), 1, ids)

    def test_rerank_bit_identical(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            scores = rng.uniform(-1, 1, size=n)
            members = set(rng.choice(n, size=int(rng.integers(0, n + 1)),
                                     replace=False).tolist())
            alpha = float(rng.choice([0.0, 0.05, 0.3]))
            expected = reference_rerank(scores, members, alpha)
            for ids in (members, np.array(sorted(members), dtype=np.intp)):
                np.testing.assert_array_equal(rerank(scores, ids, alpha), expected)

    @pytest.mark.parametrize("splits", [("train",), ("train", "valid")])
    def test_evaluate_matches_reference_with_rerank(self, splits):
        rng = np.random.default_rng(26)
        n = 25

        def rand_triples(k):
            return [Triple(int(rng.integers(0, n)), int(rng.integers(0, 3)),
                           int(rng.integers(0, n))) for _ in range(k)]

        ents = [EntityRecord(f"e{i}", "", i) for i in range(n)]
        rels = [RelationRecord(f"r{i}", "", i) for i in range(3)]
        g = KnowledgeGraph(ents, rels, {"train": rand_triples(60),
                                     "valid": rand_triples(15),
                                     "test": rand_triples(30)})
        table = {(h, r): quantized(rng, n) for h, r, _ in g.triples("test")}
        for alpha in (0.0, 0.2, 1.0):
            for top_k in (3, 10, 40):
                kwargs = dict(rerank_config=RerankConfig(alpha=alpha, splits=splits),
                              collect_details=True, top_k=top_k)
                want = reference_evaluate(TableScorer(table), g, "test", **kwargs)
                got = evaluate(TableScorer(table), g, "test", **kwargs)
                assert got == want


def text_struct_model(kind, seed=0):
    toy = make_text_toy(num_entities=14, num_relations=3, num_triples=24, seed=seed)
    tokenizer = build_tokenizer(toy.graph, min_freq=2)
    cfg = ModelConfig(
        num_entities=toy.graph.num_entities,
        num_base_relations=toy.graph.num_base_relations,
        struct_dim=8, layers=1, hidden_dim=16, heads=2, max_len=16,
        vocab_size=len(tokenizer), ase_kind=kind,
    )
    return toy.graph, tokenizer, Model(cfg, seed=seed)


def split_pairs(graph, *splits):
    return np.concatenate([graph.triples(split)[:, :2] for split in splits])


@pytest.mark.parametrize("kind", list(AseKind))
class TestModelScorerMatchesModel:
    def test_struct_and_combined_scores(self, kind):
        g, tokenizer, model = text_struct_model(kind)
        pairs = split_pairs(g, "train", "test")
        struct = ModelScorer(model, g, tokenizer, pairs, mode="struct")
        text = ModelScorer(model, g, tokenizer, pairs, mode="text")
        combined = ModelScorer(model, g, tokenizer, pairs, mode="combined", beta=0.3)
        for h, r in pairs.tolist():
            want = model.struct_scores_all_tails(h, r)
            np.testing.assert_array_equal(struct.scores(h, r), want)
            np.testing.assert_array_equal(
                combined.scores(h, r), text.scores(h, r) + 0.3 * want
            )

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, kind, beta):
        g, tokenizer, model = text_struct_model(kind)
        with pytest.raises(ValueError, match="beta must be a finite number"):
            ModelScorer(model, g, tokenizer, [(0, 0)], mode="combined", beta=beta)

    def test_text_tail_matrix_matches_per_entity_build(self, kind, monkeypatch):
        g, tokenizer, model = text_struct_model(kind)
        # 14 entities in chunks of 4: three full chunks and a remainder
        monkeypatch.setattr(evaluation, "ENCODE_CHUNK", 4)
        scorer = ModelScorer(model, g, tokenizer, [(0, 0)], mode="text")
        per_entity = np.concatenate([
            model.encode_tails([tokenize_entity(tokenizer, name, desc, model.config.max_len)],
                               [e]).value
            for e, (name, desc) in enumerate(zip(g.entity_names, g.entity_descriptions))
        ])
        np.testing.assert_allclose(scorer._tail_matrix, per_entity, rtol=0, atol=1e-12)

    def test_tail_table_is_a_construction_snapshot(self, kind):
        # both sides are fixed at construction: every parameter moves after
        # it, and the scores stay those of the pre-mutation model
        g, tokenizer, model = text_struct_model(kind)
        before = copy.deepcopy(model)
        pairs = [(0, 0), *g.triples("test")[:, :2].tolist()]
        scorers = {mode: ModelScorer(model, g, tokenizer, pairs, mode=mode, beta=0.3)
                   for mode in SCORE_MODES}
        rng = np.random.default_rng(5)
        for node in model.parameters().values():
            node.value += rng.normal(0.0, 0.1, size=node.value.shape)
        tails = np.concatenate([
            before.encode_tails([tokenize_entity(tokenizer, name, desc,
                                                 before.config.max_len)], [e]).value
            for e, (name, desc) in enumerate(zip(g.entity_names, g.entity_descriptions))
        ])
        for h, r in pairs:
            struct = before.struct_scores_all_tails(h, r)
            text = tails @ encode_one_query(before, g, tokenizer, h, r)
            assert not np.array_equal(struct, model.struct_scores_all_tails(h, r))
            assert not np.allclose(text, tails @ encode_one_query(model, g, tokenizer, h, r))
            np.testing.assert_array_equal(scorers["struct"].scores(h, r), struct)
            np.testing.assert_allclose(scorers["text"].scores(h, r), text,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(scorers["combined"].scores(h, r),
                                       text + 0.3 * struct, rtol=0, atol=1e-12)

    def test_queries_match_one_query_encodes(self, kind, monkeypatch):
        g, tokenizer, model = text_struct_model(kind)
        pairs = list(dict.fromkeys(map(tuple, g.triples("train")[:, :2].tolist())))[:10]
        # 10 distinct pairs in chunks of 4: two full chunks and a remainder
        assert len(pairs) == 10
        monkeypatch.setattr(evaluation, "ENCODE_CHUNK", 4)
        scorer = ModelScorer(model, g, tokenizer, [*pairs, pairs[3]], mode="text")
        assert list(scorer._rows) == pairs
        for row, (h, r) in enumerate(pairs):
            np.testing.assert_allclose(scorer._text_queries[row],
                                       encode_one_query(model, g, tokenizer, h, r),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_pair_not_built_for_is_a_key_error(self, kind, mode):
        g, tokenizer, model = text_struct_model(kind)
        scorer = ModelScorer(model, g, tokenizer, [(1, 0), (2, 1)], mode=mode)
        assert scorer.scores(2, 1).shape == (g.num_entities,)
        with pytest.raises(KeyError, match=r"\(2, 0\)"):
            scorer.scores(2, 0)

    def test_no_pairs_rejected(self, kind):
        g, tokenizer, model = text_struct_model(kind)
        with pytest.raises(ValueError, match="at least one"):
            ModelScorer(model, g, tokenizer, np.empty((0, 2), dtype=np.int64))

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_keeps_no_reference_to_the_model(self, kind, mode):
        g, tokenizer, model = text_struct_model(kind)
        scorer = ModelScorer(model, g, tokenizer, split_pairs(g, "test"), mode=mode)
        parts = [model, model.struct, model.hr_encoder, model.tail_encoder,
                 model.hr_projector, model.tail_projector]
        refs = [weakref.ref(part) for part in parts]
        del model, parts
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        h, r = g.triples("test")[0, :2].tolist()
        assert np.isfinite(scorer.scores(h, r)).all()
