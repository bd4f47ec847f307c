import copy
import dataclasses
import gc
import itertools
import re
import sys
import threading
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from structkgc import autodiff as ad
from structkgc import evaluation
from structkgc.data import Dataset, build_tokenizer
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
from structkgc.graph import SPLITS, EntityRecord, KnowledgeGraph, RelationRecord, Triple
from structkgc.model import Model, ModelConfig
from structkgc.structural import AseKind
from structkgc.text import tokenize_entity, tokenize_hr
from structkgc.toygen import make_text_toy

from graph_reference import ReferenceGraph
from scorers import (
    TableScorer,
    encode_one_query,
    serial_encode_in_chunks,
    serial_evaluate,
)


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


def reference_top_candidates(scores, filtered, k):
    """``top_candidates`` before the group threshold: every kept id in one
    array, and one partition over all of their scores."""
    ids = np.delete(np.arange(len(scores)), np.fromiter(filtered, dtype=np.intp))
    neg = -scores[ids]
    if 0 < k < len(ids) and not np.isnan(neg).any():
        at_or_above = neg <= np.partition(neg, k - 1)[k - 1]
        ids, neg = ids[at_or_above], neg[at_or_above]
    return ids[np.lexsort((ids, neg))[:k]]


def reference_evaluate(scorer, graph, split, filter_splits=DEFAULT_FILTER_SPLITS,
                       rerank_config=None, top_k=None):
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
        if top_k is not None:
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

    @pytest.mark.parametrize("gold", [-1, -3, 3, 8])
    def test_gold_outside_the_row_rejected(self, gold):
        # -1 would wrap to the last candidate and rank it; 3 would index past the row
        with pytest.raises(ValueError, match=rf"gold entity {gold} is outside \[0, 3\)"):
            filtered_rank(np.array([0.9, 0.5, 0.7]), gold, [])

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
        for alpha in (-0.1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="alpha must be a finite non-negative"):
                rerank(np.zeros(3), {1}, alpha)

    @pytest.mark.parametrize("splits", [(), ("bogus",), ("train", "tests"), "train"])
    def test_config_rejects_unknown_or_no_splits(self, splits):
        with pytest.raises(ValueError, match=re.escape(repr(splits))):
            RerankConfig(alpha=0.1, splits=splits)

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
            if not len(splits["test"]):
                with pytest.raises(ValueError, match="'test' has no triples"):
                    miou(g)
                continue
            assert miou(g) == reference_miou(ref, ref.triples("test"))

    def test_split_with_no_triples_is_refused(self):
        g = graph_with_splits(3, 1, [Triple(0, 0, 1)], [])
        with pytest.raises(ValueError, match="split 'valid' has no triples"):
            miou(g, "valid")


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

    def test_top_k_lists(self):
        g = self._toy()
        rng = np.random.default_rng(8)
        table = self._oracle_table(g, rng)
        _, results = evaluate(TableScorer(table), g, "test", top_k=3)
        for res in results:
            assert len(res.top) == 3
            scores = [s for _, s in res.top]
            assert scores == sorted(scores, reverse=True)

    def test_negative_top_k_rejected(self):
        g = self._toy()
        table = self._oracle_table(g, np.random.default_rng(9))
        with pytest.raises(ValueError, match="top_k.*-2"):
            evaluate(TableScorer(table), g, "test", top_k=-2)
        for top_k in (0, None):
            _, results = evaluate(TableScorer(table), g, "test", top_k=top_k)
            assert [res.top for res in results] == [[], []]

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
    """Rank and top-k agree with the loops for a set, a list, an array and
    a list that names every id twice."""
    expected_rank = reference_filtered_rank(scores, gold, filter_ids)
    expected_top = reference_top(scores, filter_ids, k)
    as_array = np.array(sorted(filter_ids), dtype=np.intp)
    for ids in (set(filter_ids), sorted(filter_ids), as_array, sorted(filter_ids) * 2):
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
        # +-inf as well, and a NaN gold in about a third of the rows
        rng = np.random.default_rng(26)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            scores = quantized(rng, n)
            bad = rng.random(n) < 0.4
            scores[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
            gold = int(rng.integers(0, n))
            if rng.random() < 0.3:
                scores[gold] = np.nan
            filter_ids = set(rng.choice(n, size=n // 3, replace=False).tolist()) - {gold}
            assert_same_ranking(scores, gold, filter_ids, k=int(rng.integers(1, 12)))
        assert filtered_rank(np.array([np.nan, 0.5, np.inf]), 0, [2]) == 1

    @pytest.mark.parametrize("wide", [False, True])
    def test_top_candidates_matches_one_partition_over_every_kept_id(self, wide):
        # wide rows give at least k groups of TOP_GROUP, so the group
        # threshold runs; narrow ones partition the whole row
        rng = np.random.default_rng(27 + wide)
        for _ in range(300):
            k = int(rng.integers(0, 25))
            n = int(rng.integers(evaluation.TOP_GROUP * max(k, 1), 4000) if wide
                    else rng.integers(1, 80))
            scores = (quantized(rng, n, levels=int(rng.integers(2, 40)))
                      if rng.random() < 0.5 else rng.normal(size=n))
            if k and rng.random() < 0.5:       # a tie across the k-th place
                kth = np.sort(scores)[::-1][min(k, n) - 1]
                scores[rng.random(n) < 0.02] = kth
            if rng.random() < 0.2:
                scores[rng.random(n) < 0.3] = rng.choice([np.nan, np.inf, -np.inf])
            # none, any number, or so many that fewer than k candidates stay
            size = rng.choice([0, rng.integers(0, n + 1), n - min(k, n) + rng.integers(0, k + 1)])
            filtered = rng.choice(n, size=min(int(size), n), replace=False)
            want = reference_top_candidates(scores, filtered, k).tolist()
            for ids in (filtered, set(filtered.tolist()), filtered.tolist()):
                assert top_candidates(scores, ids, k).tolist() == want

    def test_gold_in_filter_rejected_for_every_container(self):
        for ids in ({1}, [1], np.array([0, 1])):
            with pytest.raises(ValueError, match="filter"):
                filtered_rank(np.ones(3), 1, ids)

    @pytest.mark.parametrize("bad", [-1, -4, 4, 9])
    def test_ids_outside_the_row_are_rejected(self, bad):
        # -1 would wrap to the gold (3) or the last candidate
        scores = np.array([0.9, 0.5, 0.7, 0.5])
        for ids in ([bad], {0, bad}, np.array([1, bad])):
            message = f"candidate id {bad} is outside \\[0, 4\\)"
            with pytest.raises(ValueError, match=message):
                filtered_rank(scores, 3, ids)
            with pytest.raises(ValueError, match=message):
                top_candidates(scores, ids, 4)
            with pytest.raises(ValueError, match=message):
                rerank(scores, ids, 0.5)

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
                              top_k=top_k)
                want = reference_evaluate(TableScorer(table), g, "test", **kwargs)
                got = evaluate(TableScorer(table), g, "test", **kwargs)
                assert got == want


def with_descriptions(toy, descriptions) -> Dataset:
    """``toy`` with entity ``i`` described by ``descriptions[i]``."""
    graph = toy.graph
    records = [EntityRecord(name, description, i) for i, (name, description)
               in enumerate(zip(graph.entity_names, descriptions, strict=True))]
    return Dataset(KnowledgeGraph(records, graph.relations,
                                  {split: graph.triples(split) for split in SPLITS},
                                  graph.num_base_relations),
                   toy.entity_raw_ids, toy.relation_raw_ids)


def varied_length_toy(num_entities, num_relations, num_triples, seed=0) -> Dataset:
    """``make_text_toy``'s dataset with descriptions of 1 to 20 of its
    description words, so token lists vary in length, some past a
    ``max_len`` of 16."""
    toy = make_text_toy(num_entities=num_entities, num_relations=num_relations,
                        num_triples=num_triples, seed=seed)
    words = sorted(set(" ".join(toy.graph.entity_descriptions).split()))
    rng = np.random.default_rng(seed)
    return with_descriptions(toy, [" ".join(rng.choice(words, size=int(rng.integers(1, 21))))
                                   for _ in range(num_entities)])


def text_struct_model(kind, seed=0, toy=None):
    toy = toy or make_text_toy(num_entities=14, num_relations=3, num_triples=24, seed=seed)
    tokenizer = build_tokenizer(toy.graph, min_freq=2)
    cfg = ModelConfig(
        num_entities=toy.graph.num_entities,
        num_base_relations=toy.graph.num_base_relations,
        struct_dim=8, layers=1, hidden_dim=16, heads=2, max_len=16,
        vocab_size=len(tokenizer), ase_kind=kind,
    )
    return toy.graph, tokenizer, Model(cfg, seed=seed)


def tail_tokens(graph, tokenizer, model):
    return [tokenize_entity(tokenizer, graph, e, model.config.max_len)
            for e in range(graph.num_entities)]


def query_tokens(graph, tokenizer, model, pairs):
    return [tokenize_hr(tokenizer, graph, h, r, model.config.max_len) for h, r in pairs]


def record_chunks(monkeypatch, model) -> dict[str, list[list]]:
    """Record the keys of each ``encode_tails`` and ``encode_queries`` call
    on ``model``, by method name, in the order the calls start."""
    calls = {"encode_tails": [], "encode_queries": []}
    for name, seen in calls.items():
        def wrapped(tokens, keys, encode=getattr(model, name), seen=seen):
            seen.append(list(keys))
            return encode(tokens, keys)
        monkeypatch.setattr(model, name, wrapped)
    return calls


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
        monkeypatch.setattr(evaluation, "ENCODE_TOKENS",
                            4 * max(map(len, tail_tokens(g, tokenizer, model))))
        scorer = ModelScorer(model, g, tokenizer, [(0, 0)], mode="text")
        per_entity = np.concatenate([
            model.encode_tails([tokenize_entity(tokenizer, g, e, model.config.max_len)],
                               [e]).value
            for e in range(g.num_entities)
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
            before.encode_tails([tokenize_entity(tokenizer, g, e, before.config.max_len)],
                                [e]).value
            for e in range(g.num_entities)
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
        monkeypatch.setattr(evaluation, "ENCODE_TOKENS",
                            4 * max(map(len, query_tokens(g, tokenizer, model, pairs))))
        scorer = ModelScorer(model, g, tokenizer, [*pairs, pairs[3]], mode="text")
        assert list(scorer._rows) == pairs
        for row, (h, r) in enumerate(pairs):
            np.testing.assert_allclose(scorer._text_queries[row],
                                       encode_one_query(model, g, tokenizer, h, r),
                                       rtol=0, atol=1e-12)

    def test_one_long_description_bounds_every_chunk(self, kind, monkeypatch):
        # entity 3's description runs past max_len, so its token list is
        # the longest: each table goes in chunks of budget // longest keys,
        # in key order, every chunk full but the last
        toy = make_text_toy(num_entities=14, num_relations=3, num_triples=24, seed=0)
        descriptions = list(toy.graph.entity_descriptions)
        descriptions[3] = " ".join(descriptions)
        g, tokenizer, model = text_struct_model(kind, toy=with_descriptions(toy, descriptions))
        pairs = first_pairs(g, 14)
        budget = 40
        monkeypatch.setattr(evaluation, "ENCODE_TOKENS", budget)
        calls = record_chunks(monkeypatch, model)
        ModelScorer(model, g, tokenizer, pairs, mode="text")
        tails = tail_tokens(g, tokenizer, model)
        assert max(map(len, tails)) == len(tails[3]) == model.config.max_len > len(tails[0])
        for name, keys, tokens in [("encode_tails", list(range(g.num_entities)), tails),
                                   ("encode_queries", pairs,
                                    query_tokens(g, tokenizer, model, pairs))]:
            size = budget // max(map(len, tokens))
            chunks = sorted(calls[name], key=lambda chunk: keys.index(chunk[0]))
            assert [key for chunk in chunks for key in chunk] == keys
            assert all(len(chunk) == size for chunk in chunks[:-1])
            assert 0 < len(chunks[-1]) <= size < len(keys)

    def test_varied_lengths_match_one_key_chunks(self, kind, monkeypatch):
        # descriptions of 1 to 20 words: a row's bytes depend on its
        # chunk's padded length, but at every budget each row is within
        # 1e-12 of its one-key encode, and the ranks are the same
        g, tokenizer, model = text_struct_model(kind, toy=varied_length_toy(14, 3, 24))
        assert len(set(map(len, tail_tokens(g, tokenizer, model)))) > 3
        pairs = split_pairs(g, "test")
        budgets = (24, 48, evaluation.ENCODE_TOKENS)
        monkeypatch.setattr(evaluation, "ENCODE_TOKENS", 1)
        alone = ModelScorer(model, g, tokenizer, pairs, mode="combined", beta=0.3)
        _, want = evaluate(alone, g, "test")
        for budget in budgets:
            monkeypatch.setattr(evaluation, "ENCODE_TOKENS", budget)
            scorer = ModelScorer(model, g, tokenizer, pairs, mode="combined", beta=0.3)
            for got, one_key in [(scorer._tail_matrix, alone._tail_matrix),
                                 (scorer._text_queries, alone._text_queries)]:
                np.testing.assert_allclose(got, one_key, rtol=0, atol=1e-12)
            _, results = evaluate(scorer, g, "test")
            assert [r.rank for r in results] == [r.rank for r in want]

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_pair_not_built_for_is_a_key_error(self, kind, mode):
        g, tokenizer, model = text_struct_model(kind)
        scorer = ModelScorer(model, g, tokenizer, [(1, 0), (2, 1)], mode=mode)
        assert scorer.scores(2, 1).shape == (g.num_entities,)
        with pytest.raises(KeyError, match=r"\(2, 0\)"):
            scorer.scores(2, 0)

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_pair_outside_the_graph_rejected(self, kind, mode):
        g, tokenizer, model = text_struct_model(kind)
        last = (g.num_entities - 1, g.num_relations - 1)
        assert ModelScorer(model, g, tokenizer, [last], mode=mode).scores(*last).shape == (
            g.num_entities,)
        for bad in [(-1, 0), (g.num_entities, 0), (0, -1), (0, g.num_relations)]:
            with pytest.raises(ValueError, match=re.escape(f"pair {bad} is outside the graph's")):
                ModelScorer(model, g, tokenizer, [(1, 0), bad, (-2, 0)], mode=mode)

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


class TestModelScorerRefusals:
    """A library caller gets a ``ValueError`` naming what is wrong, before
    any text is encoded."""

    @staticmethod
    def _model(use_text=True, use_ase=True):
        toy = make_text_toy(num_entities=14, num_relations=3, num_triples=24, seed=0)
        tokenizer = build_tokenizer(toy.graph, min_freq=2)
        cfg = ModelConfig(toy.graph.num_entities, toy.graph.num_base_relations, struct_dim=8,
                          layers=1, hidden_dim=16, heads=2, max_len=16,
                          vocab_size=len(tokenizer) if use_text else 0,
                          use_text=use_text, use_ase=use_ase)
        return toy.graph, tokenizer, Model(cfg, seed=0)

    def _refused(self, monkeypatch, model, message, *args, **kwargs):
        calls = record_chunks(monkeypatch, model)
        with pytest.raises(ValueError, match=message):
            ModelScorer(model, *args, **kwargs)
        assert calls == {"encode_tails": [], "encode_queries": []}

    def test_an_unknown_mode(self, monkeypatch):
        g, tokenizer, model = self._model()
        self._refused(monkeypatch, model, r"score mode must be one of .*, got 'cosine'$",
                      g, tokenizer, [(0, 0)], mode="cosine")

    @pytest.mark.parametrize("use_text,mode,lacking", [
        (True, "struct", "structural"), (True, "combined", "structural"),
        (False, "text", "text"), (False, "combined", "text"),
    ])
    def test_a_mode_the_model_has_no_path_for(self, monkeypatch, use_text, mode, lacking):
        g, tokenizer, model = self._model(use_text=use_text, use_ase=not use_text)
        assert evaluation.missing_path(model.config, mode) == lacking
        self._refused(monkeypatch, model,
                      f"^'{mode}' scoring needs a model with the {lacking} path$",
                      g, tokenizer, [(0, 0)], mode=mode)

    @pytest.mark.parametrize("mode", ["text", "combined"])
    def test_text_scoring_without_a_tokenizer(self, monkeypatch, mode):
        g, _, model = self._model()
        self._refused(monkeypatch, model, "^text scoring needs a tokenizer$",
                      g, None, [(0, 0)], mode=mode)


# ---------------------------------------------------------------------------
# the threaded text-table build against the serial loop
# ---------------------------------------------------------------------------

def use_cpus(monkeypatch, count):
    """Make ``count`` CPUs usable as far as the scorer's build can tell."""
    monkeypatch.setattr(evaluation.os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def first_pairs(graph, count):
    return list(dict.fromkeys(map(tuple, split_pairs(graph, "train", "test").tolist())))[:count]


def fail_on(monkeypatch, model, failing, slow=(), seen=None):
    """Make ``model.encode_tails`` raise ``LookupError("entity <e>")`` for
    the lowest key ``e`` of a chunk that holds one of ``failing``, after
    sleeping 0.2 s on a chunk that holds one of ``slow``; ``seen``, when
    given, gets every chunk's keys."""
    encode = model.encode_tails

    def wrapped(tokens, keys):
        if seen is not None:
            seen.extend(keys)
        if set(keys) & set(slow):
            time.sleep(0.2)
        bad = sorted(set(keys) & set(failing))
        if bad:
            raise LookupError(f"entity {bad[0]}")
        return encode(tokens, keys)

    monkeypatch.setattr(model, "encode_tails", wrapped)


class TestThreadedEncode:
    # 14 entities of 6 tokens and 14 pairs of 9: budgets of 126, 63 and 36
    # tokens make one chunk per table, two, and two or three full ones and
    # a short last one; 8 CPUs are more than the chunks, and 1 CPU runs
    # the build on the calling thread alone
    @pytest.mark.parametrize("kind", list(AseKind))
    @pytest.mark.parametrize("mode", ["text", "combined"])
    @pytest.mark.parametrize("budget,cpus,tail_chunks,query_chunks", [
        (126, 2, [14], [14]), (63, 2, [10, 4], [7, 7]), (36, 2, [6, 6, 2], [4, 4, 4, 2]),
        (36, 8, [6, 6, 2], [4, 4, 4, 2]), (36, 1, [6, 6, 2], [4, 4, 4, 2])])
    def test_tables_equal_the_serial_loop_byte_for_byte(self, monkeypatch, kind, mode, budget,
                                                        cpus, tail_chunks, query_chunks):
        g, tokenizer, model = text_struct_model(kind)
        pairs = first_pairs(g, 14)
        assert g.num_entities == len(pairs) == 14
        assert {len(t) for t in tail_tokens(g, tokenizer, model)} == {6}
        assert {len(t) for t in query_tokens(g, tokenizer, model, pairs)} == {9}
        monkeypatch.setattr(evaluation, "ENCODE_TOKENS", budget)
        use_cpus(monkeypatch, cpus)
        with monkeypatch.context() as spy:
            calls = record_chunks(spy, model)
            threaded = ModelScorer(model, g, tokenizer, pairs, mode=mode, beta=0.3)
        assert sorted(map(len, calls["encode_tails"]), reverse=True) == tail_chunks
        assert sorted(map(len, calls["encode_queries"]), reverse=True) == query_chunks
        monkeypatch.setattr(evaluation, "_encode_in_chunks", serial_encode_in_chunks)
        serial = ModelScorer(model, g, tokenizer, pairs, mode=mode, beta=0.3)
        for got, want in [(threaded._tail_matrix, serial._tail_matrix),
                          (threaded._text_queries, serial._text_queries)]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cpus,threads", [(1, 1), (2, 2), (8, 4)])
    def test_threads_run_chunks_at_once_with_recording_off(self, monkeypatch, cpus, threads):
        # a 27-token budget cuts 14 six-token entities into chunks of 4 and
        # 12 nine-token pairs into chunks of 3: 4 chunks per table; each
        # encode waits until ``threads`` encodes run at once, so a missing
        # thread times out, and the live threads are counted while all of
        # them wait
        g, tokenizer, model = text_struct_model(AseKind.ROTATION)
        monkeypatch.setattr(evaluation, "ENCODE_TOKENS", 27)
        use_cpus(monkeypatch, cpus)
        before = threading.active_count()
        calls, alive = {"encode_tails": [], "encode_queries": []}, []

        def spy(name):
            encode = getattr(model, name)
            barrier = threading.Barrier(
                threads, action=lambda: alive.append(threading.active_count()), timeout=30)

            def wrapped(tokens, keys):
                barrier.wait()
                recording = ad._mode.recording
                out = encode(tokens, keys)
                calls[name].append((threading.get_ident(), recording, out._parents))
                return out
            return wrapped

        for name in calls:
            monkeypatch.setattr(model, name, spy(name))
        ModelScorer(model, g, tokenizer, first_pairs(g, 12), mode="text")
        for table in calls.values():
            assert len(table) == 4
            assert len({ident for ident, *_ in table}) == threads
            assert all(recording is False and parents == () for _, recording, parents in table)
        assert alive == [before + threads - 1] * (8 // threads)
        assert threading.active_count() == before

    def test_the_lowest_failing_chunk_raises(self, monkeypatch):
        # chunks of 4 on 4 threads: entity 5 fails in chunk 1 and entity 9 in
        # chunk 2; chunk 1 starts slow, so chunk 2 fails first, and chunk 1's
        # error, the serial loop's, is the one raised
        g, tokenizer, model = text_struct_model(AseKind.ROTATION)
        monkeypatch.setattr(evaluation, "ENCODE_TOKENS", 4 * 6)
        use_cpus(monkeypatch, 4)
        fail_on(monkeypatch, model, failing=(5, 9), slow=(4,))
        before = threading.active_count()
        with pytest.raises(LookupError, match="entity 5"):
            ModelScorer(model, g, tokenizer, [(0, 0)], mode="text")
        assert threading.active_count() == before
        monkeypatch.setattr(evaluation, "_encode_in_chunks", serial_encode_in_chunks)
        with pytest.raises(LookupError, match="entity 5"):
            ModelScorer(model, g, tokenizer, [(0, 0)], mode="text")

    def test_a_chunk_taken_before_a_failure_still_runs(self, monkeypatch):
        # a budget below one token list makes chunks of one entity; on two
        # threads, the thread that takes chunk 0 stalls before starting it
        # while chunk 1 fails; chunk 0 still runs, so its error, the serial
        # loop's, is the one raised
        g, tokenizer, model = text_struct_model(AseKind.ROTATION)
        monkeypatch.setattr(evaluation, "ENCODE_TOKENS", 1)
        use_cpus(monkeypatch, 2)

        class StallAfterZero:
            def __init__(self):
                self.inner = itertools.count()

            def __iter__(self):
                return self

            def __next__(self):
                i = next(self.inner)
                if i == 0:
                    time.sleep(0.2)
                return i

        monkeypatch.setattr(evaluation, "itertools", SimpleNamespace(count=StallAfterZero))
        fail_on(monkeypatch, model, failing=range(g.num_entities))
        with pytest.raises(LookupError, match="entity 0"):
            ModelScorer(model, g, tokenizer, [(0, 0)], mode="text")

    def test_stress_more_threads_than_cores(self, monkeypatch):
        # 8 threads take one-entity chunks, switching as often as the
        # interpreter allows: no chunk is encoded twice, a build with no
        # failure gives the serial loop's bytes, and one with failures
        # runs every chunk below the lowest and raises that chunk's error
        g, tokenizer, model = text_struct_model(AseKind.ROTATION)
        monkeypatch.setattr(evaluation, "ENCODE_TOKENS", 1)
        use_cpus(monkeypatch, 8)
        with monkeypatch.context() as serial:
            serial.setattr(evaluation, "_encode_in_chunks", serial_encode_in_chunks)
            want = ModelScorer(model, g, tokenizer, [(0, 0)], mode="text")._tail_matrix
        rng = np.random.default_rng(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                failing = set(rng.choice(14, size=int(rng.integers(0, 3)), replace=False).tolist())
                seen = []
                with monkeypatch.context() as flaky:
                    fail_on(flaky, model, failing, seen=seen)
                    if failing:
                        with pytest.raises(LookupError, match=f"entity {min(failing)}$"):
                            ModelScorer(model, g, tokenizer, [(0, 0)], mode="text")
                        assert set(range(min(failing) + 1)) <= set(seen)
                    else:
                        got = ModelScorer(model, g, tokenizer, [(0, 0)], mode="text")._tail_matrix
                        assert got.tobytes() == want.tobytes()
                        assert sorted(seen) == list(range(14))
                assert len(seen) == len(set(seen))
        finally:
            sys.setswitchinterval(interval)

    def test_no_chunk_starts_after_a_failure(self, monkeypatch):
        # chunks of one entity on two threads: entity 0 fails at once while
        # entity 1 is slow, so no thread takes entity 2 or a later one
        g, tokenizer, model = text_struct_model(AseKind.ROTATION)
        monkeypatch.setattr(evaluation, "ENCODE_TOKENS", 1)
        use_cpus(monkeypatch, 2)
        seen = []
        fail_on(monkeypatch, model, failing=(0,), slow=(1,), seen=seen)
        before = threading.active_count()
        with pytest.raises(LookupError, match="entity 0"):
            ModelScorer(model, g, tokenizer, [(0, 0)], mode="text")
        assert set(seen) <= {0, 1}
        assert threading.active_count() == before

    def test_every_key_is_tokenized_on_the_calling_thread_first(self, monkeypatch):
        # the chunk sizes need every token list, so even with one-entity
        # chunks on two threads a tokenizer error is raised before any
        # chunk is encoded
        g, tokenizer, model = text_struct_model(AseKind.ROTATION)
        monkeypatch.setattr(evaluation, "ENCODE_TOKENS", 1)
        use_cpus(monkeypatch, 2)
        tokenize = evaluation.tokenize_entity
        threads, calls = set(), record_chunks(monkeypatch, model)

        def tokenize_entity(tok, graph, entity, max_len):
            threads.add(threading.get_ident())
            if entity == 9:
                raise LookupError("entity 9")
            return tokenize(tok, graph, entity, max_len)

        monkeypatch.setattr(evaluation, "tokenize_entity", tokenize_entity)
        with pytest.raises(LookupError, match="entity 9"):
            ModelScorer(model, g, tokenizer, [(0, 0)], mode="text")
        assert threads == {threading.get_ident()}
        assert calls == {"encode_tails": [], "encode_queries": []}


# ---------------------------------------------------------------------------
# blocked scoring: the certificate and the per-query fallback
# ---------------------------------------------------------------------------

GRID = 2.0 ** -40   # test scores sit on this grid, so every perturbation is exact


def grid_scores(rng, n, dim):
    """Scores of a random unit query against ``n`` random unit rows, rounded
    to ``GRID``."""
    rows = rng.normal(size=(n + 1, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return np.round(rows[1:] @ rows[0] / GRID) * GRID


def plant_near_misses(rng, scores, gold, top, delta):
    """Move a few candidates to within or just beyond ``2 * delta`` of the
    gold score, and a few top-list neighbours to within or just beyond
    ``2 * delta`` of each other."""
    steps = np.array([-GRID, 0.0, GRID])
    for i in rng.choice(len(scores), size=3, replace=False).tolist():
        if i != gold:
            scores[i] = scores[gold] + rng.choice([-1, 1]) * 2 * delta + rng.choice(steps)
    for j in rng.choice(len(top) - 1, size=2, replace=False).tolist():
        scores[top[j + 1]] = scores[top[j]] - 2 * delta + rng.choice(steps)


def perturbations(rng, scores, gold, delta):
    """Score vectors within ``delta`` of ``scores``: random signs of exactly
    delta, each extreme pushed against the gold score, and random grid
    steps."""
    n = len(scores)
    up = np.full(n, delta)
    up[gold] = -delta
    steps = rng.integers(-int(delta / GRID), int(delta / GRID) + 1, size=(4, n)) * GRID
    for shift in (rng.choice([-delta, delta], size=n), up, -up, *steps):
        yield scores + shift


def certified(scores, gold, filtered, delta, top=None, shown=0):
    """Whether the certificate keeps this ranking: its rank part, and its
    top-list part when ``top`` is given."""
    if evaluation._rank(scores, gold, filtered, delta) is None:
        return False
    return top is None or evaluation._certified_top(scores, top, shown, delta)


def shown_strings(scores, ids):
    return [f"{scores[i]:.6f}" for i in ids.tolist()]


class TestCertificate:
    K = 10

    def check(self, scores, gold, filtered, delta, with_top, rng):
        """Returns whether the certificate held; if it did, every perturbed
        vector must rank and show exactly what ``scores`` does."""
        top = top_candidates(scores, filtered, self.K + 1) if with_top else None
        if not certified(scores, gold, filtered, delta, top, self.K):
            return False
        rank = filtered_rank(scores, gold, filtered)
        shown = top_candidates(scores, filtered, self.K)
        for moved in perturbations(rng, scores, gold, delta):
            assert filtered_rank(moved, gold, filtered) == rank
            if with_top:
                moved_top = top_candidates(moved, filtered, self.K)
                assert moved_top.tolist() == shown.tolist()
                assert shown_strings(moved, moved_top) == shown_strings(scores, shown)
        return True

    @pytest.mark.parametrize("delta_exp,with_top", [(-28, True), (-24, True),
                                                     (-14, False), (-10, False)])
    def test_accepted_scores_survive_every_perturbation(self, delta_exp, with_top):
        rng = np.random.default_rng(30 - delta_exp)
        delta = 2.0 ** delta_exp
        verdicts = []
        for _ in range(300):
            n = int(rng.integers(2, 200))
            scores = grid_scores(rng, n, int(rng.integers(2, 6)))
            gold = int(rng.integers(0, n))
            others = np.delete(np.arange(n), gold)
            filtered = rng.choice(others, size=int(rng.integers(0, n // 2 + 1)),
                                  replace=False)
            top = top_candidates(scores, filtered, self.K + 1)
            if len(top) > 2 and rng.random() < 0.5:
                plant_near_misses(rng, scores, gold, top, delta)
            verdicts.append(self.check(scores, gold, filtered, delta, with_top, rng))
        assert 0 < sum(verdicts) < len(verdicts)    # neither side is vacuous

    def test_margins_are_exactly_two_delta(self):
        delta = 2.0 ** -20
        scores = np.array([0.5, 0.0, 0.25, -0.5])
        for sign in (1, -1):
            for offset, accepted in ((2 * delta, False), (2 * delta + GRID, True)):
                scores[1] = 0.25 + sign * offset      # a kept candidate near gold 2
                assert certified(scores, 2, [], delta) == accepted
        # at exactly 2 * delta below gold, a perturbation makes the tie that
        # counts against gold
        scores[1] = 0.25 - 2 * delta
        moved = scores + np.array([0, delta, -delta, 0])
        assert filtered_rank(moved, 2, []) == filtered_rank(scores, 2, []) + 1

    def test_gold_tied_with_a_kept_candidate_falls_back(self):
        scores = np.array([0.9, 0.4, 0.1, 0.4, 0.2])
        assert not certified(scores, 1, [], 1e-15)
        assert certified(scores, 1, [3], 1e-15)    # the tie is filtered
        assert evaluation._rank(scores, 1, [], 0.0) == 3   # delta 0: the exact rank

    def test_tie_across_the_k_boundary_falls_back(self):
        k = self.K
        scores = (32 - np.arange(20)) / 32              # no ties, all printable
        gold = 19
        top = top_candidates(scores, [], k + 1)
        assert certified(scores, gold, [], 1e-15, top, k)
        scores[k] = scores[k - 1]                       # places k and k + 1 tie
        top = top_candidates(scores, [], k + 1)
        assert not certified(scores, gold, [], 1e-15, top, k)
        scores = (32 - np.arange(20)) / 32
        scores[k + 1] = scores[k]                       # a tie below the list
        top = top_candidates(scores, [], k + 1)
        assert certified(scores, gold, [], 1e-15, top, k)

    def test_non_finite_row_falls_back(self):
        for bad in (np.nan, np.inf, -np.inf):
            scores = np.array([0.9, 0.4, 0.1, 0.2])
            scores[3] = bad
            assert not certified(scores, 1, [], 1e-15)
            assert not certified(scores, 1, [3], 1e-15)   # filtered too

    def test_score_at_a_6_decimal_boundary_falls_back(self):
        k = 3
        scores = np.array([0.9, 0.6234565, 0.5, 0.25, 0.1])
        top = top_candidates(scores, [], k + 1)
        assert top[:k].tolist() == [0, 1, 2]
        assert not certified(scores, 4, [], 1e-15, top, k)
        scores[1] = 0.6234561                   # the same place, off the boundary
        assert certified(scores, 4, [], 1e-15, top, k)
        scores[3] = 0.1234565                   # a boundary below the shown list
        assert certified(scores, 4, [], 1e-15, top, k)


class ProposingScorer(TableScorer):
    """Proposes fixed rows, each within ``delta`` of its ``table`` row, as a
    matrix product may, so that ``evaluate`` has to certify them."""

    def __init__(self, table, proposed, delta):
        super().__init__(table)
        self.proposed = proposed
        self.delta = delta

    def block_scores(self, pairs):
        return np.array([self.proposed[pair] for pair in pairs]), self.delta


def assert_same_as_reference(got, want, tol):
    """Ranks, reports and top ids equal; top scores within ``tol``."""
    (got_report, got_results), (want_report, want_results) = got, want
    assert dataclasses.replace(got_report, fallbacks=0) == want_report
    for g, w in zip(got_results, want_results):
        assert (g.head, g.relation, g.gold, g.rank, g.direction) == \
            (w.head, w.relation, w.gold, w.rank, w.direction)
        assert [e for e, _ in g.top] == [e for e, _ in w.top]
        np.testing.assert_allclose([s for _, s in g.top], [s for _, s in w.top],
                                   rtol=0, atol=tol)
    assert len(got_results) == len(want_results)


def printed(results):
    """Each result as ``eval --detail`` prints it, after the query number."""
    return [(r.head, r.relation, r.gold, r.rank,
             ",".join(f"{e}:{s:.6f}" for e, s in r.top)) for r in results]


def must_fall_back(scores, gold, filtered, delta, k):
    """The certificate as loops: a non-finite score, a kept candidate within
    2 delta of the gold, or, for a top-k list, neighbours among the first
    k + 1 within 2 delta or a shown score whose 6 decimals change within
    delta."""
    if not np.isfinite(scores).all():
        return True
    if any(abs(x - scores[gold]) <= 2 * delta
           for i, x in enumerate(scores.tolist()) if i != gold and i not in filtered):
        return True
    if k is None:
        return False
    top = [scores[i] for i in reference_top(scores, filtered, k + 1)]
    return (any(a - b <= 2 * delta for a, b in zip(top, top[1:]))
            or any(f"{x - delta:.6f}" != f"{x + delta:.6f}" for x in top[:k]))


PLANTED_TIE_ALPHAS = (0.0, 0.2)


def kept_out(graph, h, r, t):
    """The filter set of query (h, r, t) as ``evaluate`` uses it."""
    return set(graph.tails_by_pair(h, r, DEFAULT_FILTER_SPLITS).tolist()) - {t}


def planted_ties():
    """(graph, table, {alpha: proposed}, delta, k): 37 test queries on 30
    entities, every third row with its gold tied to a candidate, scores on
    a grid far coarser than 2 delta, and for each alpha of
    ``PLANTED_TIE_ALPHAS`` rows within delta of the table to propose."""
    rng = np.random.default_rng(31)
    n, delta, k = 30, 2.0 ** -30, 10
    test = [Triple(int(rng.integers(0, n)), int(rng.integers(0, 2)),
                   int(rng.integers(0, n))) for _ in range(37)]
    g = graph_with_splits(n, 2, test[:10], test)
    queries = g.triples("test").tolist()
    table = {(h, r): np.round(rng.uniform(-1, 1, size=n) / GRID) * GRID
             for h, r, _ in queries}
    for h, r, t in queries[::3]:
        table[(h, r)][(t + 1) % n] = table[(h, r)][t]   # gold ties a candidate
    proposals = {alpha: {pair: row + rng.choice([-delta, delta], size=n)
                         for pair, row in table.items()}
                 for alpha in PLANTED_TIE_ALPHAS}
    return g, table, proposals, delta, k


def planted_near_misses(alpha):
    """(graph, table, proposed, adjusted, delta, k): proposed re-ranked rows
    on a 2**-40 grid, with planted scores within 2 delta of the gold or of
    a top-list neighbour, at a 6-decimal rounding boundary, or NaN; alpha
    0.25 keeps every sum exact."""
    rng = np.random.default_rng(32)
    n, delta, k = 40, 2.0 ** -36, 5
    test = [Triple(int(rng.integers(0, n)), int(rng.integers(0, 3)),
                   int(rng.integers(0, n))) for _ in range(80)]
    g = graph_with_splits(n, 3, test[:30], test)
    queries = g.triples("test").tolist()
    penalties = {r: np.where(np.isin(np.arange(n), g.tails_by_relation(r, ("train",))),
                             0.0, alpha) for r in range(g.num_relations)}
    adjusted = {(h, r): np.round(rng.uniform(-1, 1, size=n) * 2.0 ** 40) * 2.0 ** -40
                for h, r, _ in queries}
    for h, r, t in queries:
        row = adjusted[(h, r)]
        top = reference_top(row, kept_out(g, h, r, t), k + 1)
        kept = [i for i in range(n) if i != t and i not in kept_out(g, h, r, t)]
        plant = int(rng.integers(0, 8))
        if plant == 1 and kept:
            row[rng.choice(kept)] = row[t] + rng.choice([-1.5, -1, 0, 1, 1.5]) * delta
        elif plant == 2:
            j = int(rng.integers(0, k))
            row[top[j + 1]] = row[top[j]] - rng.choice([0, 1, 1.5]) * delta
        elif plant == 3:
            i = top[int(rng.integers(0, k))]
            boundary = (np.floor(row[i] * 1e6) + 0.5) / 1e6
            row[i] = np.round(boundary * 2.0 ** 40) * 2.0 ** -40
        elif plant == 4:
            row[int(rng.integers(0, n))] = np.nan
    proposed = {(h, r): row + penalties[r] for (h, r), row in adjusted.items()}
    table = {pair: np.nan_to_num(row) + rng.choice([-delta, 0.0, delta], size=n)
             for pair, row in proposed.items()}
    return g, table, proposed, adjusted, delta, k


class TestBlockedEvaluate:
    def test_planted_ties_fall_back_to_the_canonical_scores(self):
        g, table, proposals, delta, k = planted_ties()
        n = g.num_entities
        queries = g.triples("test").tolist()

        def tied(h, r, t, alpha):
            """Exact ties at gold or in the top k + 1: grid gaps are far
            wider than 2 delta, so these are the queries that must fall back."""
            scores = reference_rerank(table[(h, r)], g.tails_by_relation(r, ("train",)),
                                      alpha)
            filtered = kept_out(g, h, r, t)
            kept = [i for i in range(n) if i not in filtered and i != t]
            top = reference_top(scores, filtered, k + 1)
            return (any(scores[i] == scores[t] for i in kept)
                    or len({scores[i] for i in top}) < len(top))

        for alpha, proposed in proposals.items():
            kwargs = dict(rerank_config=RerankConfig(alpha=alpha), top_k=k)
            want = reference_evaluate(TableScorer(table), g, "test", **kwargs)
            got = evaluate(ProposingScorer(table, proposed, delta), g, "test", **kwargs)
            assert_same_as_reference(got, want, tol=2 * delta)
            expected = sum(tied(h, r, t, alpha) for h, r, t in queries)
            assert 0 < expected < len(queries)
            assert got[0].fallbacks == expected
            plain = evaluate(TableScorer(table), g, "test", **kwargs)
            assert plain == want and plain[0].fallbacks == 0

    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    @pytest.mark.parametrize("details", [False, True])
    def test_planted_near_misses_match_the_exact_path(self, alpha, details):
        g, table, proposed, adjusted, delta, k = planted_near_misses(alpha)
        queries = g.triples("test").tolist()
        top_k = k if details else None
        kwargs = dict(rerank_config=RerankConfig(alpha=alpha), top_k=top_k)
        got = evaluate(ProposingScorer(table, proposed, delta), g, "test", **kwargs)
        want = reference_evaluate(TableScorer(table), g, "test", **kwargs)
        assert dataclasses.replace(got[0], fallbacks=0) == want[0]
        assert printed(got[1]) == printed(want[1])
        expected = sum(must_fall_back(adjusted[(h, r)], t, kept_out(g, h, r, t), delta, top_k)
                       for h, r, t in queries)
        assert 0 < expected < len(queries)
        assert got[0].fallbacks == expected

    def test_the_alpha_subtraction_widens_the_bound(self):
        # x - alpha rounds by up to u |x - alpha| on either side, so a row
        # with a large entry widens the band around the gold: candidate 1
        # sits 4 delta below gold 0 once penalised, which delta alone
        # accepts, and -2**30 makes the rounding bound ~2**-22
        delta, alpha = 2.0 ** -40, 0.25
        row = np.array([0.5, 0.5 - 4 * delta + alpha, -2.0 ** 30])
        g = graph_with_splits(3, 1, [Triple(2, 0, 0)], [Triple(1, 0, 0)])
        assert g.tails_by_relation(0, ("train",)).tolist() == [0]  # gold is not penalised
        assert certified(rerank(row, [0], alpha), 0, [], delta)
        table = {pair: row for pair in map(tuple, g.triples("test")[:, :2].tolist())}
        for a, fallbacks in ((alpha, 1), (0.0, 0)):
            kwargs = dict(rerank_config=RerankConfig(alpha=a), top_k=10)
            got = evaluate(ProposingScorer(table, table, delta), g, "test", **kwargs)
            assert got[0].fallbacks == fallbacks
            want = reference_evaluate(TableScorer(table), g, "test", **kwargs)
            assert_same_as_reference(got, want, 0.0)

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_block_rows_are_within_delta_of_the_canonical_scores(self, mode):
        for kind in AseKind:
            g, tokenizer, model = text_struct_model(kind)
            pairs = split_pairs(g, "train", "test")
            scorer = ModelScorer(model, g, tokenizer, pairs, mode=mode, beta=0.3)
            rows, delta = scorer.block_scores(pairs.tolist())
            assert 0 < delta <= 1e-12
            canonical = np.array([scorer.scores(h, r) for h, r in pairs.tolist()])
            assert np.abs(rows - canonical).max() <= delta

    @pytest.mark.parametrize("kind", list(AseKind))
    @pytest.mark.parametrize("mode", SCORE_MODES)
    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    def test_model_scorer_matches_the_per_query_loop(self, kind, mode, alpha):
        g, tokenizer, model = text_struct_model(kind)
        scorer = ModelScorer(model, g, tokenizer, split_pairs(g, "train", "test"),
                             mode=mode, beta=0.3)
        for split, filter_splits in (("test", DEFAULT_FILTER_SPLITS), ("train", ("train",))):
            kwargs = dict(filter_splits=filter_splits, top_k=10,
                          rerank_config=RerankConfig(alpha=alpha))
            want = reference_evaluate(scorer, g, split, **kwargs)
            assert_same_as_reference(evaluate(scorer, g, split, **kwargs), want, 1e-12)

    @pytest.mark.parametrize("block", [1, 8, evaluation.SCORE_BLOCK, 64])
    def test_block_size_does_not_change_the_result(self, block, monkeypatch):
        g, tokenizer, model = text_struct_model(AseKind.ROTATION)
        queries = len(g.triples("train"))
        assert queries > evaluation.SCORE_BLOCK and queries % evaluation.SCORE_BLOCK
        scorer = ModelScorer(model, g, tokenizer, split_pairs(g, "train"),
                             mode="combined", beta=0.3)
        kwargs = dict(filter_splits=("train",), top_k=10,
                      rerank_config=RerankConfig(alpha=0.2))
        want = reference_evaluate(scorer, g, "train", **kwargs)
        monkeypatch.setattr(evaluation, "SCORE_BLOCK", block)
        assert_same_as_reference(evaluate(scorer, g, "train", **kwargs), want, 1e-12)


# ---------------------------------------------------------------------------
# threaded ranking against the serial block loop
# ---------------------------------------------------------------------------

def assert_identical(got, want):
    """Reports equal, fallbacks included, and every result equal, its top
    scores byte for byte."""
    (got_report, got_results), (want_report, want_results) = got, want
    assert got_report == want_report
    assert len(got_results) == len(want_results)
    for g, w in zip(got_results, want_results):
        assert (g.head, g.relation, g.gold, g.rank, g.direction) == \
            (w.head, w.relation, w.gold, w.rank, w.direction)
        assert [e for e, _ in g.top] == [e for e, _ in w.top]
        assert (np.array([s for _, s in g.top], dtype=np.float64).tobytes()
                == np.array([s for _, s in w.top], dtype=np.float64).tobytes())


def check_against_serial(scorer, graph, split, **kwargs):
    """``evaluate`` and ``serial_evaluate`` give the same; the report."""
    got = evaluate(scorer, graph, split, **kwargs)
    assert_identical(got, serial_evaluate(scorer, graph, split, **kwargs))
    return got[0]


class FailingBlocks(TableScorer):
    """Proposes the table's rows, after ``waits[b]`` seconds for block b,
    and raises for the blocks in ``failing``; records each block it starts.
    Each test query has a pair of its own, which names its block."""

    def __init__(self, graph, table, failing, waits):
        super().__init__(table)
        queries = graph.triples("test").tolist()
        self.block_of = {(h, r): i // evaluation.SCORE_BLOCK
                         for i, (h, r, _) in enumerate(queries)}
        assert len(self.block_of) == len(queries)
        self.failing, self.waits = failing, waits
        self.started = []

    def block_scores(self, pairs):
        block = self.block_of[pairs[0]]
        self.started.append(block)
        time.sleep(self.waits.get(block, 0.0))
        if block in self.failing:
            raise LookupError(f"block {block}")
        return np.array([self.table[pair] for pair in pairs]), 0.0


def distinct_head_graph(queries, n=12):
    """A graph whose ``queries`` test triples have heads 0, 1, ...; one
    train triple; and a random table for every test pair."""
    rng = np.random.default_rng(41)
    test = [Triple(i, 0, int(rng.integers(0, n))) for i in range(queries)]
    g = graph_with_splits(max(n, queries), 1, [Triple(0, 0, 1)], test)
    table = {(h, r): quantized(rng, g.num_entities) for h, r, _ in g.triples("test").tolist()}
    return g, table


class TestThreadedEvaluate:
    # blocks of 4 make 10 blocks of the 40 train queries and 2 of the 8
    # test queries; 8 CPUs are more than either, and 1 CPU ranks every
    # block on the calling thread
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("mode", SCORE_MODES)
    @pytest.mark.parametrize("kind", list(AseKind))
    def test_model_scorer_matches_the_serial_loop(self, monkeypatch, cpus, mode, kind):
        g, tokenizer, model = text_struct_model(kind)
        scorer = ModelScorer(model, g, tokenizer, split_pairs(g, "train", "test"),
                             mode=mode, beta=0.3)
        monkeypatch.setattr(evaluation, "SCORE_BLOCK", 4)
        use_cpus(monkeypatch, cpus)
        assert len(g.triples("train")) >= 3 * evaluation.SCORE_BLOCK
        for alpha in (0.0, 0.1):
            for top_k in (None, 10):
                for split, filter_splits in (("train", ("train",)),
                                             ("test", DEFAULT_FILTER_SPLITS)):
                    check_against_serial(scorer, g, split, filter_splits=filter_splits,
                                         rerank_config=RerankConfig(alpha=alpha), top_k=top_k)

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_exact_proposals_match_the_serial_loop(self, monkeypatch, cpus):
        rng = np.random.default_rng(42)
        n = 25
        train = [Triple(int(rng.integers(0, n)), int(rng.integers(0, 3)),
                        int(rng.integers(0, n))) for _ in range(40)]
        test = [Triple(int(rng.integers(0, n)), int(rng.integers(0, 3)),
                       int(rng.integers(0, n))) for _ in range(30)]
        g = graph_with_splits(n, 3, train, test)
        table = {(h, r): quantized(rng, n) for h, r, _ in g.triples("test").tolist()}
        monkeypatch.setattr(evaluation, "SCORE_BLOCK", 4)
        use_cpus(monkeypatch, cpus)
        for alpha in (0.0, 0.1):
            for top_k in (None, 3):
                check_against_serial(TableScorer(table), g, "test",
                                     rerank_config=RerankConfig(alpha=alpha), top_k=top_k)

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_planted_fallbacks_match_the_serial_loop(self, monkeypatch, cpus):
        monkeypatch.setattr(evaluation, "SCORE_BLOCK", 4)
        use_cpus(monkeypatch, cpus)
        g, table, proposals, delta, k = planted_ties()
        for alpha, proposed in proposals.items():
            report = check_against_serial(
                ProposingScorer(table, proposed, delta), g, "test",
                rerank_config=RerankConfig(alpha=alpha), top_k=k)
            assert report.fallbacks > 0
        for alpha in (0.0, 0.25):
            g, table, proposed, _, delta, k = planted_near_misses(alpha)
            for top_k in (None, k):
                report = check_against_serial(
                    ProposingScorer(table, proposed, delta), g, "test",
                    rerank_config=RerankConfig(alpha=alpha), top_k=top_k)
                assert report.fallbacks > 0

    @pytest.mark.parametrize("cpus,threads", [(1, 1), (2, 2), (8, 4)])
    def test_blocks_are_ranked_at_once(self, monkeypatch, cpus, threads):
        # 16 queries in blocks of 4 make 4 blocks; each proposal waits until
        # ``threads`` of them run at once, so a missing thread times out
        g, table = distinct_head_graph(16)
        monkeypatch.setattr(evaluation, "SCORE_BLOCK", 4)
        use_cpus(monkeypatch, cpus)
        barrier = threading.Barrier(threads, timeout=30)
        idents = []

        class Waiting(ProposingScorer):
            def block_scores(self, pairs):
                barrier.wait()
                idents.append(threading.get_ident())
                return super().block_scores(pairs)

        before = threading.active_count()
        got = evaluate(Waiting(table, table, 0.0), g, "test")
        assert_identical(got, serial_evaluate(ProposingScorer(table, table, 0.0), g, "test"))
        assert len(idents) == 4 and len(set(idents)) == threads
        assert threading.active_count() == before

    def test_graph_lookups_stay_on_the_calling_thread(self, monkeypatch):
        # the graph builds its indexes lazily, so helpers never look up
        g, table = distinct_head_graph(16)
        monkeypatch.setattr(evaluation, "SCORE_BLOCK", 4)
        use_cpus(monkeypatch, 2)
        callers = []
        for name in ("tails_by_pair", "tails_by_relation"):
            def spy(*args, lookup=getattr(g, name)):
                callers.append(threading.get_ident())
                return lookup(*args)
            monkeypatch.setattr(g, name, spy)
        check_against_serial(ProposingScorer(table, table, 0.0), g, "test",
                             rerank_config=RerankConfig(alpha=0.1))
        assert len(callers) == 2 * 2 * 16      # two per query, in each of two runs
        assert set(callers) == {threading.get_ident()}

    def test_the_lowest_failing_block_raises(self, monkeypatch):
        # blocks of 2 on 3 threads: blocks 1 and 2 fail, block 2 first, as
        # block 1 starts slow; block 1's error, the serial loop's, is raised,
        # and block 3 never starts, as block 0 is slower than block 2's failure
        g, table = distinct_head_graph(8)
        monkeypatch.setattr(evaluation, "SCORE_BLOCK", 2)
        use_cpus(monkeypatch, 3)
        scorer = FailingBlocks(g, table, failing={1, 2}, waits={0: 0.1, 1: 0.2})
        before = threading.active_count()
        with pytest.raises(LookupError, match="block 1"):
            evaluate(scorer, g, "test")
        assert sorted(scorer.started) == [0, 1, 2]
        assert threading.active_count() == before
        with pytest.raises(LookupError, match="block 1"):
            serial_evaluate(FailingBlocks(g, table, failing={1, 2}, waits={}), g, "test")

    def test_no_block_starts_after_a_failure(self, monkeypatch):
        # blocks of one query on two threads: block 0 fails at once while
        # block 1 is slow, so no thread takes block 2 or a later one
        g, table = distinct_head_graph(6)
        monkeypatch.setattr(evaluation, "SCORE_BLOCK", 1)
        use_cpus(monkeypatch, 2)
        scorer = FailingBlocks(g, table, failing={0}, waits={1: 0.2})
        before = threading.active_count()
        with pytest.raises(LookupError, match="block 0"):
            evaluate(scorer, g, "test")
        assert set(scorer.started) <= {0, 1}
        assert threading.active_count() == before

    def test_stress_more_threads_than_cores(self, monkeypatch):
        # 8 threads rank one-query blocks, switching as often as the
        # interpreter allows: every run gives the serial loop's results, and
        # one with failing blocks raises the lowest one's error
        g, table, proposals, delta, k = planted_ties()
        scorer = ProposingScorer(table, proposals[0.2], delta)
        kwargs = dict(rerank_config=RerankConfig(alpha=0.2), top_k=k)
        want = serial_evaluate(scorer, g, "test", **kwargs)
        monkeypatch.setattr(evaluation, "SCORE_BLOCK", 1)
        use_cpus(monkeypatch, 8)
        rng = np.random.default_rng(43)
        blocks = 24
        g_failing, table_failing = distinct_head_graph(blocks)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                assert_identical(evaluate(scorer, g, "test", **kwargs), want)
                failing = set(rng.choice(blocks, size=2, replace=False).tolist())
                failer = FailingBlocks(g_failing, table_failing, failing, waits={})
                with pytest.raises(LookupError, match=f"block {min(failing)}$"):
                    evaluate(failer, g_failing, "test")
                assert set(range(min(failing) + 1)) <= set(failer.started)
                assert len(failer.started) == len(set(failer.started))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("run", [evaluate, serial_evaluate])
    def test_input_errors_stay_the_serial_loops(self, monkeypatch, run):
        g, table = distinct_head_graph(8)
        use_cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match="cannot report on zero queries"):
            run(TableScorer(table), g, "valid")
        with pytest.raises(KeyError, match="bogus"):
            run(TableScorer(table), g, "test", filter_splits=("bogus",))
