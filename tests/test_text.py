import contextlib

import numpy as np
import pytest

from structkgc import autodiff as ad
from structkgc.graph import EntityRecord, KnowledgeGraph, RelationRecord
from structkgc.model import ModelConfig
from structkgc.structural import PrefixProjector
from structkgc.text import (
    CLS,
    PAD,
    SEP,
    UNK,
    TextEncoder,
    Tokenizer,
    split_text,
    tokenize_entity,
    tokenize_hr,
)

from autodiff_reference import concat_rows, sum_all
from gradcheck import assert_gradients_match
import text_reference
from text_reference import reference_encode


def build_tokenizer(extra_texts=(), min_freq=1):
    texts = [
        "dog a mammal", "hypernym", "cat a small mammal", "related to",
    ] + list(extra_texts)
    return Tokenizer.build(texts, min_freq=min_freq)


def toks(tokenizer, ids):
    return [tokenizer.id_to_token[i] for i in ids]


def text_graph(*entities):
    """A graph of (name, description) entities and one relation, hypernym,
    with no description; it holds no triples."""
    records = [EntityRecord(name, desc, i) for i, (name, desc) in enumerate(entities)]
    return KnowledgeGraph(records, [RelationRecord("hypernym", "", 0)], {})


class TestTokenizer:
    def test_split(self):
        assert split_text("Hello, World-2!") == ["hello", "world", "2"]

    def test_hr_template(self):
        tk = build_tokenizer()
        seq = tokenize_hr(tk, text_graph(("dog", "a mammal")), 0, 0, max_len=32)
        assert toks(tk, seq) == [CLS, "dog", "a", "mammal", SEP, "hypernym", SEP]

    def test_empty_descriptions(self):
        tk = build_tokenizer()
        seq = tokenize_hr(tk, text_graph(("dog", "")), 0, 0, max_len=32)
        assert toks(tk, seq) == [CLS, "dog", SEP, "hypernym", SEP]

    def test_truncation_preserves_relation_segment(self):
        tk = build_tokenizer(extra_texts=["w" + " w".join(str(i) for i in range(50))])
        long_description = " ".join(f"w{i}" for i in range(50))
        max_len = 16
        seq = tokenize_hr(tk, text_graph(("dog", long_description)), 0, 0,
                          max_len=max_len)
        assert len(seq) == max_len
        assert seq[-1] == tk.sep_id
        assert tk.token_to_id["hypernym"] in seq

    def test_unknown_maps_to_unk(self):
        tk = build_tokenizer()
        assert tk.encode_words("zebra") == [tk.unk_id]

    def test_min_freq_filters(self):
        tk = Tokenizer.build(["aa bb", "aa"], min_freq=2)
        assert "aa" in tk.token_to_id
        assert "bb" not in tk.token_to_id

    def test_deterministic(self):
        texts = ["b a c", "c a"]
        assert Tokenizer.build(texts).token_to_id == Tokenizer.build(texts).token_to_id

    @pytest.mark.parametrize("seed", range(5))
    def test_build_counts_every_occurrence(self, seed):
        """Counting each distinct text once, weighted by how often it
        occurs, gives the vocabulary of a count per occurrence."""
        rng = np.random.default_rng(seed)
        words = ["Dog", "cat", "a", "mammal", "small", "x-1", "part of", "2"]
        pool = [""] + [
            " ".join(rng.choice(words, size=int(rng.integers(1, 5))).tolist())
            for _ in range(25)
        ]
        texts = [pool[i] for i in rng.integers(0, len(pool), size=400)]
        for min_freq in (1, 2, 5, 40):
            counts: dict[str, int] = {}
            for text in texts:
                for tok in split_text(text):
                    counts[tok] = counts.get(tok, 0) + 1
            kept = sorted(t for t, c in counts.items() if c >= min_freq)
            want = {t: i for i, t in enumerate([PAD, UNK, CLS, SEP, *kept])}
            assert Tokenizer.build(iter(texts), min_freq=min_freq).token_to_id == want

    def test_save_load_roundtrip(self, tmp_path):
        tk = build_tokenizer()
        path = tmp_path / "vocab.tsv"
        tk.save(path)
        loaded = Tokenizer.load(path)
        assert loaded.token_to_id == tk.token_to_id

    def test_tail_template(self):
        tk = build_tokenizer()
        graph = text_graph(("dog", "a mammal"), ("cat", "a small mammal"))
        seq = tokenize_entity(tk, graph, 1, max_len=32)
        assert toks(tk, seq) == [CLS, "cat", "a", "small", "mammal", SEP]


def small_encoder(seed=0, layers=1, d=8, heads=2, vocab=16, max_len=12, name="enc"):
    cfg = ModelConfig(num_entities=1, num_base_relations=1, layers=layers,
                      hidden_dim=d, heads=heads, max_len=max_len, vocab_size=vocab)
    return TextEncoder(cfg, np.random.default_rng(seed), name=name)


def layer_prefixes(blocks, layers):
    """``TextEncoder.encode``'s prefixes over a (B, 2 * layers * d) array
    laid out as a prefix projection is: that array as one node, paired
    with each layer's key column."""
    node = ad.Node(blocks)
    width = blocks.shape[1] // layers
    return [(node, layer * width) for layer in range(layers)]


def random_prefixes(rng, layers, d, scale=1.0):
    return layer_prefixes(rng.normal(size=(1, 2 * layers * d)) * scale, layers)


class TestEncoder:
    def test_shape_comes_from_the_model_config(self):
        enc = small_encoder(layers=3, d=12, heads=3, vocab=20, max_len=9)
        assert enc.tok_emb.value.shape == (20, 12)
        assert enc.pos_emb.value.shape == (9, 12)
        assert len(enc.layers) == 3
        assert enc.layers[0]["w1"].value.shape == (12, 48)

    def test_zero_prefix_equals_plain(self):
        enc = small_encoder(layers=1)
        tokens = [2, 5, 7, 3]
        zero = layer_prefixes(np.zeros((1, 16)), 1)
        out_prefix = enc.encode([tokens], zero)
        out_plain = enc.encode([tokens])
        np.testing.assert_array_equal(out_prefix.value, out_plain.value)

    def test_prefix_sensitivity(self):
        rng = np.random.default_rng(1)
        enc = small_encoder(layers=2)
        tokens = [2, 5, 7, 3]
        a = enc.encode([tokens], random_prefixes(rng, 2, 8)).value
        b = enc.encode([tokens], random_prefixes(rng, 2, 8)).value
        assert np.abs(a - b).max() > 1e-6

    def test_output_unit_norm(self):
        rng = np.random.default_rng(2)
        enc = small_encoder(layers=2)
        for _ in range(10):
            tokens = list(rng.integers(2, 16, size=rng.integers(1, 12)))
            out = enc.encode([tokens], random_prefixes(rng, 2, 8))
            assert abs(np.linalg.norm(out.value) - 1.0) <= 1e-9

    def test_shared_weights_give_identical_outputs(self):
        enc_a = small_encoder(seed=4, name="hr")
        enc_b = small_encoder(seed=5, name="tail")
        for a, b in zip(enc_a.parameters().values(), enc_b.parameters().values()):
            b.value = a.value.copy()
        tokens = [2, 6, 9, 3]
        rng = np.random.default_rng(6)
        prefixes = random_prefixes(rng, 1, 8)
        np.testing.assert_array_equal(
            enc_a.encode([tokens], prefixes).value,
            enc_b.encode([tokens], prefixes).value,
        )

    def test_too_long_sequence_rejected(self):
        enc = small_encoder(max_len=4)
        with pytest.raises(ValueError, match="max_len"):
            enc.encode([[2, 5, 5, 5, 3]])

    def test_entity_with_empty_description_encodes(self):
        tk = build_tokenizer()
        enc = small_encoder(vocab=len(tk))
        out = enc.encode([tokenize_entity(tk, text_graph(("dog", "")), 0, 12)])
        assert out.value.shape == (1, 8)

    def test_end_to_end_gradient(self):
        # loss through encode -> score on a 2-layer, d=8 configuration
        rng = np.random.default_rng(7)
        enc = small_encoder(seed=8, layers=2)
        proj = PrefixProjector(4, 2, 8, np.random.default_rng(9))
        tokens = [2, 5, 7, 11, 3]
        target = rng.normal(size=(8, 1))
        checked = [
            ("struct_vec", np.array([[0.3, -0.2, 0.5, 0.1]])),
            ("wq0", enc.layers[0]["wq"].value),
            ("tok_emb", enc.tok_emb.value),
            ("proj", proj.weight.value),
        ]

        def build(leaves):
            vec, wq0, tok_emb, wproj = leaves
            enc.layers[0]["wq"] = wq0
            enc.tok_emb = tok_emb
            enc._params["enc.l0.wq"] = wq0
            enc._params["enc.tok_emb"] = tok_emb
            proj.weight = wproj
            prefixes = proj.project(vec)
            pooled = enc.encode([tokens], prefixes)
            return ad.matmul(pooled, ad.Node(target))

        assert_gradients_match(build, [v for _, v in checked], rtol=1e-3)


class TestFusedMatchesReference:
    """The one padded pass against the per-sequence, per-head encoder."""

    # ragged lengths up to max_len, a length-1 sequence, and a [PAD] id (0)
    # inside the second sequence
    SEQS = [[2, 5, 7, 3], [2, 9, 0, 11, 4, 6, 3], [2], [2, 13, 4, 4, 8, 9, 10, 12, 5, 3],
            [3, 15, 2]]

    def _prefixes(self, rng, mode, layers=2, d=8):
        if mode == "off":
            return None
        blocks = [rng.normal(size=(5, d)) for _ in range(2 * layers)]  # key, value, ...
        if mode == "mixed":
            # sequence 1 has no prefix at all, sequence 3 only at layer 1
            for value in blocks[1::2]:
                value[1] = 0.0
            blocks[3][3] = 0.0
        return layer_prefixes(np.concatenate(blocks, axis=1), layers)

    @pytest.mark.parametrize("mode", ["off", "on", "mixed"])
    def test_embeddings_and_gradients_match(self, mode):
        rng = np.random.default_rng(12)
        enc = small_encoder(seed=13, layers=2, heads=2)
        prefixes = self._prefixes(rng, mode)
        weights = ad.Node(rng.normal(size=(len(self.SEQS), 8)))
        leaves = list(enc.parameters().values())
        if prefixes is not None:
            leaves.append(prefixes[0][0])

        fused = enc.encode(self.SEQS, prefixes)
        ad.backward(sum_all(ad.mul(fused, weights)))
        fused_grads = [leaf.grad for leaf in leaves]
        for leaf in leaves:
            leaf.grad = None

        rows = []
        for b, tokens in enumerate(self.SEQS):
            row_prefixes = None if prefixes is None else [
                (ad.gather_rows(node, [b]), start) for node, start in prefixes
            ]
            rows.append(reference_encode(enc, tokens, row_prefixes))
        reference = concat_rows(rows)
        ad.backward(sum_all(ad.mul(reference, weights)))

        np.testing.assert_allclose(fused.value, reference.value, rtol=0, atol=1e-12)
        for leaf, grad in zip(leaves, fused_grads):
            expected = np.zeros_like(leaf.value) if leaf.grad is None else leaf.grad
            np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["off", "on", "mixed"])
    def test_no_tape_encode_equals_the_recorded_one_byte_for_byte(self, mode):
        rng = np.random.default_rng(17)
        enc = small_encoder(seed=18, layers=2, heads=2)
        prefixes = self._prefixes(rng, mode)
        recorded = enc.encode(self.SEQS, prefixes)
        with ad.no_grad():
            plain = enc.encode(self.SEQS, prefixes)
        assert recorded._parents and not plain._parents
        assert plain.value.tobytes() == recorded.value.tobytes()

    @pytest.mark.parametrize("recording", [True, False])
    @pytest.mark.parametrize("mode", ["off", "projected", "mixed"])
    def test_encode_has_the_bytes_of_one_node_per_op(self, monkeypatch, mode, recording):
        # the same padded pass with one node per gather, linear map,
        # attention, GELU, residual sum and layer norm; "projected" routes
        # every prefix through one shared projection whose gradient sums
        # four contributions, with sequence 2's structure vector zero (no
        # prefix at any layer)
        runs = []
        for composed in (False, True):
            if composed:
                text_reference.use_compositions(monkeypatch)
            rng = np.random.default_rng(19)
            enc = small_encoder(seed=20, layers=2, heads=2)
            leaves = list(enc.parameters().values())
            if mode == "projected":
                proj = PrefixProjector(4, 2, 8, np.random.default_rng(21))
                vecs = rng.normal(size=(len(self.SEQS), 4))
                vecs[2] = 0.0
                leaves += [proj.weight, ad.Node(vecs)]
                prefixes = proj.project(leaves[-1])
            else:
                prefixes = self._prefixes(rng, mode)
                leaves += [prefixes[0][0]] if prefixes else []
            with contextlib.nullcontext() if recording else ad.no_grad():
                out = enc.encode(self.SEQS, prefixes)
            if recording:
                ad.backward(sum_all(ad.mul(out, ad.Node(rng.normal(size=out.value.shape)))))
            runs.append([out.value.tobytes()] + [
                None if leaf.grad is None else leaf.grad.tobytes() for leaf in leaves])
        assert runs[0] == runs[1]
        assert all(grad is not None for grad in runs[0][1:]) == recording

    def test_tape_size_does_not_grow_with_batch(self):
        # a per-sequence loop inside encode would multiply the node count
        rng = np.random.default_rng(14)
        enc = small_encoder(seed=15, layers=2, heads=2)
        proj = PrefixProjector(4, 2, 8, np.random.default_rng(16))

        def tape_nodes(batch):
            seqs = [list(rng.integers(2, 16, size=rng.integers(1, 12))) for _ in range(batch)]
            vecs = ad.Node(rng.normal(size=(batch, 4)))
            return len(ad._toposort(enc.encode(seqs, proj.project(vecs))))

        assert tape_nodes(16) == tape_nodes(1)


def score(h_hr, h_t) -> float:
    """The text score ranking uses: a dot product of two pooled embeddings,
    which equals their cosine because encoder outputs are unit norm."""
    return float(np.ravel(h_hr) @ np.ravel(h_t))


class TestScore:
    def test_identical(self):
        v = np.array([0.6, 0.8])
        assert score(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert score([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_hand_value(self):
        assert score([0.6, 0.8], [0.8, 0.6]) == pytest.approx(0.96)

    def test_dot_equals_full_cosine_for_encoder_outputs(self):
        rng = np.random.default_rng(10)
        enc = small_encoder(layers=2)
        a = enc.encode([list(rng.integers(2, 16, size=6))]).value.ravel()
        b = enc.encode([list(rng.integers(2, 16, size=4))]).value.ravel()
        full = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert abs(score(a, b) - full) <= 1e-12

    def test_argmax_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=50)
        for c in (0.1, 1.0, 7.3):
            assert int(np.argmax(scores * c)) == int(np.argmax(scores))
