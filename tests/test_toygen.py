import hashlib

import numpy as np
import pytest

from structkgc.toygen import make_text_toy

FIXED_NAMES = ["linked to", "part of", "variant of", "derived from"]


class TestTextToy:
    def test_extra_relations_get_generated_names(self):
        toy = make_text_toy(num_entities=20, num_relations=7, num_triples=60, seed=1)
        names = [rel.name for rel in toy.graph.relations[:7]]
        assert names[:4] == FIXED_NAMES
        assert len(set(names)) == 7
        assert toy.graph.num_base_relations == 7
        assert set(toy.graph.triples("train")[:, 1].tolist()) <= set(range(14))

    @pytest.mark.parametrize("kwargs,digest", [
        (dict(num_entities=50, num_relations=4, num_triples=70, seed=5), "2276a3240e98b425"),
        (dict(num_entities=10, num_relations=2, num_triples=16, seed=0), "0ce8e1c817078d24"),
    ])
    def test_existing_seeds_reproduce(self, kwargs, digest):
        # digests of the triples the generator made before it numbered extra relations
        toy = make_text_toy(**kwargs)
        names = [rel.name for rel in toy.graph.relations[:kwargs["num_relations"]]]
        assert names == FIXED_NAMES[:kwargs["num_relations"]]
        triples = [tuple(t) for split in ("train", "test")
                   for t in toy.graph.triples(split).tolist()]
        assert hashlib.sha256(repr(triples).encode()).hexdigest()[:16] == digest

    def test_unreachable_triple_count_raises_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the generator started sampling")

        monkeypatch.setattr(np.random, "default_rng", no_sampling)
        with pytest.raises(ValueError, match="5 distinct triples do not fit"):
            make_text_toy(num_entities=2, num_relations=1, num_triples=5)

    def test_exactly_reachable_triple_count_completes(self):
        toy = make_text_toy(num_entities=2, num_relations=1, num_triples=4)
        base = [t for split in ("train", "test") for t in toy.graph.triples(split).tolist()
                if t[1] == 0]
        assert sorted(tuple(t) for t in base) == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]
