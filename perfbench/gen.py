"""Seeded synthetic inputs for the benchmark workloads.

Relation frequencies and, within each relation, head degrees follow Zipf
laws, so filter sets and intra-relation pools range from one entity to
thousands.  The rarest relation points every head at one hub tail: its
queries have an empty intra-relation pool in both directions, so the
sampler's uniform fallback runs on a few percent of queries.

Everything here works on plain ``(n, 3)`` int64 arrays of base triples
(head, relation, tail) and never calls into ``structkgc``, so the
statistics and the oracles built on them are independent of the program
under test.
"""

from __future__ import annotations

import os

import numpy as np

SPLITS = ("train", "valid", "test")

WORDS = (
    "amber basalt cedar delta ember fjord garnet harbor iris juniper kelp "
    "lagoon marble nectar opal pearl quartz reef summit tundra umber violet "
    "willow xenon yarrow zephyr cobalt dune ferry grove heron lichen"
).split()

DESK_RELATIONS = ("linked to", "part of", "variant of", "derived from")

WIDE_RELATIONS = (
    "hypernym", "derivationally related form", "member meronym", "has part",
    "synset domain topic of", "instance hypernym", "also see", "verb group",
    "member of domain region", "member of domain usage", "similar to",
)


MAX_ROUNDS = 64  # drawing rounds per relation before giving up


def zipf_weights(n: int) -> np.ndarray:
    """Zipf(1) probabilities of ranks 1..n."""
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    return w / w.sum()


def make_triples(rng: np.random.Generator, num_entities: int,
                 num_relations: int, counts: dict[str, int]) -> dict[str, np.ndarray]:
    """Distinct base triples split into train/valid/test, without self-loops.

    Relation ``r`` takes a Zipf(1) share of the triples.  Its heads are
    Zipf(1) over a per-relation permutation of the entities and its tails
    are uniform, except for the last relation, whose tails are all one hub
    entity.  Raises ``ValueError`` when a relation cannot hold its share
    of distinct triples, or when ``MAX_ROUNDS`` rounds of drawing do not
    reach it.
    """
    if num_entities < 2 or num_relations < 1:
        raise ValueError("need at least two entities and one relation")
    total = sum(counts.values())
    per_rel = rng.multinomial(total, zipf_weights(num_relations))
    hub_rel = num_relations - 1
    hub = int(rng.integers(num_entities))
    head_w = zipf_weights(num_entities)
    parts = []
    for r, want in enumerate(per_rel):
        capacity = num_entities - 1 if r == hub_rel else num_entities * (num_entities - 1)
        if want > capacity:
            raise ValueError(
                f"relation {r} needs {want} distinct triples but only "
                f"{capacity} exist over {num_entities} entities"
            )
        heads_perm = rng.permutation(num_entities)
        seen = np.zeros(0, dtype=np.int64)
        rounds = 0
        while seen.size < want:
            if rounds == MAX_ROUNDS:
                raise ValueError(
                    f"relation {r}: drew only {seen.size} of {want} distinct "
                    f"triples in {MAX_ROUNDS} rounds"
                )
            rounds += 1
            n = 2 * (want - seen.size) + 16
            h = heads_perm[rng.choice(num_entities, size=n, p=head_w)]
            t = (np.full(n, hub) if r == hub_rel
                 else rng.integers(num_entities, size=n))
            keys = h[h != t].astype(np.int64) * num_entities + t[h != t]
            merged = np.concatenate([seen, keys])
            _, first = np.unique(merged, return_index=True)
            seen = merged[np.sort(first)][:want]  # draw order, duplicates dropped
        parts.append(np.stack(
            [seen // num_entities, np.full(want, r), seen % num_entities], axis=1
        ))
    triples = np.concatenate(parts)[rng.permutation(total)]
    out, start = {}, 0
    for split in ("test", "valid", "train"):
        out[split] = triples[start:start + counts.get(split, 0)]
        start += counts.get(split, 0)
    return out


def with_inverses(triples: np.ndarray, num_relations: int) -> np.ndarray:
    """Originals then (t, r + R, h), the order the dataset loader uses."""
    inv = triples[:, ::-1] + np.array([0, num_relations, 0])
    return np.concatenate([triples, inv])


class TailIndex:
    """e(h, r) over a set of triples: sorted (h, r) keys with their tails."""

    def __init__(self, triples: np.ndarray, num_relations: int):
        self.stride = 2 * num_relations
        keys = triples[:, 0] * self.stride + triples[:, 1]
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.tails = triples[order, 2]

    def tails_of(self, head: int, relation: int) -> np.ndarray:
        key = head * self.stride + relation
        lo, hi = np.searchsorted(self.keys, [key, key + 1])
        return self.tails[lo:hi]

    def sizes(self, queries: np.ndarray) -> np.ndarray:
        keys = queries[:, 0] * self.stride + queries[:, 1]
        return (np.searchsorted(self.keys, keys + 1)
                - np.searchsorted(self.keys, keys))


def relation_tail_masks(train_full: np.ndarray, num_entities: int,
                        num_relations: int) -> np.ndarray:
    """(2R, N) boolean: entity t is in e(r) of the train split (inverses on)."""
    masks = np.zeros((2 * num_relations, num_entities), dtype=bool)
    masks[train_full[:, 1], train_full[:, 2]] = True
    return masks


def input_stats(splits: dict[str, np.ndarray], num_entities: int,
                num_relations: int) -> dict[str, float]:
    """Realised sizes of the generated inputs, inverses included."""
    full = {s: with_inverses(splits[s], num_relations) for s in SPLITS}
    known = TailIndex(np.concatenate([full[s] for s in SPLITS]), num_relations)
    train_index = TailIndex(full["train"], num_relations)
    masks = relation_tail_masks(full["train"], num_entities, num_relations)
    filters = known.sizes(full["test"]) if len(full["test"]) else np.zeros(1)
    # |e(r) - e(h, r)| in train for every train query; e(h, r) is inside e(r)
    pools = masks.sum(axis=1)[full["train"][:, 1]] - train_index.sizes(full["train"])
    stats = {"entities": num_entities, "relations": num_relations}
    for s in SPLITS:
        stats[f"{s}_triples"] = int(len(full[s]))
    stats.update({
        "filter_set_p50": float(np.percentile(filters, 50)),
        "filter_set_p99": float(np.percentile(filters, 99)),
        "ir_pool_p50": float(np.percentile(pools, 50)),
        "ir_pool_p99": float(np.percentile(pools, 99)),
        "ir_fallback_share": float(np.mean(pools == 0)),
    })
    return stats


def entity_records(num_entities: int, rng: np.random.Generator | None):
    """(name, description) per entity; word-bank descriptions when rng is given."""
    if rng is None:
        return [(f"entity {i}", "") for i in range(num_entities)]
    words = np.asarray(WORDS)
    return [
        (f"item{i}", " ".join(words[rng.choice(len(words), 3, replace=False)]))
        for i in range(num_entities)
    ]


def write_dataset(directory, entities, relation_names,
                  splits: dict[str, np.ndarray]):
    """Write the tab-separated layout ``structkgc.data.load_dataset`` reads."""
    os.makedirs(directory, exist_ok=True)

    def dump(name, lines):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    dump("entities.txt", [f"E{i}\t{n}\t{d}" for i, (n, d) in enumerate(entities)])
    dump("relations.txt", [f"R{j}\t{n}" for j, n in enumerate(relation_names)])
    for split in SPLITS:
        dump(f"{split}.txt", [f"E{h}\tR{r}\tE{t}" for h, r, t in splits[split].tolist()])
