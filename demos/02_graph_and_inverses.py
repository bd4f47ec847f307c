"""
Knowledge-graph data model: adjacency indexes and inverse triples
=================================================================

Shows the tail-neighbor indexes e(r) and e(h, r), the inverse-triple
reformulation that turns head prediction into tail prediction, and
split-scoped known-true filtering.
"""

from structkgc.graph import (
    EntityRecord,
    KnowledgeGraph,
    RelationRecord,
    Triple,
    add_inverse_triples,
    inverse_relation_records,
)

entities = [
    EntityRecord("ship", "a large watercraft", 0),
    EntityRecord("hull", "the body of a ship", 1),
    EntityRecord("mast", "a tall upright post", 2),
    EntityRecord("sail", "fabric catching wind", 3),
]
base = [RelationRecord("has part", "", 0)]
train = [Triple(0, 0, 1), Triple(0, 0, 2), Triple(2, 0, 3)]

doubled = add_inverse_triples(train, num_base_relations=1)
print("with inverses:", doubled.tolist())

graph = KnowledgeGraph(
    entities,
    base + inverse_relation_records(base),
    {"train": doubled, "test": add_inverse_triples([Triple(0, 0, 3)], 1)},
    num_base_relations=1,
)

print("\ne(has part)      =", graph.tails_by_relation(0).tolist())
print("e(ship, has part) =", graph.tails_by_pair(0, 0).tolist())
print("inverse rendering:", graph.relations[1].name)

print("\n(ship, has part, hull) known in train? ",
      1 in graph.tails_by_pair(0, 0, ["train"]))
print("(ship, has part, sail) known in train?  ",
      3 in graph.tails_by_pair(0, 0, ["train"]))
print("(ship, has part, sail) known anywhere?  ",
      3 in graph.tails_by_pair(0, 0, ["train", "valid", "test"]))
