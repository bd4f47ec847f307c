"""
Knowledge-graph data model: adjacency indexes and inverse triples
=================================================================

Shows the tail-neighbor indexes e(r) and e(h, r), the inverse-triple
reformulation that turns head prediction into tail prediction, and
split-scoped known-true filtering.
"""

from structkgc.graph import KnowledgeGraph, RelationRecord, Triple

names = ["ship", "hull", "mast", "sail"]
descriptions = ["a large watercraft", "the body of a ship",
                "a tall upright post", "fabric catching wind"]
base = [RelationRecord("has part", "", 0)]
train = [Triple(0, 0, 1), Triple(0, 0, 2), Triple(2, 0, 3)]

# every dataset is built this way: the base relations and triples, and
# the graph adds each relation's inverse and each triple's inverse
graph = KnowledgeGraph.with_inverses(
    names, descriptions, base, {"train": train, "test": [Triple(0, 0, 3)]})
print("with inverses:", graph.triples("train").tolist())

print("\ne(has part)      =", graph.tails_by_relation(0).tolist())
print("e(ship, has part) =", graph.tails_by_pair(0, 0).tolist())
print("inverse rendering:", graph.relations[1].name)

print("\n(ship, has part, hull) known in train? ",
      1 in graph.tails_by_pair(0, 0, ["train"]))
print("(ship, has part, sail) known in train?  ",
      3 in graph.tails_by_pair(0, 0, ["train"]))
print("(ship, has part, sail) known anywhere?  ",
      3 in graph.tails_by_pair(0, 0, ["train", "valid", "test"]))
