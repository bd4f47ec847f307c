"""Dataset ingestion in the tab-separated KGC file layout.

A dataset directory holds ``train.txt`` / ``valid.txt`` / ``test.txt``
(lines of ``head<TAB>relation<TAB>tail`` raw string ids), an entity file
``entities.txt`` (``entity_id<TAB>name<TAB>description``) and a relation
file ``relations.txt`` (``relation_id<TAB>name[<TAB>description]``).
The public WN18RR / FB15k-237 distributions drop in after a rename to
this layout.

Loading assigns dense ids in file order, applies the name fallbacks
(missing name -> raw id string, missing description -> empty) and
appends inverse triples to every split so head prediction becomes tail
prediction over inverse relations, with filtering correct in both
directions; ``KnowledgeGraph.with_inverses`` adds the inverses.

Every file goes through one parser, :func:`_columns`, with no object per
line.  It reads the file once as UTF-8 text with universal newlines (a
byte that is not UTF-8 is a ``DataError`` naming its line) and encodes
it back to bytes.  numpy then finds the newlines and tabs, drops the
lines ``str.strip()`` would empty, checks each other line's column count
(one to three in a vocabulary file, three in a triple file) and gives
each column as one byte span per line, a missing column being empty.

- A vocabulary file's raw ids, names and descriptions are each decoded
  from their spans with one gather, one ``decode`` and one ``split``;
  the strip and the name fallback run per column.  The raw ids also
  become an :class:`_IdIndex`, packed from the same spans.
- A triple file's columns are looked up in the indexes to int64 arrays
  of dense ids, with -1 for an id the vocabulary files do not declare.
  The inverses are one array operation on the result, in the graph
  constructor.

An id is looked up by a key: its UTF-8 bytes, a newline byte and zero
padding, as little-endian uint64 words, as many as the vocabulary's
longest id needs.  No id holds a newline, so the first one ends the id,
``"ab"`` and ``"ab\\0"`` differ, and a field longer than every id packs
no newline and matches nothing.  Keys are searched by a one-word digest
(the key itself when it is one word), and every match is confirmed by
comparing all of its words, so a digest shared by two ids costs a
compare, never a wrong id.

A bad line is found in the same arrays, with no second scan, and raises
a ``DataError`` naming its ``path:line`` (blank lines count in the
numbering).  A wrong column count outranks every other fault of its
file; then a vocabulary file names the first line whose id repeats an
earlier one, and a triple file the first line with an undeclared id
(head, then relation, then tail).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .graph import DataError, KnowledgeGraph, RelationRecord, read_text
from .text import MIN_TOKEN_FREQ, Tokenizer

SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}
ENTITY_FILE = "entities.txt"
RELATION_FILE = "relations.txt"


@dataclass
class Dataset:
    """A graph with the raw string ids its files name entities and base
    relations by; ``load_dataset`` and the toy generators return one, and
    ``write_dataset`` writes one."""
    graph: KnowledgeGraph
    entity_raw_ids: list[str]
    relation_raw_ids: list[str]  # base relations only


# Per byte of UTF-8 text, for finding blank lines: 2 where the byte is, or
# leads, a character that ``str.isspace()`` refuses; 1 where it leads a
# character that may be a space (U+0085, U+00A0, U+1680, U+2000..U+205F and
# U+3000 all start with one of these four bytes); 0 for ASCII whitespace
# and for continuation bytes, which their lead byte stands for.
_BYTE_CLASS = bytes(
    0 if b < 0x80 and chr(b).isspace() or 0x80 <= b < 0xC0
    else 1 if b in b"\xc2\xe1\xe2\xe3" else 2
    for b in range(256))


def _lines(data: bytes, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start and end offsets of the lines of ``data[:size]`` (UTF-8 text
    split at newlines), and which of them ``str.strip()`` would not empty."""
    text = np.frombuffer(data, np.uint8, size)
    ends = np.flatnonzero(text == 10)
    if size and text[-1] != 10:
        ends = np.append(ends, size)
    starts = np.r_[0, ends + 1][:len(ends)]
    kind = np.frombuffer(_BYTE_CLASS, np.uint8)[text[starts]]
    unsure = np.flatnonzero(kind != 2)  # lines that do not start with a non-space
    if len(unsure):
        bounds = np.stack([starts[unsure], ends[unsure]], axis=1).ravel()
        classes = np.frombuffer(data.translate(_BYTE_CLASS) + b"\0", np.uint8)
        kind[unsure] = np.maximum.reduceat(classes, bounds)[::2]
    for i in np.flatnonzero(kind == 1):  # decode only lines that may be all spaces
        if data[starts[i]:ends[i]].decode("utf-8").strip():
            kind[i] = 2
    return starts, ends, kind == 2


# Indexed by a word's bytes left in its field, clipped to -1..8, plus one:
# the mask that keeps the field's bytes, and the newline that ends it.
_WORD_MASK = np.array([0] + [(1 << 8 * n) - 1 for n in range(9)], np.uint64)
_WORD_END = np.array([0] + [10 << 8 * n for n in range(8)] + [0], np.uint64)
_DIGEST_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _pack(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
          width: int) -> np.ndarray:
    """The ``(n, width)`` uint64 keys of the fields ``buf[start:end]``;
    ``buf`` has 8 zero bytes past its last field."""
    words = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))  # the word at each byte
    keys = np.empty((len(starts), width), np.uint64)
    lengths = ends - starts
    for j in range(width):
        left = np.clip(lengths - 8 * j, -1, 8) + 1
        word = words[np.minimum(starts + 8 * j, len(words) - 1)]
        keys[:, j] = (word & _WORD_MASK[left]) | _WORD_END[left]
    return keys


def _digest(keys: np.ndarray) -> np.ndarray:
    """One uint64 per key, the key itself when it is one word."""
    digest = keys[:, 0]
    for j in range(1, keys.shape[1]):
        digest = digest * _DIGEST_MULTIPLIER + keys[:, j]  # wraps modulo 2**64
    return digest


class _IdIndex:
    """The raw ids of a vocabulary file, looked up exactly by their bytes.

    The raw ids are decoded from the id column's spans in the file's
    bytes, and the keys packed from the same spans and sorted once, stably,
    by digest and then word by word, so equal ids sit side by side in file
    order, and so do ids whose digests collide."""

    def __init__(self, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
        self.raw_ids = _decode(buf, starts, ends)
        self.width = int((ends - starts).max(initial=0)) // 8 + 1
        keys = _pack(buf, starts, ends, self.width)
        digests = _digest(keys)
        self.ids = np.lexsort((*keys.T[::-1], digests))
        self.keys, self.digests = keys[self.ids], digests[self.ids]
        # the most ids that share one digest: 1 unless digests collide
        self.most_sharing = int(np.unique(self.digests, return_counts=True)[1].max(initial=0))

    def lookup(self, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """The dense id of each field ``buf[start:end]``, -1 where no id
        has its bytes; ``buf`` as :func:`_pack` takes it."""
        keys = _pack(buf, starts, ends, self.width)
        unique, inverse = np.unique(_digest(keys), return_inverse=True)
        first = np.searchsorted(self.digests, unique)[inverse]
        ids = np.full(len(keys), -1, np.int64)
        for step in range(self.most_sharing):  # compare every word of each candidate
            at = np.minimum(first + step, len(self.keys) - 1)
            match = np.all(self.keys[at] == keys, axis=1)
            ids[match] = self.ids[at[match]]
        return ids


def _columns(path, min_cols: int, max_cols: int):
    """Parse a dataset file: ``buf``, its UTF-8 bytes and 8 zero bytes (as
    :func:`_pack` takes it), the 1-based number of each non-blank line, and
    per column the start and end offsets of its field on each such line.
    A column that a line lacks is an empty span at the line's end."""
    data = read_text(path).encode("utf-8") + bytes(8)
    starts, ends, nonblank = _lines(data, len(data) - 8)
    buf = np.frombuffer(data, np.uint8)
    tabs = np.flatnonzero(buf == 9)
    first = np.searchsorted(tabs, starts)  # each line's first tab
    cols = np.diff(first, append=len(tabs)) + 1
    bad = np.flatnonzero(nonblank & ((cols < min_cols) | (cols > max_cols)))
    if len(bad):
        raise DataError(path, int(bad[0]) + 1,
                        f"expected {min_cols}..{max_cols} tab-separated columns, "
                        f"got {cols[bad[0]]}")
    first, ends = first[nonblank], ends[nonblank]
    tabs = np.append(tabs, np.full(max_cols - 1, len(buf)))  # past every line's end
    # column c < max_cols - 1 ends at the line's tab c, or at its end if it has none
    cuts = [np.minimum(tabs[first + c], ends) for c in range(max_cols - 1)]
    column_starts = [starts[nonblank], *(np.minimum(cut + 1, ends) for cut in cuts)]
    return buf, np.flatnonzero(nonblank) + 1, list(zip(column_starts, [*cuts, ends]))


def _decode(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The fields ``buf[start:end]`` as ``str``s.  One gather takes each
    field and the byte after it (which becomes a newline, a byte no field
    holds) through a mask over ``buf``, then one decode and one split."""
    bounds = np.stack([starts, ends + 1], axis=1).ravel()
    runs = np.diff(bounds, prepend=0, append=len(buf))  # bytes out, in, out, ..., out
    taken = np.zeros(len(runs), bool)
    taken[1::2] = True
    text = buf[np.repeat(taken, runs)]
    text[np.cumsum(ends + 1 - starts) - 1] = 10
    return text.tobytes().decode("utf-8").split("\n")[:-1]


def _read_vocabulary(path, kind: str):
    """Names, descriptions and the id index of an entity or relation file."""
    buf, line_nos, (ids, names, descriptions) = _columns(path, 1, 3)
    index = _IdIndex(buf, *ids)
    raw_ids = index.raw_ids
    # sorted stably, an id's first line leads its run of equal keys, so the
    # first repeated id is on the earliest line that leads no run
    repeats = index.ids[1:][np.all(index.keys[1:] == index.keys[:-1], axis=1)]
    if len(repeats):
        row = int(repeats.min())
        raise DataError(path, int(line_nos[row]), f"duplicate {kind} id {raw_ids[row]!r}")
    names = list(map(str.strip, _decode(buf, *names)))
    if "" in names:  # missing name -> raw id
        names = [name or raw for name, raw in zip(names, raw_ids)]
    return names, list(map(str.strip, _decode(buf, *descriptions))), index


def _read_triples(path, entities: _IdIndex, relations: _IdIndex) -> np.ndarray:
    """The file's triples as an (n, 3) int64 array of dense ids."""
    buf, line_nos, columns = _columns(path, 3, 3)
    triples = np.empty((len(line_nos), 3), np.int64)
    for c, index in enumerate((entities, relations, entities)):
        triples[:, c] = index.lookup(buf, *columns[c])
    undeclared = np.argwhere(triples < 0)  # by line, then head, relation, tail
    if len(undeclared):
        row, c = undeclared[0]
        (starts, ends), kind = columns[c], ("entity", "relation", "entity")[c]
        raw = buf[starts[row]:ends[row]].tobytes().decode("utf-8")
        raise DataError(path, int(line_nos[row]), f"undeclared {kind} id {raw!r}")
    return triples


def load_dataset(directory) -> Dataset:
    directory = str(directory)
    ent_path = os.path.join(directory, ENTITY_FILE)
    rel_path = os.path.join(directory, RELATION_FILE)
    for path in (ent_path, rel_path, os.path.join(directory, SPLIT_FILES["train"])):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing dataset file: {path}")

    names, descriptions, entity_index = _read_vocabulary(ent_path, "entity")
    rel_names, rel_descriptions, relation_index = _read_vocabulary(rel_path, "relation")
    base_rels = [RelationRecord(name, desc, i)
                 for i, (name, desc) in enumerate(zip(rel_names, rel_descriptions))]

    paths = {split: os.path.join(directory, fname) for split, fname in SPLIT_FILES.items()}
    splits = {split: _read_triples(path, entity_index, relation_index)
              for split, path in paths.items() if os.path.exists(path)}
    graph = KnowledgeGraph.with_inverses(names, descriptions, base_rels, splits)
    return Dataset(graph, entity_index.raw_ids, relation_index.raw_ids)


def write_dataset(dataset: Dataset, directory):
    """Serialize back to the file layout; inverse triples are stripped.  A
    raw id, name or description that holds a tab, ``\\n`` or ``\\r`` (the
    loader would split it) raises a ``ValueError`` before any file is written."""
    graph, entity_raw_ids, relation_raw_ids = (
        dataset.graph, dataset.entity_raw_ids, dataset.relation_raw_ids)
    base_rels = graph.relations[: graph.num_base_relations]
    for what, texts in (("entity raw id", entity_raw_ids), ("entity name", graph.entity_names),
                        ("entity description", graph.entity_descriptions),
                        ("relation raw id", relation_raw_ids),
                        ("relation name", [rec.name for rec in base_rels]),
                        ("relation description", [rec.description for rec in base_rels])):
        bad = next((text for text in texts if "\t" in text or "\n" in text or "\r" in text), None)
        if bad is not None:
            raise ValueError(f"{what} {bad!r} holds a tab or a line break, "
                             f"which the dataset files cannot hold")

    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, ENTITY_FILE), "w", encoding="utf-8") as f:
        f.writelines(f"{raw}\t{name}\t{desc}\n" for raw, name, desc in zip(
            entity_raw_ids, graph.entity_names, graph.entity_descriptions, strict=True))
    with open(os.path.join(directory, RELATION_FILE), "w", encoding="utf-8") as f:
        for rec in base_rels:
            f.write(f"{relation_raw_ids[rec.id]}\t{rec.name}\t{rec.description}\n")
    for split, fname in SPLIT_FILES.items():
        triples = graph.triples(split)
        base = triples[triples[:, 1] < graph.num_base_relations].tolist()
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as f:
            f.writelines(
                f"{entity_raw_ids[h]}\t{relation_raw_ids[r]}\t{entity_raw_ids[t]}\n"
                for h, r, t in base
            )


def corpus_texts(graph: KnowledgeGraph):
    """Token-count stream for vocabulary building.

    Yields the rendered text of every training triple occurrence, so a
    token's count reflects how often the encoder will actually see it.
    """
    names, descs, rels = graph.entity_names, graph.entity_descriptions, graph.relations
    for h, r, t in graph.triples("train").tolist():
        yield names[h]
        yield descs[h]
        yield rels[r].name
        yield rels[r].description
        yield names[t]
        yield descs[t]


def build_tokenizer(graph: KnowledgeGraph, min_freq: int = MIN_TOKEN_FREQ) -> Tokenizer:
    return Tokenizer.build(corpus_texts(graph), min_freq=min_freq)
