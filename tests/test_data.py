import hashlib
import os
import sys
import tracemalloc

import numpy as np
import pytest

from structkgc import data
from structkgc.cli import main
from structkgc.data import (
    ENTITY_FILE,
    RELATION_FILE,
    SPLIT_FILES,
    DataError,
    Dataset,
    _DIGEST_MULTIPLIER,
    _IdIndex,
    _columns,
    _digest,
    _lines,
    _read_triples,
    _read_vocabulary,
    build_tokenizer,
    corpus_texts,
    load_dataset,
    write_dataset,
)
from structkgc.graph import KnowledgeGraph, RelationRecord, read_text
from structkgc.toygen import make_text_toy

import data_reference

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "toy")


class TestLoadDataset:
    def test_toy_fixture_loads(self):
        ds = load_dataset(FIXTURE)
        g = ds.graph
        assert g.num_entities == 5
        assert g.num_base_relations == 1
        assert g.num_relations == 2  # base + inverse
        # 3 train lines + 3 inverses
        assert len(g.triples("train")) == 6
        assert len(g.triples("valid")) == 2
        a, x = ds.entity_raw_ids.index("/a"), ds.entity_raw_ids.index("/x")
        r = ds.relation_raw_ids.index("/r/linked")
        assert x in g.tails_by_pair(a, r, ["train"])
        assert a in g.tails_by_pair(x, r + 1, ["train"])  # inverse direction

    def test_inverse_relation_naming(self):
        ds = load_dataset(FIXTURE)
        base = ds.graph.relations[0]
        inv = ds.graph.relations[1]
        assert inv.name == f"inverse of: {base.name}"

    def test_empty_description_column(self, tmp_path):
        _write_minimal(tmp_path, entities="e1\tname one\t\ne2\tname two\n")
        ds = load_dataset(tmp_path)
        assert ds.graph.entity_descriptions[0] == ""
        assert ds.graph.entity_descriptions[1] == ""

    def test_missing_name_falls_back_to_raw_id(self, tmp_path):
        _write_minimal(tmp_path, entities="e1\t\t\ne2\tnamed\tdesc\n")
        ds = load_dataset(tmp_path)
        assert ds.graph.entity_names[0] == "e1"

    def test_undeclared_entity_names_line(self, tmp_path):
        _write_minimal(tmp_path, train="e1\tr1\tghost\n")
        with pytest.raises(DataError, match=r"train.txt:1: .*ghost"):
            load_dataset(tmp_path)

    def test_malformed_line_reports_position(self, tmp_path):
        _write_minimal(tmp_path, train="e1\tr1\te2\ne1\tr1\n")
        with pytest.raises(DataError, match=r"train.txt:2"):
            load_dataset(tmp_path)

    def test_duplicate_entity_id_rejected(self, tmp_path):
        _write_minimal(tmp_path, entities="e1\ta\t\ne1\tb\t\n")
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(tmp_path)

    def test_missing_train_file_rejected(self, tmp_path):
        (tmp_path / "entities.txt").write_text("e1\tname\t\n")
        (tmp_path / "relations.txt").write_text("r1\trel\n")
        with pytest.raises(FileNotFoundError, match="train.txt"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("source", ["fixture", *(f"text_toy_seed{s}" for s in range(4))])
    def test_round_trip_preserves_triple_multisets(self, tmp_path, source):
        if source == "fixture":
            ds = load_dataset(FIXTURE)
        else:
            ds = make_text_toy(num_entities=25, num_relations=5, num_triples=60,
                               seed=int(source.removeprefix("text_toy_seed")))
        out_dir = tmp_path / "again"
        write_dataset(ds, out_dir)
        ds2 = load_dataset(out_dir)
        for split in ("train", "valid", "test"):
            assert sorted(ds.graph.triples(split).tolist()) == sorted(
                ds2.graph.triples(split).tolist())
        assert ds.entity_raw_ids == ds2.entity_raw_ids
        assert ds.relation_raw_ids == ds2.relation_raw_ids
        if source != "fixture":  # the toy's text and triple order come back as they were
            assert ds2.graph.entity_names == ds.graph.entity_names
            assert ds2.graph.entity_descriptions == ds.graph.entity_descriptions
            assert ds2.graph.relations == ds.graph.relations
            assert ds2.graph.num_base_relations == ds.graph.num_base_relations
            for split in ("train", "valid", "test"):
                np.testing.assert_array_equal(ds2.graph.triples(split), ds.graph.triples(split))


class TestWriteRefusesTextItCannotWriteBack:
    """A tab, ``\\n`` or ``\\r`` in a raw id, name or description would be
    read back as more columns or lines, so the writer refuses it, naming
    the text, before it writes any file."""

    FIELDS = ("entity raw id", "entity name", "entity description",
              "relation raw id", "relation name", "relation description")

    @staticmethod
    def _dataset(field: str, text: str) -> Dataset:
        toy = make_text_toy(num_entities=6, num_relations=2, num_triples=10, seed=0)
        g = toy.graph
        names, descriptions = list(g.entity_names), list(g.entity_descriptions)
        relations = list(g.relations[:g.num_base_relations])
        entity_raw_ids, relation_raw_ids = list(toy.entity_raw_ids), list(toy.relation_raw_ids)
        if field == "entity raw id":
            entity_raw_ids[3] = text
        elif field == "entity name":
            names[3] = text
        elif field == "entity description":
            descriptions[3] = text
        elif field == "relation raw id":
            relation_raw_ids[1] = text
        elif field == "relation name":
            relations[1] = RelationRecord(text, relations[1].description, 1)
        else:
            relations[1] = RelationRecord(relations[1].name, text, 1)
        base = {split: g.triples(split)[:len(g.triples(split)) // 2] for split in SPLIT_FILES}
        graph = KnowledgeGraph.with_inverses(names, descriptions, relations, base)
        return Dataset(graph, entity_raw_ids, relation_raw_ids)

    @pytest.mark.parametrize("separator", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_is_refused_before_any_file_is_written(self, tmp_path, field, separator):
        # written as is, a name "alpha\nE9\nghost" would load back as three
        # entities, two of them ghosts
        text = f"alpha{separator}E9{separator}ghost"
        out = tmp_path / "out"
        with pytest.raises(ValueError) as info:
            write_dataset(self._dataset(field, text), out)
        assert str(info.value) == (f"{field} {text!r} holds a tab or a line break, "
                                   f"which the dataset files cannot hold")
        assert not out.exists()

    @pytest.mark.parametrize("field", FIELDS)
    def test_other_whitespace_is_written_and_read_back(self, tmp_path, field):
        # a space, a form feed or a line separator inside the text splits
        # nothing the loader reads, so the writer takes it
        ds = self._dataset(field, "alpha beta\x0c\u2028E9")
        write_dataset(ds, tmp_path / "out")
        back = load_dataset(tmp_path / "out")
        assert back.entity_raw_ids == ds.entity_raw_ids
        assert back.relation_raw_ids == ds.relation_raw_ids
        assert back.graph.entity_names == ds.graph.entity_names
        assert back.graph.entity_descriptions == ds.graph.entity_descriptions
        assert back.graph.relations == ds.graph.relations


class TestIngestionErrors:
    """Each ingestion failure names its exact ``path:line: message``;
    blank lines count in the numbering."""

    def _error(self, directory, name):
        with pytest.raises(DataError) as info:
            load_dataset(directory)
        path = str(directory / name)
        assert info.value.path == path
        return str(info.value).replace(path, "PATH")

    @pytest.mark.parametrize("line,message", [
        ("ghost\tr1\te2", "undeclared entity id 'ghost'"),
        ("e1\tghost\te2", "undeclared relation id 'ghost'"),
        ("e1\tr1\tghost", "undeclared entity id 'ghost'"),
        ("ghost\tghost\tghost", "undeclared entity id 'ghost'"),
    ], ids=["head", "relation", "tail", "head_first"])
    def test_undeclared_id_after_blank_lines(self, tmp_path, line, message):
        _write_minimal(tmp_path, train=f"e1\tr1\te2\n\n  \ne2\tr1\te1\n\n{line}\ne1\tr1\tnobody\n")
        assert self._error(tmp_path, "train.txt") == f"PATH:6: {message}"

    def test_undeclared_id_in_valid(self, tmp_path):
        _write_minimal(tmp_path)
        (tmp_path / "valid.txt").write_text("\ne2\tr9\te1\n", encoding="utf-8")
        assert self._error(tmp_path, "valid.txt") == "PATH:2: undeclared relation id 'r9'"

    def test_column_count_outranks_an_earlier_undeclared_id(self, tmp_path):
        _write_minimal(tmp_path, train="e1\tr1\tghost\n\ne1\tr1\n")
        assert self._error(tmp_path, "train.txt") == (
            "PATH:3: expected 3..3 tab-separated columns, got 2")

    def test_duplicate_relation_id(self, tmp_path):
        _write_minimal(tmp_path, relations="r1\tone\n\nr2\ttwo\nr1\tagain\n")
        assert self._error(tmp_path, "relations.txt") == "PATH:4: duplicate relation id 'r1'"

    def test_bad_column_count_in_entities(self, tmp_path):
        _write_minimal(tmp_path, entities="e1\tone\t\n\ne2\ttwo\tdesc\textra\n")
        assert self._error(tmp_path, "entities.txt") == (
            "PATH:3: expected 1..3 tab-separated columns, got 4")

    def test_last_line_without_newline(self, tmp_path):
        _write_minimal(tmp_path, train="e1\tr1\te2\n\ne2\tr1\tghost")
        assert self._error(tmp_path, "train.txt") == "PATH:3: undeclared entity id 'ghost'"

    @pytest.mark.parametrize("files,read", [
        ({}, ["entities.txt", "relations.txt", "train.txt", "test.txt"]),
        ({"train": "e1\tr1\te2\ne1\tr1\n"}, ["entities.txt", "relations.txt", "train.txt"]),
        ({"entities": "e1\ne2\ne1\n"}, ["entities.txt"]),
        ({"train": "e1\tr1\te2\ne1\tr1\tghost\n"}, ["entities.txt", "relations.txt", "train.txt"]),
    ], ids=["good", "columns", "duplicate", "undeclared"])
    def test_each_file_is_read_once(self, tmp_path, monkeypatch, files, read):
        """A bad line is found in the arrays of its file's one read."""
        _write_minimal(tmp_path, **files)
        (tmp_path / "test.txt").write_text("e2\tr1\te1\n", encoding="utf-8")
        reads = []

        def counting_read_text(path):
            reads.append(os.path.basename(path))
            return read_text(path)

        monkeypatch.setattr(data, "read_text", counting_read_text)
        if files:
            with pytest.raises(DataError):
                load_dataset(tmp_path)
        else:
            load_dataset(tmp_path)
        assert reads == read

    def test_blank_and_whitespace_lines_and_no_final_newline_load(self, tmp_path):
        _write_minimal(tmp_path, train="e1\tr1\te2\n \t \n\ne2\tr1\te1")
        rows = load_dataset(tmp_path).graph.triples("train").tolist()
        assert rows == [[0, 0, 1], [1, 0, 0], [1, 1, 0], [0, 1, 1]]


def random_vocabulary(rng: np.random.Generator, n: int) -> str:
    """An entity file of ``n`` distinct ids in every layout the reader
    takes: 1, 2 or 3 columns, blank and whitespace-only lines between
    them, padded fields, names that strip to empty, ``\\r\\n`` endings and
    no final newline."""
    pads = ["", " ", "  ", "\x0b", "\u2028", " \u00a0"]
    words = ["dog", "a mammal", "", "  ", "ship", "x y z", "caf\u00e9"]

    def field():
        pad = pads[rng.integers(len(pads))]
        return pad + words[rng.integers(len(words))] + pads[rng.integers(len(pads))]

    lines = []
    for i in range(n):
        while rng.random() < 0.2:
            lines.append(["", " ", " \t ", "\t\t"][rng.integers(4)])
        raw = pads[rng.integers(3)] + f"id{i}"
        cols = [raw] + [field() for _ in range(rng.integers(0, 3))]
        lines.append("\t".join(cols))
    endings = ["\n" if rng.random() < 0.8 else "\r\n" for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    return text if rng.random() < 0.5 else text.rstrip("\r\n")


def id_column(tmp_path, raw_ids):
    """The :class:`_IdIndex` of ``raw_ids``, and their bytes and spans as
    ``_IdIndex.lookup`` takes them, read from a file of ``raw<TAB>x``
    lines, so that an id ``str.strip()`` empties is still declared."""
    path = tmp_path / "ids.txt"
    path.write_bytes("".join(f"{raw}\tx\n" for raw in raw_ids).encode("utf-8"))
    buf, _, (ids, _) = _columns(path, 2, 2)
    return _IdIndex(buf, *ids), (buf, *ids)


class TestColumnarVocabulary:
    """``_read_vocabulary`` against the per-line reader it replaced."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_line_reader(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "entities.txt"
        path.write_text(random_vocabulary(rng, int(rng.integers(1, 60))),
                        encoding="utf-8", newline="")
        names, descriptions, index = _read_vocabulary(path, "entity")
        records, want_raw, want_ids = data_reference.read_vocabulary(path, "entity")
        assert names == [r.name for r in records]
        assert descriptions == [r.description for r in records]
        assert index.raw_ids == want_raw
        _, fields = id_column(tmp_path, want_ids)
        assert index.lookup(*fields).tolist() == list(want_ids.values())

    def test_layouts_are_all_drawn(self):
        text = "\n".join(random_vocabulary(np.random.default_rng(s), 40) for s in range(12))
        lines = text.replace("\r\n", "\n").split("\n")
        assert {line.count("\t") for line in lines if line.strip()} == {0, 1, 2}
        assert "\r\n" in text and any(not line.strip() for line in lines)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "entities.txt"
        path.write_text("\n \n", encoding="utf-8")
        names, descriptions, index = _read_vocabulary(path, "entity")
        assert (names, descriptions, index.raw_ids) == ([], [], [])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fault", ["four_columns", "late_duplicate",
                                       "duplicate_before_four_columns",
                                       "repeats_out_of_order"])
    def test_errors_match_per_line_reader(self, tmp_path, seed, fault):
        rng = np.random.default_rng(seed)
        lines = random_vocabulary(rng, 30).split("\n")
        late = len(lines) - 1 - int(rng.integers(0, 3))
        if fault == "four_columns":
            lines.insert(late, "id9\tname\tdesc\textra")
        elif fault == "late_duplicate":
            raw = [line.split("\t")[0].rstrip("\r") for line in lines if line.strip()][3]
            lines.insert(late, f"{raw}\tagain")
        elif fault == "duplicate_before_four_columns":
            lines.insert(2, "id0\tagain")
            lines.insert(late, "a\tb\tc\td\te")
        else:  # the second b is the first repeat, though a's run sorts first
            lines[late:late] = ["a", "b", "b", "a"]
        path = tmp_path / "relations.txt"
        path.write_text("\n".join(lines), encoding="utf-8", newline="")
        with pytest.raises(DataError) as want:
            data_reference.read_vocabulary(path, "relation")
        with pytest.raises(DataError) as got:
            _read_vocabulary(path, "relation")
        assert str(got.value) == str(want.value)
        assert (got.value.path, got.value.line_no) == (want.value.path, want.value.line_no)


# Pieces of random ids: ASCII, two- to four-byte characters, characters
# whose lead byte some Unicode space shares (U+00A2, U+2192, U+3001),
# Unicode spaces and U+0000.
ID_PIECES = ["e", "1", "0", "x", " ", "\u00e9", "\u00a2", "\u2192", "\u3001", "\u4e2d",
             "\U0001f600", "\u00a0", "\u3000", "\u2028", "\x00"]
# Blank lines: each is emptied by str.strip().
BLANKS = ["", " ", "\t\t", " \t \t ", "\x0b", "\x1c\x1d\x1e\x1f", "\u00a0", "\u3000\t\u2028",
          "\u0085\u1680\u200a\u202f\u205f"]


def random_ids(rng: np.random.Generator, n: int, fixed: list[str]) -> list[str]:
    """``fixed`` and then random distinct ids of 1-20 UTF-8 bytes, up to ``n``."""
    ids = dict.fromkeys(fixed)
    while len(ids) < n:
        raw = "".join(ID_PIECES[i] for i in rng.integers(len(ID_PIECES), size=rng.integers(1, 9)))
        if 1 <= len(raw.encode("utf-8")) <= 20:
            ids[raw] = None
    return list(ids)


# Prefixes of each other, U+0000 at the end and inside, spaces at either
# end, and 7, 8, 15, 16 and 20 bytes, on both sides of a word boundary.
FIXED_ENTITIES = ["e1", "e10", "e100", "e1\x00", "e\x001", " e1", "e1 ", "abcdefg", "abcdefgh",
                  "abcdefghijklmno", "abcdefghijklmnop", "abcdefghijklmnopqrst", "\u00a2\u2192"]
FIXED_RELATIONS = ["r", "r1", "r\x00", "\u3001"]


def random_triple_file(rng: np.random.Generator, entities: list[str],
                       relations: list[str], n: int) -> str:
    """``n`` triples over the given ids with blank lines between them,
    ``\\n``, ``\\r\\n`` and lone ``\\r`` endings and, in some files, no
    final newline."""
    lines = []
    for _ in range(n):
        while rng.random() < 0.15:
            lines.append(BLANKS[rng.integers(len(BLANKS))])
        lines.append("\t".join([entities[rng.integers(len(entities))],
                                relations[rng.integers(len(relations))],
                                entities[rng.integers(len(entities))]]))
    endings = ["\n", "\r\n", "\r"]
    text = "".join(line + endings[rng.integers(3)] for line in lines)
    return text if rng.random() < 0.5 else text.rstrip("\r\n")


class TestColumnarTriples:
    """``_read_triples`` against the ``str``-column reader it replaced."""

    def _indexes(self, tmp_path, rng):
        entities = random_ids(rng, 60, FIXED_ENTITIES)
        relations = random_ids(rng, 8, FIXED_RELATIONS)
        return (entities, relations, id_column(tmp_path, entities)[0],
                id_column(tmp_path, relations)[0])

    @staticmethod
    def _dicts(entities, relations):
        return ({raw: i for i, raw in enumerate(entities)},
                {raw: i for i, raw in enumerate(relations)})

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_str_reader(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        entities, relations, entity_index, relation_index = self._indexes(tmp_path, rng)
        path = tmp_path / "train.txt"
        path.write_bytes(random_triple_file(rng, entities, relations,
                                            int(rng.integers(0, 80))).encode("utf-8"))
        got = _read_triples(path, entity_index, relation_index)
        want = data_reference.read_triples(path, *self._dicts(entities, relations))
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_every_id_is_drawn(self, tmp_path):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            entities, relations, _, _ = self._indexes(tmp_path, rng)
            text = random_triple_file(rng, entities, relations, 400)
            assert all(raw in text for raw in FIXED_ENTITIES + FIXED_RELATIONS)
            assert "\r\n" in text and "\r" in text.replace("\r\n", "")  # and a lone \r
            lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            assert {line for line in lines if not line.strip()} == set(BLANKS)

    @pytest.mark.parametrize("text", ["", "\n\n", " \r\n\t\t\r\u3000\n", "\u00a0"])
    def test_files_with_no_triples(self, tmp_path, text):
        path = tmp_path / "train.txt"
        path.write_bytes(text.encode("utf-8"))
        (entity_index, _), (relation_index, _) = (id_column(tmp_path, ["e1"]),
                                                  id_column(tmp_path, ["r1"]))
        got = _read_triples(path, entity_index, relation_index)
        assert got.dtype == np.int64 and got.shape == (0, 3)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("fault", [
        "abcdefgx\tr\te1", "e1\tr2x\te10", "e1\tr\tabcdef", "e1\tr\tabcdefg\x00",
        "e1\tr\t" + "y" * 30, "e1\tr", "e1\tr\te1\te1", "\u00a0\te1",
    ], ids=["head", "relation", "tail_prefix", "tail_nul", "tail_too_long",
            "two_columns", "four_columns", "space_and_id"])
    def test_errors_match_str_reader(self, tmp_path, seed, fault):
        rng = np.random.default_rng(seed)
        entities, relations, entity_index, relation_index = self._indexes(tmp_path, rng)
        lines = random_triple_file(rng, entities, relations, 30).split("\n")
        at = int(rng.integers(0, len(lines) + 1))
        lines[at:at] = ["", " \t ", "\u3000", fault]  # after blank lines
        path = tmp_path / "valid.txt"
        path.write_bytes("\n".join(lines).encode("utf-8"))
        with pytest.raises(DataError) as want:
            data_reference.read_triples(path, *self._dicts(entities, relations))
        with pytest.raises(DataError) as got:
            _read_triples(path, entity_index, relation_index)
        assert str(got.value) == str(want.value)
        assert (got.value.path, got.value.line_no) == (want.value.path, want.value.line_no)

    def test_ids_whose_digests_collide(self, tmp_path):
        """Two 16-byte ids whose three-word keys share a digest are each
        found as themselves."""
        rng = np.random.default_rng(0)
        while True:  # random printable words until the two ids' digests are equal
            a, b, c = (bytes(rng.integers(0x21, 0x7F, 8).tolist()) for _ in range(3))
            d = ((int.from_bytes(a, "little") - int.from_bytes(c, "little"))
                 * int(_DIGEST_MULTIPLIER) + int.from_bytes(b, "little")) % 2**64
            if all(0x21 <= byte < 0x7F for byte in d.to_bytes(8, "little")):
                break
        pair = [(a + b).decode(), (c + d.to_bytes(8, "little")).decode()]
        entities = ["e1", pair[0], "zz", pair[1]]
        index, _ = id_column(tmp_path, entities)
        assert index.width == 3 and index.most_sharing == 2
        assert len(set(_digest(index.keys).tolist())) == 3
        near = pair[1][:-1] + chr(ord(pair[1][-1]) ^ 1)
        _, fields = id_column(tmp_path, entities + [near])
        assert index.lookup(*fields).tolist() == [0, 1, 2, 3, -1]
        path = tmp_path / "train.txt"
        path.write_text(f"{pair[1]}\tr\t{pair[0]}\n{pair[0]}\tr\t{pair[1]}\n", encoding="utf-8")
        relation_index, _ = id_column(tmp_path, ["r"])
        assert _read_triples(path, index, relation_index).tolist() == [[3, 0, 1], [1, 0, 3]]

    def test_blank_lines_are_what_strip_empties(self):
        """Every character but the line breaks, alone on a line and beside
        a space."""
        chars = [chr(c) for c in range(sys.maxunicode + 1)
                 if chr(c) not in "\n\r" and not 0xD800 <= c < 0xE000]
        for pad in ("", " \u3000"):
            lines = [pad + c for c in chars]
            data = "\n".join(lines).encode("utf-8")
            _, _, nonblank = _lines(data, len(data))
            assert nonblank.tolist() == [bool(line.strip()) for line in lines]

    def test_no_object_per_line(self, tmp_path):
        """Reading 50,000 triples peaks below 10 times the file's size
        (the ``str`` reader peaks at ~11.5 times)."""
        rng = np.random.default_rng(0)
        entities = [f"{i:08d}" for i in range(5000)]
        relations = [f"_relation_{i}" for i in range(11)]
        path = tmp_path / "train.txt"
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(f"{entities[h]}\t{relations[r]}\t{entities[t]}\n"
                         for h, r, t in zip(rng.integers(0, 5000, 50000),
                                            rng.integers(0, 11, 50000),
                                            rng.integers(0, 5000, 50000)))
        (entity_index, _), (relation_index, _) = (id_column(tmp_path, entities),
                                                  id_column(tmp_path, relations))
        tracemalloc.start()
        try:
            triples = _read_triples(path, entity_index, relation_index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert triples.shape == (50000, 3)
        assert peak < 10 * os.path.getsize(path)


DATASET_FILES = (ENTITY_FILE, RELATION_FILE, *SPLIT_FILES.values())


class TestRoundTripBytes:
    @pytest.mark.parametrize("source", ["fixture", "text_toy"])
    def test_second_write_is_byte_identical(self, tmp_path, source):
        if source == "fixture":
            directory = FIXTURE
        else:
            directory = tmp_path / "toy"
            write_dataset(make_text_toy(num_entities=30, num_relations=3,
                                        num_triples=60, seed=2), directory)
        passes = []
        for i in range(2):
            ds = load_dataset(directory)
            directory = tmp_path / f"pass{i}"
            write_dataset(ds, directory)
            passes.append({name: (directory / name).read_bytes() for name in DATASET_FILES})
        assert passes[0] == passes[1]
        assert all(passes[1][name] for name in (ENTITY_FILE, RELATION_FILE, "train.txt"))

    def test_build_vocab_bytes_on_the_fixture(self, tmp_path, capsys):
        out = tmp_path / "vocab.tsv"
        assert main(["build-vocab", "--dataset", FIXTURE, "--out", str(out)]) == 0
        # the digest the per-line reader's build wrote
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7b768406b4aaccc2bbe6c6482841e4483e7081311790192be5fa14fc6b40902b")


class TestCorpus:
    def test_counts_reflect_occurrences(self):
        ds = load_dataset(FIXTURE)
        texts = list(corpus_texts(ds.graph))
        # entity /a heads two train triples, so its name shows up there
        # plus in two inverse triples as the tail side
        assert texts.count("alpha") == 4

    def test_tokenizer_includes_frequent_tokens(self):
        ds = load_dataset(FIXTURE)
        tok = build_tokenizer(ds.graph, min_freq=2)
        assert "alpha" in tok.token_to_id
        assert "linked" in tok.token_to_id
        assert "inverse" in tok.token_to_id  # from the inverse rendering


def _write_minimal(directory, entities=None, relations=None, train=None):
    os.makedirs(directory, exist_ok=True)
    (directory / "entities.txt").write_text(
        entities if entities is not None else "e1\tentity one\tdesc\ne2\tentity two\tdesc\nghostless\tthird\t\n",
        encoding="utf-8",
    )
    (directory / "relations.txt").write_text(
        relations if relations is not None else "r1\trelation one\n",
        encoding="utf-8",
    )
    (directory / "train.txt").write_text(
        train if train is not None else "e1\tr1\te2\n", encoding="utf-8"
    )
