import hashlib
import os

import numpy as np
import pytest

from structkgc.cli import main
from structkgc.data import (
    ENTITY_FILE,
    RELATION_FILE,
    SPLIT_FILES,
    DataError,
    _read_vocabulary,
    build_tokenizer,
    corpus_texts,
    load_dataset,
    write_dataset,
)
from structkgc.toygen import make_text_toy, write_toy_dataset

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

    def test_round_trip_preserves_triple_multisets(self, tmp_path):
        ds = load_dataset(FIXTURE)
        out_dir = tmp_path / "again"
        write_dataset(ds.graph, ds.entity_raw_ids, ds.relation_raw_ids, out_dir)
        ds2 = load_dataset(out_dir)
        for split in ("train", "valid", "test"):
            assert sorted(ds.graph.triples(split).tolist()) == sorted(
                ds2.graph.triples(split).tolist())
        assert ds.entity_raw_ids == ds2.entity_raw_ids
        assert ds.relation_raw_ids == ds2.relation_raw_ids


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


class TestColumnarVocabulary:
    """``_read_vocabulary`` against the per-line reader it replaced."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_line_reader(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "entities.txt"
        path.write_text(random_vocabulary(rng, int(rng.integers(1, 60))),
                        encoding="utf-8", newline="")
        names, descriptions, raw_ids, ids = _read_vocabulary(path, "entity")
        records, want_raw, want_ids = data_reference.read_vocabulary(path, "entity")
        assert names == [r.name for r in records]
        assert descriptions == [r.description for r in records]
        assert raw_ids == want_raw
        assert ids == want_ids

    def test_layouts_are_all_drawn(self):
        text = "\n".join(random_vocabulary(np.random.default_rng(s), 40) for s in range(12))
        lines = text.replace("\r\n", "\n").split("\n")
        assert {line.count("\t") for line in lines if line.strip()} == {0, 1, 2}
        assert "\r\n" in text and any(not line.strip() for line in lines)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "entities.txt"
        path.write_text("\n \n", encoding="utf-8")
        assert _read_vocabulary(path, "entity") == ([], [], [], {})

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fault", ["four_columns", "late_duplicate",
                                       "duplicate_before_four_columns"])
    def test_errors_match_per_line_reader(self, tmp_path, seed, fault):
        rng = np.random.default_rng(seed)
        lines = random_vocabulary(rng, 30).split("\n")
        late = len(lines) - 1 - int(rng.integers(0, 3))
        if fault == "four_columns":
            lines.insert(late, "id9\tname\tdesc\textra")
        elif fault == "late_duplicate":
            raw = [line.split("\t")[0].rstrip("\r") for line in lines if line.strip()][3]
            lines.insert(late, f"{raw}\tagain")
        else:
            lines.insert(2, "id0\tagain")
            lines.insert(late, "a\tb\tc\td\te")
        path = tmp_path / "relations.txt"
        path.write_text("\n".join(lines), encoding="utf-8", newline="")
        with pytest.raises(DataError) as want:
            data_reference.read_vocabulary(path, "relation")
        with pytest.raises(DataError) as got:
            _read_vocabulary(path, "relation")
        assert str(got.value) == str(want.value)
        assert (got.value.path, got.value.line_no) == (want.value.path, want.value.line_no)


DATASET_FILES = (ENTITY_FILE, RELATION_FILE, *SPLIT_FILES.values())


class TestRoundTripBytes:
    @pytest.mark.parametrize("source", ["fixture", "text_toy"])
    def test_second_write_is_byte_identical(self, tmp_path, source):
        if source == "fixture":
            directory = FIXTURE
        else:
            directory = tmp_path / "toy"
            write_toy_dataset(make_text_toy(num_entities=30, num_relations=3,
                                            num_triples=60, seed=2), directory)
        passes = []
        for i in range(2):
            ds = load_dataset(directory)
            directory = tmp_path / f"pass{i}"
            write_dataset(ds.graph, ds.entity_raw_ids, ds.relation_raw_ids, directory)
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
