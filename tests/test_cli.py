import pytest

from structkgc import cli
from structkgc.cli import main
from structkgc.data import load_dataset
from structkgc.evaluation import ModelScorer, miou
from structkgc.toygen import make_text_toy, write_toy_dataset

from scorers import encode_one_query
from test_evaluation import reference_evaluate

TOY_CONFIG = """
struct_dim = 8
layers = 1
hidden_dim = 16
heads = 2
max_len = 16
epochs = 1
batch_size = 8
lr = 1e-3
queue_capacity = 16
hardest_k = 4
mh_count = 4
ir_count = 1
beta = 0.5
seed = 0
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "toy"
    toy = make_text_toy(num_entities=10, num_relations=2, num_triples=16, seed=0)
    write_toy_dataset(toy, data_dir)
    cfg_path = root / "toy.cfg"
    cfg_path.write_text(TOY_CONFIG + f"dataset = {data_dir}\n")
    ckpt = root / "model.ckpt"
    code = main(["train", "--config", str(cfg_path), "--out", str(ckpt)])
    assert code == 0
    return {"root": root, "data": data_dir, "config": cfg_path, "ckpt": ckpt}


class TestTrain:
    def test_artifacts_written(self, workspace):
        assert workspace["ckpt"].exists()
        assert (workspace["root"] / "model.ckpt.vocab.tsv").exists()
        metrics = (workspace["root"] / "model.ckpt.metrics.tsv").read_text()
        lines = metrics.strip().splitlines()
        assert lines[0].split("\t") == [
            "epoch", "mean_loss", "tau", "lr", "queue_fill", "irns_fallback_rate",
        ]
        assert len(lines) == 2  # header + 1 epoch

    def test_deterministic_checkpoints(self, workspace, tmp_path):
        out_a, out_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (out_a, out_b):
            code = main([
                "train", "--config", str(workspace["config"]),
                "--seed", "7", "--out", str(out),
            ])
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_dataset_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dataset = /nonexistent/dir\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error\tusage" in capsys.readouterr().err

    def test_invalid_config_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hidden_dim = 30\nheads = 4\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error\tinput" in capsys.readouterr().err


class TestEval:
    def test_eval_prints_report(self, workspace, capsys):
        code = main([
            "eval", "--dataset", str(workspace["data"]),
            "--checkpoint", str(workspace["ckpt"]), "--split", "test",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "MRR\t" in out and "Hits@10\t" in out

    def test_eval_writes_detail_file(self, workspace, tmp_path, capsys):
        detail = tmp_path / "detail.tsv"
        code = main([
            "eval", "--dataset", str(workspace["data"]),
            "--checkpoint", str(workspace["ckpt"]), "--split", "test",
            "--detail", str(detail),
        ])
        assert code == 0
        lines = detail.read_text().strip().splitlines()
        ds = load_dataset(workspace["data"])
        assert len(lines) == len(ds.graph.triples("test")) + 1

    def test_missing_checkpoint_names_artifact(self, workspace, capsys):
        code = main([
            "eval", "--dataset", str(workspace["data"]), "--checkpoint", "none",
        ])
        err = capsys.readouterr().err
        assert code != 0
        assert "error\tusage" in err and "checkpoint" in err

    def test_eval_deterministic_output(self, workspace, capsys):
        args = [
            "eval", "--dataset", str(workspace["data"]),
            "--checkpoint", str(workspace["ckpt"]), "--split", "test",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestMiou:
    def test_matches_library_value(self, workspace, capsys):
        code = main(["miou", "--dataset", str(workspace["data"])])
        out = capsys.readouterr().out
        assert code == 0
        printed = float(out.splitlines()[0].split("\t")[1])
        ds = load_dataset(workspace["data"])
        expected, _ = miou(ds.graph)
        assert printed == pytest.approx(expected, abs=1e-6)

    def test_split_option_picks_the_compared_split(self, tmp_path, capsys):
        # train and valid share e(r) = {1, 3} and e(r^-1) = {0, 2}; test does not
        files = {
            "entities.txt": "".join(f"e{i}\tentity {i}\t\n" for i in range(6)),
            "relations.txt": "r\trel\n",
            "train.txt": "e0\tr\te1\ne2\tr\te3\n",
            "valid.txt": "e0\tr\te3\ne2\tr\te1\n",
            "test.txt": "e4\tr\te5\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        for split, want in (("valid", "1.000000"), ("test", "0.000000")):
            assert main(["miou", "--dataset", str(tmp_path), "--split", split]) == 0
            assert capsys.readouterr().out.splitlines()[0] == f"MIOU\t{want}"


class TestSweepAndExport:
    def test_rerank_sweep_table(self, workspace, capsys):
        code = main([
            "rerank-sweep", "--dataset", str(workspace["data"]),
            "--checkpoint", str(workspace["ckpt"]), "--split", "test",
            "--alphas", "0,0.1", "--regimes", "none,train",
        ])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0].startswith("regime\talpha")
        assert len(out) == 1 + 1 + 2  # header, none@0, train@{0,0.1}

    def test_export_predictions_format(self, workspace, tmp_path, capsys):
        out_file = tmp_path / "preds.tsv"
        code = main([
            "export-predictions", "--dataset", str(workspace["data"]),
            "--checkpoint", str(workspace["ckpt"]), "--split", "test",
            "--out", str(out_file),
        ])
        assert code == 0
        ds = load_dataset(workspace["data"])
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == len(ds.graph.triples("test"))
        inverse_seen = False
        for line in lines:
            cols = line.split("\t")
            assert 3 <= len(cols) <= 12
            assert cols[0] in ds.entity_raw_ids
            if cols[1].startswith("inverse:"):
                inverse_seen = True
        assert inverse_seen  # head-direction queries exported too


class TestEmptySplit:
    # the toy writes no valid triples, and valid is rerank-sweep's default split
    @pytest.mark.parametrize("command,extra", [
        ("eval", ["--split", "valid"]),
        ("rerank-sweep", []),
        ("export-predictions", ["--split", "valid"]),
    ])
    def test_is_a_usage_error_naming_the_split(self, workspace, tmp_path, capsys,
                                               command, extra):
        out = tmp_path / "preds.tsv"
        argv = [command, "--dataset", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]), *extra]
        if command == "export-predictions":
            argv += ["--out", str(out)]
        assert load_dataset(workspace["data"]).graph.triples("valid").size == 0
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error\tusage\t")
        assert "'valid'" in err and "--split" in err
        assert not out.exists()


class TestNonFiniteOptions:
    @pytest.mark.parametrize("command,option,value", [
        ("eval", "--beta", "nan"),
        ("eval", "--alpha", "nan"),
        ("eval", "--alpha", "inf"),
        ("rerank-sweep", "--alphas", "0,nan"),
        ("rerank-sweep", "--beta", "-inf"),
        ("export-predictions", "--beta", "inf"),
    ])
    def test_is_a_usage_error_naming_the_option(self, workspace, tmp_path, capsys,
                                                command, option, value):
        out = tmp_path / "preds.tsv"
        argv = [command, "--dataset", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]), "--split", "test",
                f"{option}={value}"]
        if command == "export-predictions":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,option,value", [
        ("eval", "--alpha", "-0.1"),
        ("rerank-sweep", "--alphas", "0,-0.1"),
        ("rerank-sweep", "--alphas", "-0.5"),
    ])
    def test_negative_penalty_is_a_usage_error_naming_the_option(
            self, workspace, capsys, command, option, value):
        argv = [command, "--dataset", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]), "--split", "test",
                option, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"argument {option}: expected a non-negative number" in captured.err
        assert captured.out == ""

    def test_config_key_is_an_input_error_naming_the_key(self, workspace, tmp_path,
                                                         capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(workspace["config"].read_text() + "lr = nan\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 2
        assert capsys.readouterr().err.startswith("error\tinput\tlr must be a finite")


class TestOptionsCheckedWhenParsed:
    """Split, regime and --min-freq values are argparse types: a bad one
    is a one-line usage error naming the option, raised before any file
    is read (the dataset and checkpoint below do not exist)."""

    @pytest.mark.parametrize("command,option,value", [
        ("eval", "--filter-splits", "train,bogus"),
        ("eval", "--rerank-splits", "bogus"),
        ("rerank-sweep", "--filter-splits", "bogus"),
        ("rerank-sweep", "--regimes", "train,bogus"),
        ("export-predictions", "--filter-splits", "bogus"),
    ])
    def test_unknown_split_or_regime(self, tmp_path, capsys, command, option, value):
        what = "regimes" if option == "--regimes" else "splits"
        detail = f"unknown {what} ['bogus']"
        out = tmp_path / "preds.tsv"
        argv = [command, "--dataset", str(tmp_path / "missing"),
                "--checkpoint", str(tmp_path / "missing.ckpt"), option, value]
        if command == "export-predictions":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error\tusage\targument {option}: {detail}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_min_freq_below_one(self, tmp_path, capsys, value):
        out = tmp_path / "vocab.tsv"
        argv = ["build-vocab", "--dataset", str(tmp_path / "missing"),
                "--out", str(out), f"--min-freq={value}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error\tusage\targument --min-freq: expected an integer of at least 1, "
            f"got '{value}'\n"
        )
        assert not out.exists()


class TestOneLineUsageErrors:
    def test_bad_option_value_is_exactly_one_line(self, capsys):
        argv = ["eval", "--dataset", "d", "--checkpoint", "c", "--alpha", "nan"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error\tusage\targument --alpha: expected a finite number, got 'nan'\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("argv,detail", [
        (["eval", "--dataset", "d", "--checkpoint", "c", "--split", "dev"],
         "argument --split: invalid choice"),
        (["build-vocab", "--dataset", "d"],
         "the following arguments are required: --out"),
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice"),
        (["train", "--epochs", "3"], "unrecognized arguments: --epochs 3"),
    ])
    def test_argparse_errors_use_the_error_line(self, capsys, argv, detail):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error\tusage\t{detail}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
    def test_help_still_exits_zero(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: structkgc")


class TestBuildVocab:
    def test_writes_sorted_vocab(self, workspace, tmp_path, capsys):
        out = tmp_path / "vocab.tsv"
        code = main([
            "build-vocab", "--dataset", str(workspace["data"]),
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        ids = [int(line.split("\t")[1]) for line in lines]
        assert ids == list(range(len(ids)))
        assert lines[0].split("\t")[0] == "[PAD]"


class ReferenceScorer(ModelScorer):
    """Scores every query alone through the live model: each text query is
    encoded by itself, and structure is scored with no cached table.  Only
    the tail text matrix is the scorer's."""

    def __init__(self, model, graph, tokenizer, pairs, mode="text", beta=0.5):
        super().__init__(model, graph, tokenizer, pairs, mode=mode, beta=beta)
        self.live, self.graph, self.tokenizer = model, graph, tokenizer

    def scores(self, head, relation):
        struct = (None if self.mode == "text"
                  else self.live.struct_scores_all_tails(head, relation))
        if self.mode == "struct":
            return struct
        text = self._tail_matrix @ encode_one_query(self.live, self.graph, self.tokenizer,
                                                    head, relation)
        return text if struct is None else text + self.beta * struct


class TestMatchesReferencePath:
    def _outputs(self, workspace, directory, mode, eval_extra):
        detail, preds = directory / "detail.tsv", directory / "preds.tsv"
        common = [
            "--dataset", str(workspace["data"]), "--checkpoint", str(workspace["ckpt"]),
            "--split", "test", "--score-mode", mode,
        ]
        assert main(["eval", *common, *eval_extra, "--detail", str(detail)]) == 0
        assert main(["export-predictions", *common, "--out", str(preds)]) == 0
        return detail.read_bytes(), preds.read_bytes()

    @pytest.mark.parametrize("mode,eval_extra", [
        ("text", []),
        ("struct", ["--alpha", "0.1"]),
        ("combined", ["--alpha", "0.2", "--rerank-splits", "train,valid"]),
    ])
    def test_detail_and_export_byte_identical(self, workspace, tmp_path, monkeypatch,
                                              capsys, mode, eval_extra):
        (tmp_path / "new").mkdir()
        (tmp_path / "ref").mkdir()
        got = self._outputs(workspace, tmp_path / "new", mode, eval_extra)
        monkeypatch.setattr(cli, "evaluate", reference_evaluate)
        monkeypatch.setattr(cli, "ModelScorer", ReferenceScorer)
        want = self._outputs(workspace, tmp_path / "ref", mode, eval_extra)
        assert got == want
