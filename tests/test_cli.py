import argparse
import os
import shutil
import subprocess
import sys

import pytest

from structkgc import cli, evaluation
from structkgc.checkpoint import save_checkpoint
from structkgc.cli import main
from structkgc.data import build_tokenizer, load_dataset, write_dataset
from structkgc.evaluation import ModelScorer, miou
from structkgc.model import Model, ModelConfig
from structkgc.text import tokenize_entity
from structkgc.toygen import make_text_toy

from scorers import encode_one_query, serial_encode_in_chunks, serial_evaluate
from test_evaluation import reference_evaluate, varied_length_toy

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


def fresh_env(blas_threads: int) -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    ``src`` and runs BLAS on ``blas_threads`` threads."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
                OMP_NUM_THREADS=str(blas_threads),
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "toy"
    toy = make_text_toy(num_entities=10, num_relations=2, num_triples=16, seed=0)
    write_dataset(toy, data_dir)
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

    def test_bytes_equal_across_fresh_processes(self, workspace, tmp_path):
        # same seed and BLAS thread count, two interpreters: checkpoint and
        # metrics bytes are equal
        for run in ("a", "b"):
            subprocess.run([sys.executable, "-m", "structkgc.cli", "train", "--config",
                            str(workspace["config"]), "--out", str(tmp_path / f"{run}.ckpt")],
                           env=fresh_env(1), check=True, capture_output=True)
        for name in ("ckpt", "ckpt.metrics.tsv"):
            assert (tmp_path / f"a.{name}").read_bytes() == (tmp_path / f"b.{name}").read_bytes()

    @pytest.mark.parametrize("option", [[], ["--dataset", ""]])
    def test_missing_dataset_is_usage_error(self, workspace, tmp_path, capsys, option):
        # an empty --dataset overrides the config's dataset, as any other does
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dataset = /nonexistent/dir\n" if not option
                       else workspace["config"].read_text())
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x"), *option])
        assert code == 2
        assert capsys.readouterr().err.startswith("error\tusage\tdataset directory not found")

    @pytest.mark.parametrize("line,message", [
        ("heads = 0", "heads must be at least 1, got 0"),
        ("hidden_dim = 0", "hidden_dim must be at least 1, got 0"),
        ("struct_dim = 0", "struct_dim must be at least 1, got 0"),
        ("layers = 0", "layers must be at least 1, got 0"),
        ("max_len = 2", "max_len must be at least 3 for a [CLS] ... [SEP] ... [SEP] "
                        "query, got 2"),
    ])
    def test_a_size_that_cannot_build_is_refused_before_the_dataset_is_read(
            self, workspace, tmp_path, capsys, no_work, line, message):
        key = line.split(" ")[0]
        text = "".join(row + "\n" for row in workspace["config"].read_text().splitlines()
                       if not row.startswith(key + " "))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + line + "\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error\tinput\t{message}\n"
        assert sorted(tmp_path.iterdir()) == [cfg]

    def test_a_tau_min_whose_loss_overflows_is_refused_before_the_dataset_is_read(
            self, workspace, tmp_path, capsys, no_work):
        # 8 in-batch + 4 momentum-hard + 1 intra-relation terms per loss row:
        # at tau 0.001 the toy's training stopped on a non-finite loss
        cfg = tmp_path / "run.cfg"
        cfg.write_text(workspace["config"].read_text() + "tau_init = 0.001\ntau_min = 0.001\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error\tinput\ttau_min must be at least 0.00141399 for 13 terms per loss row, "
            "got 0.001")
        assert sorted(tmp_path.iterdir()) == [cfg]

    def test_invalid_config_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hidden_dim = 30\nheads = 4\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error\tinput" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["option", "config"])
    def test_negative_seed_is_input_error(self, workspace, tmp_path, capsys, route):
        text = workspace["config"].read_text()
        cfg = tmp_path / "run.cfg"
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "m")]
        if route == "option":
            argv += ["--seed", "-1"]
        else:
            text = text.replace("seed = 0\n", "seed = -1\n")
        cfg.write_text(text)
        assert main(argv) == 2
        assert capsys.readouterr().err == "error\tinput\tseed must be non-negative, got -1\n"
        assert not (tmp_path / "m").exists()


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


class TestFreshProcesses:
    @pytest.mark.parametrize("mode", ["text", "combined"])
    def test_eval_bytes_equal_across_blas_thread_counts(self, workspace, tmp_path, mode):
        # the threaded text-table build relies on this: a row's bytes do not
        # depend on how many threads BLAS runs
        outputs = []
        for threads in (1, 2):
            detail = tmp_path / f"detail{threads}.tsv"
            run = subprocess.run(
                [sys.executable, "-m", "structkgc.cli", "eval", "--dataset",
                 str(workspace["data"]), "--checkpoint", str(workspace["ckpt"]),
                 "--split", "test", "--score-mode", mode, "--detail", str(detail)],
                env=fresh_env(threads), check=True, capture_output=True)
            outputs.append((run.stdout, detail.read_bytes()))
        assert b"MRR\t" in outputs[0][0]
        assert outputs[0] == outputs[1]

    def test_struct_eval_over_several_blocks_equals_the_serial_loop(
            self, tmp_path, monkeypatch, capsys):
        # the 68 train queries of this toy make five score blocks, so helper
        # threads rank some of them: the bytes are the same at 1 and 2 BLAS
        # threads, and the same as the serial block loop's in this process
        data = tmp_path / "toy"
        write_dataset(make_text_toy(num_entities=30, num_relations=3, num_triples=40,
                                    seed=1), data)
        graph = load_dataset(data).graph
        assert len(graph.triples("train")) >= 3 * evaluation.SCORE_BLOCK
        ckpt = tmp_path / "struct.ckpt"
        save_checkpoint(str(ckpt), Model(ModelConfig(graph.num_entities,
                                                     graph.num_base_relations,
                                                     struct_dim=8, use_text=False), seed=0))
        argv = ["eval", "--dataset", str(data), "--checkpoint", str(ckpt), "--split",
                "train", "--score-mode", "struct", "--alpha", "0.1", "--detail"]
        outputs = []
        for threads in (1, 2):
            detail = tmp_path / f"detail{threads}.tsv"
            run = subprocess.run([sys.executable, "-m", "structkgc.cli", *argv, str(detail)],
                                 env=fresh_env(threads), check=True, capture_output=True)
            outputs.append((run.stdout, detail.read_bytes()))
        monkeypatch.setattr(cli, "evaluate", serial_evaluate)
        detail = tmp_path / "serial.tsv"
        assert main([*argv, str(detail)]) == 0
        serial = (capsys.readouterr().out.encode(), detail.read_bytes())
        assert b"MRR\t" in serial[0]
        assert outputs[0] == outputs[1] == serial

    @pytest.mark.parametrize("mode", ["text", "combined"])
    def test_text_eval_over_several_chunks_equals_the_serial_loop(
            self, tmp_path, monkeypatch, capsys, mode):
        # descriptions of 1 to 20 words: at max_len 16 the token budget
        # cuts the 120 entities into at least 5 chunks, so helper threads
        # encode some of them; the bytes are the same at 1 and 2 BLAS
        # threads, and the same as the serial chunk and block loops' in
        # this process
        data = tmp_path / "toy"
        write_dataset(varied_length_toy(120, 3, 160, seed=2), data)
        graph = load_dataset(data).graph
        tokenizer = build_tokenizer(graph)
        model = Model(ModelConfig(graph.num_entities, graph.num_base_relations, struct_dim=8,
                                  layers=1, hidden_dim=16, heads=2, max_len=16,
                                  vocab_size=len(tokenizer)), seed=0)
        longest = max(len(tokenize_entity(tokenizer, graph, e, 16))
                      for e in range(graph.num_entities))
        assert graph.num_entities > 4 * (evaluation.ENCODE_TOKENS // longest)
        ckpt = tmp_path / "text.ckpt"
        save_checkpoint(str(ckpt), model)
        tokenizer.save(str(ckpt) + ".vocab.tsv")
        argv = ["eval", "--dataset", str(data), "--checkpoint", str(ckpt), "--split", "test",
                "--score-mode", mode, "--alpha", "0.1", "--detail"]
        outputs = []
        for threads in (1, 2):
            detail = tmp_path / f"detail{threads}.tsv"
            run = subprocess.run([sys.executable, "-m", "structkgc.cli", *argv, str(detail)],
                                 env=fresh_env(threads), check=True, capture_output=True)
            outputs.append((run.stdout, detail.read_bytes()))
        monkeypatch.setattr(evaluation, "_encode_in_chunks", serial_encode_in_chunks)
        monkeypatch.setattr(cli, "evaluate", serial_evaluate)
        detail = tmp_path / "serial.tsv"
        assert main([*argv, str(detail)]) == 0
        serial = (capsys.readouterr().out.encode(), detail.read_bytes())
        assert b"MRR\t" in serial[0]
        assert outputs[0] == outputs[1] == serial

    @pytest.mark.parametrize("mode,loads_scipy", [("struct", False), ("text", True)])
    def test_only_the_text_path_imports_scipy(self, workspace, mode, loads_scipy):
        script = ("import sys; from structkgc.cli import main; "
                  "code = main(sys.argv[1:]); print(code, 'scipy.special' in sys.modules)")
        run = subprocess.run(
            [sys.executable, "-c", script, "eval", "--dataset", str(workspace["data"]),
             "--checkpoint", str(workspace["ckpt"]), "--split", "test",
             "--score-mode", mode],
            env=fresh_env(1), check=True, capture_output=True, text=True)
        assert run.stdout.splitlines()[-1] == f"0 {loads_scipy}"


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

    def test_split_with_no_triples_is_a_usage_error(self, workspace, capsys):
        assert load_dataset(workspace["data"]).graph.triples("valid").size == 0
        assert main(["miou", "--dataset", str(workspace["data"]), "--split", "valid"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error\tusage\tsplit 'valid' has no triples")
        assert "--split" in captured.err


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

    def test_a_grid_with_no_rows_is_a_usage_error(self, workspace, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dataset read for a grid with no rows")
        monkeypatch.setattr(cli, "load_dataset", refuse)
        code = main([
            "rerank-sweep", "--dataset", str(workspace["data"]),
            "--checkpoint", str(workspace["ckpt"]), "--regimes", "none",
            "--alphas", "0.1,0.2",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error\tusage\t")
        assert "--regimes" in captured.err and "--alphas" in captured.err
        assert captured.err.count("\n") == 1

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
        cfg.write_text(workspace["config"].read_text().replace("lr = 1e-3\n", "lr = nan\n"))
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

    @pytest.mark.parametrize("command,option", [
        ("eval", "--rerank-splits"),
        ("rerank-sweep", "--regimes"),
    ])
    def test_empty_split_or_regime_list(self, tmp_path, capsys, command, option):
        what = "regimes" if option == "--regimes" else "splits"
        argv = [command, "--dataset", str(tmp_path / "missing"),
                "--checkpoint", str(tmp_path / "missing.ckpt"), option, ","]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error\tusage\targument {option}: expected one or more {what} from ")
        assert captured.err.endswith(", got ','\n")
        assert captured.out == ""

    @pytest.mark.parametrize("value", [",", ""])
    def test_empty_penalty_list(self, tmp_path, capsys, value):
        argv = ["rerank-sweep", "--dataset", str(tmp_path / "missing"),
                "--checkpoint", str(tmp_path / "missing.ckpt"), "--alphas", value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error\tusage\targument --alphas: expected one or more "
                                f"non-negative numbers, got {value!r}\n")
        assert captured.out == ""

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


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the paths were checked")
    monkeypatch.setattr("structkgc.training.Trainer.train", refuse)
    monkeypatch.setattr(cli, "evaluate", refuse)
    monkeypatch.setattr(cli, "build_tokenizer", refuse)
    monkeypatch.setattr(cli, "load_dataset", refuse)
    monkeypatch.setattr(cli, "load_model", refuse)


class TestPathsTheOsRefuses:
    """A path that cannot be read or written, here a directory, is a usage
    error on one line, not a traceback.  An output path is checked before
    any work: nothing is printed, trained, ranked or written."""

    @staticmethod
    def _refused(argv, path, tmp_path, capsys):
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error\tusage\t")
        assert str(path) in captured.err
        assert captured.err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before  # no checkpoint, vocabulary, metrics or .tmp

    @pytest.mark.parametrize("command,option", [
        ("train", "--out"), ("train", "--metrics"), ("eval", "--detail"), ("eval", "--vocab"),
    ])
    def test_a_directory_is_a_usage_error(self, workspace, tmp_path, capsys, no_work,
                                          command, option):
        directory = tmp_path / "dir"
        directory.mkdir()
        if command == "train":
            argv = ["train", "--config", str(workspace["config"])]
            if option != "--out":
                argv += ["--out", str(tmp_path / "m.ckpt")]
        else:
            argv = ["eval", "--dataset", str(workspace["data"]),
                    "--checkpoint", str(workspace["ckpt"])]
        self._refused(argv + [option, str(directory)], directory, tmp_path, capsys)

    @pytest.mark.parametrize("command_line,directory,refused", [
        ("train --config {config} --out {tmp}/no/m.ckpt", None, "no/m.ckpt"),
        ("train --config {config} --out {tmp}/m.ckpt --metrics {tmp}/no/m.tsv", None, "no/m.tsv"),
        ("train --config {config} --out {tmp}/m.ckpt", "m.ckpt.metrics.tsv", "m.ckpt.metrics.tsv"),
        ("train --config {config} --out {tmp}/m.ckpt", "m.ckpt.vocab.tsv", "m.ckpt.vocab.tsv"),
        ("eval --dataset {data} --checkpoint {ckpt} --detail {tmp}/no/d.tsv", None, "no/d.tsv"),
        ("export-predictions --dataset {data} --checkpoint {ckpt} --out {tmp}/p.tsv",
         "p.tsv", "p.tsv"),
        ("export-predictions --dataset {data} --checkpoint {ckpt} --out {tmp}/no/p.tsv",
         None, "no/p.tsv"),
        ("build-vocab --dataset {data} --out {tmp}/v.tsv", "v.tsv", "v.tsv"),
        ("build-vocab --dataset {data} --out {tmp}/no/v.tsv", None, "no/v.tsv"),
    ], ids=["train-out-parent", "train-metrics-parent", "train-default-metrics",
            "train-vocab", "eval-detail-parent", "export-out", "export-out-parent",
            "build-vocab-out", "build-vocab-out-parent"])
    def test_an_output_path_is_refused_before_any_work(self, workspace, tmp_path, capsys,
                                                       no_work, command_line, directory,
                                                       refused):
        if directory:
            (tmp_path / directory).mkdir()
        argv = [part.format(tmp=tmp_path, config=workspace["config"], data=workspace["data"],
                            ckpt=workspace["ckpt"]) for part in command_line.split()]
        self._refused(argv, tmp_path / refused, tmp_path, capsys)

    @pytest.mark.parametrize("command,options", [
        ("train", ["--out", ""]),
        ("train", ["--out", "{tmp}/m.ckpt", "--metrics", ""]),
        ("eval", ["--detail", ""]),
        ("export-predictions", ["--out", ""]),
        ("build-vocab", ["--out", ""]),
    ], ids=["train-out", "train-metrics", "eval-detail", "export-out", "build-vocab-out"])
    def test_an_empty_output_path_is_refused_before_any_work(self, workspace, tmp_path, capsys,
                                                            no_work, monkeypatch, command,
                                                            options):
        monkeypatch.chdir(tmp_path)     # so a write to a relative path would show
        inputs = {"train": ["--config", str(workspace["config"])],
                  "build-vocab": ["--dataset", str(workspace["data"])]}.get(
            command, ["--dataset", str(workspace["data"]), "--checkpoint", str(workspace["ckpt"])])
        argv = [command, *inputs, *(option.format(tmp=tmp_path) for option in options)]
        self._refused(argv, "output path '' is empty", tmp_path, capsys)


class TestClashingPaths:
    """Two paths of one command that name the same file, however spelt,
    are a usage error on one line before any work: every file is left as
    it was.  A dataset directory's paths are every file it may hold."""

    @pytest.mark.parametrize("command_line,clash", [
        ("train --config toy.cfg --out m.ckpt --metrics m.ckpt", "--metrics 'm.ckpt'"),
        ("train --config toy.cfg --out m.ckpt --metrics {tmp}/m.ckpt.vocab.tsv",
         "m.ckpt.vocab.tsv' name the same file"),
        ("train --config toy.cfg --out ./toy.cfg", "--out './toy.cfg'"),
        ("train --config toy.cfg --out m.ckpt --metrics sub/../toy.cfg", "sub/../toy.cfg"),
        ("train --config toy.cfg --out m.ckpt --metrics link.tsv", "--metrics 'link.tsv'"),
        ("eval --checkpoint c.ckpt --detail {tmp}/c.ckpt", "--detail"),
        ("eval --checkpoint c.ckpt --detail c.ckpt.vocab.tsv", "--detail 'c.ckpt.vocab.tsv'"),
        ("eval --checkpoint c.ckpt --vocab v.tsv --detail sub/../v.tsv", "--detail"),
        ("export-predictions --checkpoint c.ckpt --out c.ckpt", "--out 'c.ckpt'"),
        ("export-predictions --checkpoint c.ckpt --out link.tsv --vocab m.ckpt",
         "--out 'link.tsv'"),
        ("rerank-sweep --checkpoint c.ckpt --vocab ./c.ckpt", "--vocab './c.ckpt'"),
        ("build-vocab --out d/entities.txt", "--out 'd/entities.txt' and dataset file"),
        ("train --config d.cfg --out m.ckpt --metrics d/train.txt",
         "--metrics 'd/train.txt' and dataset file"),
        ("train --config d.cfg --out d/relations.txt", "--out 'd/relations.txt' and dataset file"),
        # the toy has no valid triples, so valid.txt is there but empty
        ("eval --checkpoint c.ckpt --detail d/valid.txt", "--detail 'd/valid.txt' and dataset"),
        ("export-predictions --checkpoint c.ckpt --out d/relations.txt",
         "--out 'd/relations.txt' and dataset file"),
        ("export-predictions --checkpoint c.ckpt --out d/sub/../test.txt",
         "--out 'd/sub/../test.txt' and dataset file"),
        ("export-predictions --checkpoint c.ckpt --out test-link.tsv",
         "--out 'test-link.tsv' and dataset file"),
    ], ids=["train-metrics-out", "train-metrics-vocab", "train-out-config",
            "train-metrics-config", "train-metrics-symlink", "eval-detail-checkpoint",
            "eval-detail-vocab", "eval-detail-explicit-vocab", "export-out-checkpoint",
            "export-out-symlink-vocab", "sweep-vocab-checkpoint", "build-vocab-out-entities",
            "train-metrics-train", "train-out-relations", "eval-detail-valid",
            "export-out-relations", "export-out-test", "export-out-symlink-test"])
    def test_is_a_usage_error_before_any_work(self, workspace, tmp_path, capsys, no_work,
                                              monkeypatch, command_line, clash):
        shutil.copy(workspace["config"], tmp_path / "toy.cfg")
        shutil.copy(workspace["ckpt"], tmp_path / "c.ckpt")
        shutil.copy(str(workspace["ckpt"]) + ".vocab.tsv", tmp_path / "c.ckpt.vocab.tsv")
        shutil.copy(str(workspace["ckpt"]) + ".vocab.tsv", tmp_path / "v.tsv")
        shutil.copytree(workspace["data"], tmp_path / "d")
        (tmp_path / "d.cfg").write_text(TOY_CONFIG + "dataset = d\n")
        for sub in ("sub", "d/sub"):
            (tmp_path / sub).mkdir()
        (tmp_path / "link.tsv").symlink_to("m.ckpt")
        (tmp_path / "test-link.tsv").symlink_to("d/test.txt")
        monkeypatch.chdir(tmp_path)
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        argv = command_line.format(tmp=tmp_path).split()
        if argv[0] != "train":
            argv += ["--dataset", "d"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error\tusage\t")
        assert clash in captured.err and captured.err.endswith(" name the same file\n")
        assert captured.err.count("\n") == 1
        assert {path: path.read_bytes() for path in tmp_path.rglob("*")
                if path.is_file()} == before


class TestMissingInputs:
    """A named input that is not there is a usage error naming it, before
    the dataset is read."""

    @pytest.mark.parametrize("command", ["eval", "rerank-sweep", "export-predictions"])
    @pytest.mark.parametrize("option", ["--checkpoint", "--vocab"])
    def test_is_refused_before_the_dataset_is_read(self, workspace, tmp_path, capsys, no_work,
                                                   command, option):
        missing = str(tmp_path / "missing")
        paths = {"--checkpoint": str(workspace["ckpt"]), option: missing}
        argv = [command, "--dataset", str(workspace["data"]),
                *(part for pair in paths.items() for part in pair), "--split", "test"]
        if command == "export-predictions":
            argv += ["--out", str(tmp_path / "p.tsv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error\tusage\t{option} not found: {missing!r}\n"
        assert not (tmp_path / "p.tsv").exists()


class TestScoreModeTheCheckpointLacks:
    """A ``--score-mode`` that needs a path the checkpoint was trained
    without is a usage error naming the option and the path, raised once
    the checkpoint is read, before the vocabulary is read or any table is
    encoded."""

    @pytest.fixture(scope="class")
    def checkpoints(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("one_path")
        data = root / "toy"
        write_dataset(make_text_toy(num_entities=10, num_relations=2, num_triples=16, seed=0),
                      data)
        graph = load_dataset(data).graph
        tokenizer = build_tokenizer(graph)
        paths = {}
        for name, switches in (("no-ase", {"use_ase": False, "vocab_size": len(tokenizer)}),
                               ("no-text", {"use_text": False})):
            paths[name] = root / f"{name}.ckpt"
            save_checkpoint(str(paths[name]), Model(ModelConfig(
                graph.num_entities, graph.num_base_relations, struct_dim=8, layers=1,
                hidden_dim=16, heads=2, max_len=16, **switches), seed=0))
        tokenizer.save(str(paths["no-ase"]) + ".vocab.tsv")
        return data, paths

    @pytest.mark.parametrize("command", ["eval", "rerank-sweep", "export-predictions"])
    @pytest.mark.parametrize("checkpoint,mode,lacking", [
        ("no-ase", "struct", "structural"), ("no-ase", "combined", "structural"),
        ("no-text", "text", "text"), ("no-text", "combined", "text"),
    ])
    def test_is_a_usage_error_before_the_vocabulary_is_read(
            self, checkpoints, tmp_path, capsys, monkeypatch, command, checkpoint, mode,
            lacking):
        def refuse(*args, **kwargs):
            raise AssertionError("read or encoded after a score mode the checkpoint lacks")

        monkeypatch.setattr(cli.Tokenizer, "load", refuse)
        monkeypatch.setattr(cli, "ModelScorer", refuse)
        data, paths = checkpoints
        argv = [command, "--dataset", str(data), "--checkpoint", str(paths[checkpoint]),
                "--split", "test", "--score-mode", mode]
        if command == "export-predictions":
            argv += ["--out", str(tmp_path / "p.tsv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error\tusage\t--score-mode {mode} needs the {lacking} path, "
                                f"which checkpoint {str(paths[checkpoint])!r} was trained "
                                f"without\n")
        assert not (tmp_path / "p.tsv").exists()

    @pytest.mark.parametrize("checkpoint,mode", [("no-ase", "text"), ("no-text", "struct")])
    def test_the_mode_it_has_still_ranks(self, checkpoints, capsys, checkpoint, mode):
        data, paths = checkpoints
        for given in ([], ["--score-mode", mode]):  # the default is that mode
            assert main(["eval", "--dataset", str(data), "--checkpoint",
                         str(paths[checkpoint]), "--split", "test", *given]) == 0
            assert "MRR\t" in capsys.readouterr().out


def subcommands() -> list[str]:
    parser = cli.build_parser()
    return list(next(action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)).choices)


class TestEveryCommandChecksItsPathsFirst:
    """Each command ``build_parser`` registers calls ``_check_paths`` once
    before it reads its dataset, so none can skip the path rule."""

    ARGV = {
        "build-vocab": "build-vocab --dataset {data} --out {tmp}/v.tsv",
        "train": "train --config {config} --out {tmp}/m.ckpt",
        "eval": "eval --dataset {data} --checkpoint {ckpt} --detail {tmp}/d.tsv",
        "rerank-sweep": "rerank-sweep --dataset {data} --checkpoint {ckpt} --split test",
        "miou": "miou --dataset {data}",
        "export-predictions": "export-predictions --dataset {data} --checkpoint {ckpt} "
                              "--out {tmp}/p.tsv",
    }

    class Stop(Exception):
        pass

    @pytest.mark.parametrize("command", subcommands())
    def test_check_comes_before_the_dataset(self, workspace, tmp_path, monkeypatch, command):
        assert command in self.ARGV, f"{command!r} has no command line in this test"
        calls = []
        check = cli._check_paths

        def record_check(*args):
            calls.append("check")
            check(*args)

        def record_load(*args):
            calls.append("load")
            raise self.Stop

        monkeypatch.setattr(cli, "_check_paths", record_check)
        monkeypatch.setattr(cli, "load_dataset", record_load)
        argv = self.ARGV[command].format(tmp=tmp_path, config=workspace["config"],
                                         data=workspace["data"], ckpt=workspace["ckpt"])
        with pytest.raises(self.Stop):
            main(argv.split())
        assert calls == ["check", "load"]


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


class TestMalformedVocabulary:
    @pytest.mark.parametrize("bad_line,detail", [
        ("oops", "expected 2 tab-separated columns, got 1"),
        ("oops\tfive", "token id 'five' is not an integer"),
        ("[PAD]\t7", "duplicate token '[PAD]'"),
    ])
    def test_is_an_input_error_naming_the_line(self, workspace, tmp_path, capsys,
                                               bad_line, detail):
        lines = (workspace["root"] / "model.ckpt.vocab.tsv").read_text().splitlines()
        vocab = tmp_path / "vocab.tsv"
        vocab.write_text("\n".join(lines[:6] + [bad_line] + lines[6:]) + "\n")
        argv = ["eval", "--dataset", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]), "--vocab", str(vocab)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error\tinput\t{vocab}:7: {detail}\n"

    def test_bad_ids_are_an_input_error_naming_the_file(self, workspace, tmp_path,
                                                        capsys):
        lines = (workspace["root"] / "model.ckpt.vocab.tsv").read_text().splitlines()
        vocab = tmp_path / "vocab.tsv"
        vocab.write_text("\n".join(lines[:-1]) + f"\n{lines[-1].split()[0]}\t99\n")
        argv = ["eval", "--dataset", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]), "--vocab", str(vocab)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error\tinput\t{vocab}: token ids must be contiguous from 0\n")


class TestNotUtf8:
    """A byte that is not UTF-8 is an input error naming its file and line,
    where ``\\n``, ``\\r\\n`` and a lone ``\\r`` each end a line."""

    DETAIL = "not valid UTF-8: byte 0xff (invalid start byte)"

    def _error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_dataset_file(self, workspace, tmp_path, capsys):
        data = tmp_path / "toy"
        shutil.copytree(workspace["data"], data)
        first, *rest = (data / "train.txt").read_bytes().splitlines(keepends=True)
        (data / "train.txt").write_bytes(first.rstrip(b"\n") + b"\r\n\r" + b"\xff" + b"".join(rest))
        err = self._error(["miou", "--dataset", str(data)], capsys)
        assert err == f"error\tinput\t{data / 'train.txt'}:3: {self.DETAIL}\n"

    def test_vocab_file(self, workspace, tmp_path, capsys):
        lines = (workspace["root"] / "model.ckpt.vocab.tsv").read_bytes().split(b"\n")
        vocab = tmp_path / "vocab.tsv"
        vocab.write_bytes(b"\r\n".join(lines[:4]) + b"\r\n\xff" + b"\n".join(lines[4:]))
        err = self._error(["eval", "--dataset", str(workspace["data"]),
                           "--checkpoint", str(workspace["ckpt"]), "--vocab", str(vocab)], capsys)
        assert err == f"error\tinput\t{vocab}:5: {self.DETAIL}\n"

    def test_config_file(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# toy\rseed = 1\n\nlr = 0.1\xff\n")
        err = self._error(["train", "--config", str(cfg), "--out", str(tmp_path / "x")], capsys)
        assert err == f"error\tinput\t{cfg}:4: {self.DETAIL}\n"


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
