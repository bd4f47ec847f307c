"""
The command-line workflow end to end
====================================

Writes a toy dataset in the tab-separated layout, then drives the CLI:
build-vocab, train, eval, miou, rerank-sweep and export-predictions.
Everything lands in a temporary directory.
"""

import tempfile
from pathlib import Path

from structkgc.cli import main
from structkgc.data import write_dataset
from structkgc.toygen import make_text_toy

root = Path(tempfile.mkdtemp(prefix="structkgc-demo-"))
data = root / "toy"
write_dataset(make_text_toy(num_entities=15, num_relations=2,
                            num_triples=24, seed=1), data)
print("dataset in", data)

config = root / "run.cfg"
config.write_text(
    f"dataset = {data}\n"
    "struct_dim = 8\nlayers = 1\nhidden_dim = 16\nheads = 2\nmax_len = 16\n"
    "epochs = 2\nbatch_size = 8\nlr = 1e-3\n"
    "queue_capacity = 16\nhardest_k = 4\nmh_count = 4\nir_count = 1\n"
)

ckpt = root / "model.ckpt"
for argv in (
    ["build-vocab", "--dataset", str(data), "--out", str(root / "vocab.tsv")],
    ["train", "--config", str(config), "--seed", "7", "--out", str(ckpt)],
    ["eval", "--dataset", str(data), "--checkpoint", str(ckpt),
     "--split", "test"],
    ["miou", "--dataset", str(data)],
    ["rerank-sweep", "--dataset", str(data), "--checkpoint", str(ckpt),
     "--split", "test", "--alphas", "0,0.1", "--regimes", "none,train"],
    ["export-predictions", "--dataset", str(data), "--checkpoint", str(ckpt),
     "--split", "test", "--out", str(root / "preds.tsv")],
):
    print(f"\n$ structkgc {' '.join(argv)}")
    code = main(argv)
    assert code == 0, f"command failed with exit code {code}"

print("\nfirst prediction line:")
print((root / "preds.tsv").read_text().splitlines()[0])
