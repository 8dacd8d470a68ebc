"""Write checkpoints and training logs whose bytes a refactor must keep.

    python tools/byteid.py OUT [FLAG ...]

imports sesqa from the tree this script sits in, so a copy of it placed
in another checkout (say, the parent commit's) runs that checkout's code.
It writes to OUT:

* init.ckpt, an untrained width-0.125 model with the measure head;
* all, mos, jnd, no_mr (.ckpt and .jsonl): library `train()` on the toy
  set of tests/toyrun.py (9 quadruples, 2 epochs of batch 3, MOS, JND
  and measure vectors, one vector missing STOI) under four loss masks;
* reload.ckpt, `save_checkpoint(load_checkpoint(all.ckpt))`, so that the
  loader's reading of every tensor and of the normalizer is compared too;
* cli (.ckpt, .jsonl): `sesqa train` with the default mask, --mos and
  --jnd on 6 generated quadruples; the FLAGs are added to this run only;
* cli_no_mr (.ckpt, .jsonl): the same run with every loss but mr;
* eval.json: `sesqa eval --checkpoint cli.ckpt --quadruples
  cli_data/quads.jsonl --mos cli_data/mos.jsonl --kfold 2`, which runs
  the score head under no_grad and L_CONS through `ad` in float64;
* score.txt: `sesqa score` of the four rated clips with cli.ckpt, as
  absolute scores and then with `--reference` the first clip; both run
  in OUT, so each clip is named by its path relative to OUT;
* tensors.txt: one line per tensor of each checkpoint above, with the
  file, the tensor name and a SHA-256 prefix of its bytes, after one
  line for the file's metadata block (config and normalizer).

Compare two trees with `cmp` on each file directly in OUT; cli_data holds
the inputs, whose manifests name OUT itself. A change that moves a named
set of tensors on purpose is checked with `diff` on tensors.txt, which
then shows exactly those lines. The float32 matmul sums depend on the
BLAS thread count, so both runs must use the same count;
OPENBLAS_NUM_THREADS defaults to 1 here.
"""

import hashlib
import io
import json
import math
import os
import struct
import sys
from contextlib import redirect_stdout
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np                                           # noqa: E402
from sesqa.audio import write_wav                            # noqa: E402
from sesqa.cli import main                                   # noqa: E402
from sesqa.measures import MEASURE_NAMES                     # noqa: E402
from sesqa.model import (Model, ModelConfig,                 # noqa: E402
                         load_checkpoint, save_checkpoint)
from sesqa.objectives import LOSS_NAMES                      # noqa: E402
from sesqa.training import TrainConfig, train                # noqa: E402
from conftest import speechlike                              # noqa: E402
from toyrun import build_dataset                             # noqa: E402


def sesqa(argv) -> None:
    """Run one `sesqa` command; stop the script if it fails."""
    if main(argv) != 0:
        sys.exit("sesqa %s failed" % " ".join(argv))


def library_runs(out: Path) -> None:
    quads, _, mos, jnd, lookup = build_dataset(n_train=9, n_heldout=0,
                                               seed=2024)
    del lookup[4].values["stoi"]          # one vector missing a measure
    cfg7 = ModelConfig(channel_mult=0.125, measure_names=MEASURE_NAMES,
                       seed=7)
    save_checkpoint(Model(cfg7), out / "init.ckpt")
    masks = {"all": LOSS_NAMES, "mos": ("mos",), "jnd": ("jnd",),
             "no_mr": tuple(n for n in LOSS_NAMES if n != "mr")}
    for label, mask in masks.items():
        cfg = TrainConfig(epochs=2, batch_size=3, loss_mask=mask, seed=11)
        train(Model(cfg7), cfg, quads, mos, jnd, lookup,
              out / (label + ".jsonl"), out / (label + ".ckpt"))
    save_checkpoint(load_checkpoint(out / "all.ckpt"), out / "reload.ckpt")


def cli_runs(out: Path, flags) -> None:
    data = out / "cli_data"
    for sub in ("pool", "rated"):
        (data / sub).mkdir(parents=True, exist_ok=True)
    for i in range(4):
        write_wav(speechlike(seed=20 + i, seconds=1.5),
                  data / "pool" / ("p%d.wav" % i))
    rated = []
    for i in range(4):
        rated.append(data / "rated" / ("r%d.wav" % i))
        write_wav(speechlike(seed=30 + i, seconds=1.2), rated[-1])
    (data / "mos.jsonl").write_text("".join(
        json.dumps({"path": str(p), "mos": 1.5 + i}) + "\n"
        for i, p in enumerate(rated)))
    (data / "jnd.jsonl").write_text("".join(
        json.dumps({"path_a": str(rated[i]), "path_b": str(rated[i + 1]),
                    "jnd": i % 2}) + "\n" for i in range(3)))
    quads = data / "quads.jsonl"
    sesqa(["generate", "--pool", str(data / "pool"),
           "--out", str(data / "quads"), "--manifest", str(quads),
           "--n", "6", "--seed", "3"])
    common = ["train", "--quadruples", str(quads),
              "--mos", str(data / "mos.jsonl"),
              "--jnd", str(data / "jnd.jsonl"), "--epochs", "2",
              "--batch-size", "4", "--channels", "0.125", "--seed", "11"]
    no_mr = ",".join(n for n in LOSS_NAMES if n != "mr")
    for label, extra in (("cli", list(flags)),
                         ("cli_no_mr", ["--loss-mask", no_mr])):
        sesqa(common + extra + ["--out", str(out / (label + ".ckpt")),
                                "--log", str(out / (label + ".jsonl"))])


def inference_runs(out: Path) -> None:
    os.chdir(out)
    sesqa(["eval", "--checkpoint", "cli.ckpt",
           "--quadruples", "cli_data/quads.jsonl",
           "--mos", "cli_data/mos.jsonl", "--kfold", "2",
           "--out", "eval.json"])
    rated = ["cli_data/rated/r%d.wav" % i for i in range(4)]
    printed = io.StringIO()
    with redirect_stdout(printed):
        sesqa(["score", "--checkpoint", "cli.ckpt"] + rated)
        sesqa(["score", "--checkpoint", "cli.ckpt",
               "--reference", rated[0]] + rated)
    (out / "score.txt").write_text(printed.getvalue())


def tensor_lines(path: Path):
    """Lines `<file> <name> <hash>` for the metadata block, then each
    tensor of the checkpoint at `path`, read by the file's own layout:
    magic, version, metadata length, metadata JSON, the tensors in order."""
    data = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", data, 8)
    meta = data[12:12 + meta_len]
    yield "%s <meta> %s" % (path.name, hashlib.sha256(meta).hexdigest()[:16])
    offset = 12 + meta_len
    for entry in json.loads(meta)["tensors"]:
        n = math.prod(entry["shape"]) * np.dtype(entry["dtype"]).itemsize
        digest = hashlib.sha256(data[offset:offset + n]).hexdigest()[:16]
        yield "%s %s %s" % (path.name, entry["name"], digest)
        offset += n


if __name__ == "__main__":
    out = Path(sys.argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    library_runs(out)
    cli_runs(out, sys.argv[2:])
    inference_runs(out)
    (out / "tensors.txt").write_text("".join(
        line + "\n" for ckpt in sorted(out.glob("*.ckpt"))
        for line in tensor_lines(ckpt)))
