import json
import os
import struct

import numpy as np
import pytest

from sesqa import cli
from sesqa.cli import (EXIT_CHECKPOINT, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                       UsageError, main, resolve_option)
from sesqa.audio import write_wav
from sesqa.degrade.chains import ChainDistribution
from sesqa.measures import MEASURE_NAMES
from sesqa.model import load_checkpoint
from sesqa.objectives import LOSS_NAMES

from conftest import speechlike, wav_bytes, write_skipped_wavs


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Clean pool, MOS manifest, and a generated quadruple set."""
    root = tmp_path_factory.mktemp("cli")
    pool = root / "pool"
    pool.mkdir()
    for i in range(4):
        write_wav(speechlike(seed=60 + i, seconds=1.3), pool / ("p%d.wav" % i))

    mos_dir = root / "mos"
    mos_dir.mkdir()
    recs = []
    for i in range(4):
        p = mos_dir / ("m%d.wav" % i)
        write_wav(speechlike(seed=70 + i, seconds=1.05), p)
        recs.append({"path": str(p), "mos": 1.0 + i,
                     "listener_scores": [1.0 + i, 1.5 + i]})
    mos_manifest = root / "mos.jsonl"
    mos_manifest.write_text("\n".join(json.dumps(r) for r in recs) + "\n")

    quad_dir = root / "quads"
    manifest = root / "quads.jsonl"
    rc = main(["generate", "--pool", str(pool), "--out", str(quad_dir),
               "--manifest", str(manifest), "--n", "12", "--seed", "5"])
    assert rc == EXIT_OK
    return {"root": root, "pool": pool, "manifest": manifest,
            "quad_dir": quad_dir, "mos_manifest": mos_manifest}


@pytest.fixture(scope="module")
def checkpoint(workdir):
    ckpt = workdir["root"] / "model.ckpt"
    rc = main(["train", "--quadruples", str(workdir["manifest"]),
               "--mos", str(workdir["mos_manifest"]),
               "--out", str(ckpt), "--epochs", "1", "--batch-size", "6",
               "--channels", "0.25", "--loss-mask", "mos", "--seed", "1"])
    assert rc == EXIT_OK
    return ckpt


def test_generate_writes_manifest_and_wavs(workdir):
    lines = [l for l in workdir["manifest"].read_text().splitlines() if l]
    assert len(lines) == 12
    rec = json.loads(lines[0])
    wavs = list(workdir["quad_dir"].glob("*.wav"))
    assert len(wavs) == 48    # four cuts per quadruple


def test_generate_deterministic(workdir, tmp_path):
    manifest2 = tmp_path / "again.jsonl"
    rc = main(["generate", "--pool", str(workdir["pool"]),
               "--out", str(tmp_path / "q"), "--manifest", str(manifest2),
               "--n", "12", "--seed", "5"])
    assert rc == EXIT_OK
    a = [json.loads(l) for l in
         workdir["manifest"].read_text().splitlines() if l]
    b = [json.loads(l) for l in manifest2.read_text().splitlines() if l]
    for ra, rb in zip(a, b):
        assert ra["chain_i"] == rb["chain_i"]
        assert ra["chain_j"] == rb["chain_j"]
        assert ra["delay_ms"] == rb["delay_ms"]
    # and the audio itself is bit-exact
    for name in sorted(os.listdir(workdir["quad_dir"]))[:8]:
        assert (workdir["quad_dir"] / name).read_bytes() == \
            (tmp_path / "q" / name).read_bytes()


def test_generate_usage_errors(tmp_path):
    assert main(["generate", "--pool", str(tmp_path / "missing"),
                 "--n", "2"]) == EXIT_USAGE
    assert main(["generate", "--pool", str(tmp_path), "--n", "0"]) \
        == EXIT_USAGE


def test_generate_check_passes(workdir, tmp_path, monkeypatch, capsys):
    """The sampler follows both stages' nominal distributions: one ok line
    per chain length, three first-stage and four second-stage. The check
    reads no audio, so an empty pool and no --n do as well."""
    monkeypatch.setattr(cli, "CHECK_DRAWS", 4000)
    for inputs in (["--pool", str(workdir["pool"]), "--n", "1"],
                   ["--pool", str(tmp_path)]):
        rc = main(["generate", "--check", "--seed", "3"] + inputs)
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_OK, inputs
        assert len(lines) == 7 and all(line.endswith(" ok")
                                       for line in lines)


def test_generate_check_flags_a_distribution_off(workdir, monkeypatch,
                                                 capsys):
    """Against a first-stage distribution the sampler does not follow,
    --check prints OFF and exits 3."""
    monkeypatch.setattr(cli, "CHECK_DRAWS", 4000)
    monkeypatch.setattr(cli, "FIRST_STAGE",
                        ChainDistribution((0, 1, 2), (0.5, 0.3, 0.2)))
    rc = main(["generate", "--pool", str(workdir["pool"]), "--n", "1",
               "--check", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == EXIT_NUMERICAL
    assert "first stage length 0: " in out and " OFF\n" in out


def test_generate_pool_with_no_usable_file(tmp_path, capsys):
    """A pool whose every file is at another rate, shorter than 1.1 s or
    silent exits 2 with one message line, and writes no manifest."""
    (tmp_path / "pool").mkdir()
    write_skipped_wavs(tmp_path / "pool")
    manifest = tmp_path / "q.jsonl"
    rc = main(["generate", "--pool", str(tmp_path / "pool"), "--n", "2",
               "--out", str(tmp_path / "q"), "--manifest", str(manifest)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: no usable parent frame")
    assert err.count("\n") == 1
    assert not manifest.exists()


def test_resolve_option_precedence(monkeypatch):
    file_cfg = {"epochs": 5}
    assert resolve_option("epochs", None, {}, default=3, cast=int) == 3
    assert resolve_option("epochs", None, file_cfg, default=3, cast=int) == 5
    # a config file's bool, or its float for an int setting, is refused
    # rather than truncated, as a flag or SESQA_* value of "2.7" is
    for name, value, cast in (("epochs", 2.7, int), ("seed", -3.9, int),
                              ("batch_size", True, int),
                              ("channels", True, float)):
        with pytest.raises(UsageError, match="bad value for " + name):
            resolve_option(name, None, {name: value}, cast=cast)
    monkeypatch.setenv("SESQA_EPOCHS", "7")
    assert resolve_option("epochs", None, file_cfg, default=3, cast=int) == 7
    assert resolve_option("epochs", 9, file_cfg, default=3, cast=int) == 9
    with pytest.raises(UsageError):
        resolve_option("epochs", "many", file_cfg, cast=int)


def test_config_precedence_integration(workdir, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "seed": 5}))
    m1 = tmp_path / "m1.jsonl"
    rc = main(["--config", str(cfg), "generate", "--pool",
               str(workdir["pool"]), "--out", str(tmp_path / "g1"),
               "--manifest", str(m1)])
    assert rc == EXIT_OK
    assert len(m1.read_text().splitlines()) == 2
    # environment overrides the file
    monkeypatch.setenv("SESQA_N", "3")
    m2 = tmp_path / "m2.jsonl"
    rc = main(["--config", str(cfg), "generate", "--pool",
               str(workdir["pool"]), "--out", str(tmp_path / "g2"),
               "--manifest", str(m2)])
    assert rc == EXIT_OK
    assert len(m2.read_text().splitlines()) == 3
    # flag overrides both
    m3 = tmp_path / "m3.jsonl"
    rc = main(["--config", str(cfg), "generate", "--pool",
               str(workdir["pool"]), "--out", str(tmp_path / "g3"),
               "--manifest", str(m3), "--n", "4"])
    assert rc == EXIT_OK
    assert len(m3.read_text().splitlines()) == 4


def test_bad_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert main(["--config", str(bad), "generate", "--pool", str(tmp_path),
                 "--n", "1"]) == EXIT_USAGE


def test_train_deterministic(workdir, checkpoint, tmp_path):
    again, log = tmp_path / "again.ckpt", tmp_path / "log.jsonl"
    rc = main(["train", "--quadruples", str(workdir["manifest"]),
               "--mos", str(workdir["mos_manifest"]),
               "--out", str(again), "--epochs", "1", "--batch-size", "6",
               "--channels", "0.25", "--loss-mask", "mos", "--seed", "1",
               "--log", str(log)])
    assert rc == EXIT_OK
    assert again.read_bytes() == checkpoint.read_bytes()
    # 12 quadruples in batches of 6: one record per step
    records = [json.loads(l) for l in log.read_text().splitlines()]
    assert [r["step"] for r in records] == [0, 1]
    assert all(np.isfinite(r["total"]) for r in records)


def test_train_numerical_failure_exit_code(workdir, tmp_path, capsys):
    manifest = tmp_path / "four.jsonl"
    lines = workdir["manifest"].read_text().splitlines()
    manifest.write_text("\n".join(lines[:4]) + "\n")
    out = tmp_path / "x.ckpt"
    rc = main(["train", "--quadruples", str(manifest), "--out", str(out),
               "--lr", "1e30", "--epochs", "3", "--batch-size", "2",
               "--channels", "0.125", "--seed", "1"])
    assert rc == EXIT_NUMERICAL
    assert capsys.readouterr().err == \
        "numerical failure: non-finite total loss at step 1\n"
    assert not out.exists()


def test_train_bad_loss_mask(workdir, tmp_path):
    rc = main(["train", "--quadruples", str(workdir["manifest"]),
               "--out", str(tmp_path / "x.ckpt"), "--epochs", "1",
               "--channels", "0.25", "--loss-mask", "mos,bogus"])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("flags, message", [
    (["--batch-size", "0"], "batch size"),
    (["--batch-size", "-1"], "batch size"),
    (["--epochs", "0"], "epochs"),
    (["--epochs", "-1"], "epochs"),
    (["--lr", "nan"], "learning rate"),
    (["--lr", "inf"], "learning rate"),
    (["--lr", "0"], "learning rate"),
    (["--channels", "0"], "bad channel_mult 0.0"),
    (["--channels", "-1"], "bad channel_mult -1.0"),
    (["--channels", "inf"], "bad channel_mult inf"),
    (["--channels", "nan"], "bad channel_mult nan"),
    (["--seed", "-1"], "bad seed -1"),
], ids=["0", "-1", "epochs0", "epochs-1", "lr-nan", "lr-inf", "lr0",
        "channels0", "channels-1", "channels-inf", "channels-nan", "seed-1"])
def test_train_batch_size_below_one(workdir, tmp_path, flags, message,
                                    capsys, monkeypatch):
    """A batch size, epoch count, learning rate, width or seed that no run
    can use exits 2 before any data is read or any training step runs."""
    def never(*args, **kwargs):
        raise AssertionError("called with an unusable setting")

    monkeypatch.setattr(cli, "_load_quads", never)
    monkeypatch.setattr(cli, "train", never)
    out = tmp_path / "x.ckpt"
    rc = main(["train", "--quadruples", str(workdir["manifest"]),
               "--out", str(out), "--epochs", "1", "--channels", "0.25",
               "--loss-mask", "mos"] + flags)
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_train_width_too_large_to_allocate(workdir, tmp_path, capsys,
                                           monkeypatch):
    """A width whose model cannot be allocated exits 2 with one message
    line, before any data is read. 1e13 asks for more than any 48-bit
    address space, so the first allocation fails at once."""
    def never(*args, **kwargs):
        raise AssertionError("read data for a model that cannot be built")

    monkeypatch.setattr(cli, "_load_quads", never)
    monkeypatch.setattr(cli, "train", never)
    out = tmp_path / "x.ckpt"
    rc = main(["train", "--quadruples", str(workdir["manifest"]),
               "--out", str(out), "--channels", "1e13"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# A negative seed, from a flag, a config file or SESQA_SEED, for each
# command but train (its case is seed-1 above); {tmp} and the others are
# filled in below.
_NEGATIVE_SEEDS = {
    "eval": ["eval", "--random-baseline", "--mos", "{mos}", "--seed", "-1"],
    "eval-kfold": ["eval", "--random-baseline", "--mos", "{mos}",
                   "--kfold", "2", "--seed", "-1"],
    "analyze": ["analyze", "--checkpoint", "{ckpt}", "--mode", "sweep",
                "--clean", "{wav}", "--kind", "clipping", "--seed", "-1"],
    "generate": ["generate", "--pool", "{pool}", "--n", "1", "--out",
                 "{tmp}/q", "--manifest", "{tmp}/q.jsonl", "--seed", "-1"],
    "generate-check": ["generate", "--pool", "{pool}", "--check",
                       "--seed", "-1"],
    "generate-config": ["--config", "{cfg}", "generate", "--pool", "{pool}",
                        "--n", "1", "--out", "{tmp}/q", "--manifest",
                        "{tmp}/q.jsonl"],
    "generate-check-env": ["generate", "--pool", "{pool}", "--check"],
}


@pytest.mark.parametrize("case", sorted(_NEGATIVE_SEEDS))
def test_negative_seed_exit_code(case, workdir, checkpoint, tmp_path, capsys,
                                 monkeypatch):
    """eval, analyze and generate refuse a negative seed with train's
    message, before they read a checkpoint, a manifest or a WAV."""
    def never(*args, **kwargs):
        raise AssertionError("read data with a negative seed")

    for name in ("_load_quads", "load_checkpoint", "read_wav_48k",
                 "read_mos_manifest"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(cli.CleanPool, "from_directory", never)
    if case.endswith("-env"):
        monkeypatch.setenv("SESQA_SEED", "-1")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    names = {"tmp": tmp_path, "cfg": cfg, "wav": tmp_path / "x.wav",
             "pool": workdir["pool"], "mos": workdir["mos_manifest"],
             "ckpt": checkpoint}
    argv = [a.format(**names) for a in _NEGATIVE_SEEDS[case]]
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err == "error: bad seed -1\n" and out == ""
    assert not (tmp_path / "q.jsonl").exists()


@pytest.mark.parametrize("flags", [
    ["--jnd", "JND"],                       # one JND pair in a batch
    [],                                     # one quadruple for mr
    ["--mos", "MOS", "--loss-mask", "mos"]  # one MOS frame to encode
], ids=["jnd", "measures", "mos"])
def test_train_one_row_batches(workdir, tmp_path, flags):
    """Batch size 2 over 3 quadruples puts a single row into one
    BatchNorm; training skips that forward's loss and still succeeds."""
    manifest = tmp_path / "three.jsonl"
    lines = workdir["manifest"].read_text().splitlines()
    manifest.write_text("\n".join(lines[:3]) + "\n")
    mos = [json.loads(l) for l in workdir["mos_manifest"].read_text()
           .splitlines()]
    jnd = tmp_path / "jnd.jsonl"
    jnd.write_text(json.dumps({"path_a": mos[0]["path"],
                               "path_b": mos[1]["path"], "jnd": 1}) + "\n")
    flags = [{"JND": str(jnd), "MOS": str(workdir["mos_manifest"])}.get(f, f)
             for f in flags]
    out = tmp_path / "x.ckpt"
    with pytest.warns(UserWarning, match="no data"):
        rc = main(["train", "--quadruples", str(manifest), "--out", str(out),
                   "--epochs", "1", "--batch-size", "2", "--channels",
                   "0.125", "--seed", "1"] + flags)
    assert rc == EXIT_OK
    assert load_checkpoint(out).config.channel_mult == 0.125


def test_train_default_mask_trains_mr(workdir, tmp_path):
    """The default mask holds mr, so train computes the measure vectors
    itself: one step of four quadruples, two MOS items and two JND pairs
    logs all eight losses."""
    manifest = tmp_path / "four.jsonl"
    lines = workdir["manifest"].read_text().splitlines()
    manifest.write_text("\n".join(lines[:4]) + "\n")
    mos = [json.loads(l)["path"] for l in
           workdir["mos_manifest"].read_text().splitlines()]
    jnd = tmp_path / "jnd.jsonl"
    jnd.write_text("".join(json.dumps({"path_a": a, "path_b": b, "jnd": j})
                           + "\n" for a, b, j in ((mos[0], mos[1], 1),
                                                  (mos[2], mos[3], 0))))
    out, log = tmp_path / "x.ckpt", tmp_path / "log.jsonl"
    rc = main(["train", "--quadruples", str(manifest), "--out", str(out),
               "--mos", str(workdir["mos_manifest"]), "--jnd", str(jnd),
               "--log", str(log), "--epochs", "1", "--batch-size", "4",
               "--channels", "0.125", "--seed", "1"])
    assert rc == EXIT_OK
    (record,) = [json.loads(l) for l in log.read_text().splitlines()]
    assert set(LOSS_NAMES) < set(record)
    assert load_checkpoint(out).config.measure_names == MEASURE_NAMES


@pytest.mark.parametrize("k, manifest", [
    ("5", "ok"), ("-1", "ok"), ("0", "ok"),
    ("0", "missing-wav"), ("-1", "missing-wav"),
], ids=["5", "-1", "0", "0-missing-wav", "-1-missing-wav"])
def test_eval_kfold_out_of_range(workdir, tmp_path, k, manifest, capsys):
    """The ok manifest holds 4 MOS items. A fold count below 1 is refused
    before any WAV is read, so a manifest naming a missing WAV gives the
    --kfold message too."""
    mos = workdir["mos_manifest"]
    if manifest == "missing-wav":
        mos = tmp_path / "missing.jsonl"
        mos.write_text(json.dumps({"path": str(tmp_path / "no.wav"),
                                   "mos": 3.0}) + "\n")
    rc = main(["eval", "--random-baseline", "--mos", str(mos), "--kfold", k])
    assert rc == EXIT_USAGE
    assert "--kfold" in capsys.readouterr().err


@pytest.mark.parametrize("scorer", ["random", "checkpoint"])
def test_eval_kfold_needs_mos(scorer, workdir, checkpoint, capsys,
                              monkeypatch):
    """--kfold splits the MOS items, so without --mos it is refused before
    a checkpoint or a manifest is read."""
    def never(*args, **kwargs):
        raise AssertionError("read data for a refused --kfold")

    for name in ("_load_quads", "load_checkpoint", "read_mos_manifest"):
        monkeypatch.setattr(cli, name, never)
    argv = (["--random-baseline"] if scorer == "random"
            else ["--checkpoint", str(checkpoint)])
    rc = main(["eval", *argv, "--quadruples", str(workdir["manifest"]),
               "--kfold", "3"])
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err == "error: --kfold needs --mos\n" and out == ""


def test_eval_random_baseline(workdir, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["eval", "--random-baseline", "--quadruples",
               str(workdir["manifest"]), "--mos",
               str(workdir["mos_manifest"]), "--kfold", "2",
               "--seed", "0", "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert {"r_rank", "l_cons", "l_mos", "e_total",
            "human_baseline"} <= set(report)
    assert np.isclose(report["e_total"], 0.5 * report["l_mos"]
                      + report["r_rank"] + report["l_cons"])
    assert len(report["l_mos_folds"]) == 2


def test_eval_with_checkpoint(workdir, checkpoint, capsys):
    rc = main(["eval", "--checkpoint", str(checkpoint),
               "--quadruples", str(workdir["manifest"])])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["r_rank"] <= 1.0
    assert report["l_cons"] >= 0.0


def _with_meta(blob, edit):
    """A copy of checkpoint bytes `blob` whose metadata passes `edit`."""
    (n,) = struct.unpack_from("<I", blob, 8)
    meta = json.loads(blob[12:12 + n])
    edit(meta)
    new = json.dumps(meta).encode()
    return blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + n:]


def test_corrupt_checkpoint_exit_code(workdir, checkpoint, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    meta = b'{"tensors": []}'   # valid magic and version, no "config"
    good = checkpoint.read_bytes()
    blobs = (b"nope", b"SSQA" + struct.pack("<II", 1, len(meta)) + meta,
             _with_meta(good, lambda m: m["tensors"][0].pop("dtype")),
             _with_meta(good, lambda m: m["tensors"][0].update(dtype="zz")),
             _with_meta(good, lambda m: m["config"].update(
                 channel_mult="0.25")))
    for blob in blobs:
        bad.write_bytes(blob)
        rc = main(["eval", "--checkpoint", str(bad),
                   "--quadruples", str(workdir["manifest"])])
        assert rc == EXIT_CHECKPOINT
        assert capsys.readouterr().err.startswith("checkpoint error: ")


def test_malformed_manifest_exit_code(workdir, tmp_path, capsys):
    good = json.loads(workdir["manifest"].read_text().splitlines()[0])
    no_chain = {k: v for k, v in good.items() if k != "chain_i"}
    bad_kind = dict(good, chain_j=[{"kind": "warble", "strength": 0.5}])
    bad = tmp_path / "bad.jsonl"
    train = ["train", "--out", str(tmp_path / "x.ckpt"), "--channels", "0.25",
             "--quadruples", str(bad)]
    mos = ["eval", "--random-baseline", "--mos", str(bad)]
    jnd = train[:-1] + [str(workdir["manifest"]), "--jnd", str(bad)]
    cases = ((train, b"{not json\n"),
             (train, json.dumps(no_chain).encode()),
             (train, json.dumps(bad_kind).encode()),
             (mos, b'{"path": "a.wav", "listener_scores": [3]}\n'),
             (mos, b'{"path": "\xff\xfe.wav", "mos": 3}\n'),
             # Python's json reads NaN and Infinity
             (mos, b'{"path": "a.wav", "mos": NaN}\n'),
             (mos, b'{"path": "a.wav", "mos": 3, "listener_scores": '
                   b'[3, -Infinity]}\n'),
             (jnd, b'{"path_a": "a.wav", "path_b": "b.wav", "jnd": NaN}\n'))
    for argv, blob in cases:
        bad.write_bytes(blob)
        rc = main(argv)
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: %s:1: " % bad)


def test_malformed_wav_exit_code(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
    manifest = tmp_path / "mos.jsonl"
    manifest.write_text(json.dumps({"path": str(bad), "mos": 3.0}) + "\n")
    rc = main(["eval", "--random-baseline", "--mos", str(manifest)])
    assert rc == EXIT_USAGE


def test_other_rates_rejected(checkpoint, tmp_path, capsys):
    ok, low = tmp_path / "ok.wav", tmp_path / "low.wav"
    write_wav(speechlike(seed=80, seconds=1.0), ok)
    write_wav(speechlike(seed=81, seconds=2.0, rate=16000), low)
    rc = main(["score", "--checkpoint", str(checkpoint), str(ok), str(low)])
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out.startswith(str(ok)) and str(low) not in out
    assert err.startswith("%s\tERROR" % low)
    rc = main(["score", "--checkpoint", str(checkpoint),
               "--reference", str(low), str(ok)])
    assert rc == EXIT_USAGE

    manifest = tmp_path / "mos.jsonl"
    manifest.write_text(json.dumps({"path": str(low), "mos": 3.0}) + "\n")
    rc = main(["eval", "--random-baseline", "--mos", str(manifest)])
    assert rc == EXIT_USAGE
    rc = main(["analyze", "--checkpoint", str(checkpoint), "--mode", "sweep",
               "--clean", str(low), "--kind", "additive_noise"])
    assert rc == EXIT_USAGE

    pool, noise = tmp_path / "pool", tmp_path / "noise"
    pool.mkdir()
    noise.mkdir()
    write_wav(speechlike(seed=82, seconds=1.3), pool / "p.wav")
    write_wav(speechlike(seed=83, seconds=1.0, rate=16000), noise / "n.wav")
    capsys.readouterr()
    rc = main(["generate", "--pool", str(pool), "--noise-pool", str(noise),
               "--out", str(tmp_path / "q"), "--manifest",
               str(tmp_path / "q.jsonl"), "--n", "2"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: %s: sample rate 16000 Hz" % (noise / "n.wav"))


def test_sweep_kind_exit_code(checkpoint, tmp_path, capsys):
    clean = tmp_path / "clean.wav"
    write_wav(speechlike(seed=84, seconds=1.0), clean)
    for kind in ("bogus", "transcode_mp3"):
        rc = main(["analyze", "--checkpoint", str(checkpoint), "--mode",
                   "sweep", "--clean", str(clean), "--kind", kind])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: sweep mode needs --kind"), kind


def _generate_40(workdir, tmp_path, template):
    return main(["generate", "--pool", str(workdir["pool"]),
                 "--out", str(tmp_path / "q"), "--manifest",
                 str(tmp_path / "q.jsonl"), "--n", "40", "--seed", "1",
                 "--transcoder-cmd", template])


def test_bad_transcoder_template_exit_code(workdir, tmp_path, capsys):
    # fails before anything is written, drawn transcode kind or not
    assert _generate_40(workdir, tmp_path, "cp {in}") == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: transcoder_cmd is missing placeholders: {out}")
    assert not (tmp_path / "q.jsonl").exists()


def test_failing_transcoder_exit_code(workdir, tmp_path, capsys):
    rc = _generate_40(workdir, tmp_path, "false {in} {out} {codec} {bitrate}")
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: external transcoder failed for transcode_")
    # the quadruples before the failure leave no manifest that would parse,
    # and none of the WAVs they wrote
    assert not list(tmp_path.glob("q.jsonl*"))
    assert not list(tmp_path.glob("q/q*.wav"))


def test_other_rate_quadruples_rejected(workdir, checkpoint, tmp_path,
                                        capsys):
    recs = [json.loads(l) for l in
            workdir["manifest"].read_text().splitlines()[:3]]
    for i, rec in enumerate(recs):
        for tag in ("ik", "il", "jk", "jl"):
            rec["wav_" + tag] = str(tmp_path / ("q%d_%s.wav" % (i, tag)))
            write_wav(speechlike(seed=90 + i, seconds=1.0, rate=16000),
                      rec["wav_" + tag])
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in recs))
    quads = ["--quadruples", str(manifest)]
    for argv in (["train", "--epochs", "1", "--batch-size", "2",
                  "--channels", "0.125", "--out", str(tmp_path / "x.ckpt")],
                 ["eval", "--checkpoint", str(checkpoint)],
                 ["analyze", "--checkpoint", str(checkpoint),
                  "--mode", "distances"]):
        assert main(argv + quads) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: %s: sample rate 16000 Hz"
                              % recs[0]["wav_ik"]), err
    # latents mode refuses a missing --out before it reads the manifest
    rc = main(["analyze", "--checkpoint", str(checkpoint), "--mode",
               "latents", "--quadruples", str(tmp_path / "missing.jsonl")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: latents mode needs --out\n"


def test_short_quadruple_cut_rejected(workdir, checkpoint, tmp_path,
                                      capsys):
    """A cut that is not the 1 s that `generate` writes is refused when
    the manifest is loaded, with its WAV named: before any measure vector
    or training step, so train writes no log record and no checkpoint."""
    recs = [json.loads(l) for l in
            workdir["manifest"].read_text().splitlines()[:6]]
    short = tmp_path / "short.wav"
    write_wav(speechlike(seed=95, seconds=0.5), short)
    recs[3]["wav_jl"] = str(short)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in recs))
    ckpt, log = tmp_path / "x.ckpt", tmp_path / "x.jsonl"
    for argv in (["train", "--epochs", "1", "--batch-size", "2",
                  "--channels", "0.125", "--out", str(ckpt),
                  "--log", str(log)],
                 ["eval", "--checkpoint", str(checkpoint)],
                 ["analyze", "--checkpoint", str(checkpoint),
                  "--mode", "distances"]):
        assert main(argv + ["--quadruples", str(manifest)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: %s: 24000 samples, a quadruple cut has 48000\n" % short)
    assert not ckpt.exists()
    assert not log.exists() or log.read_text() == ""


def test_analyze_distances_of_one_quadruple_is_strict_json(
        workdir, checkpoint, tmp_path):
    """One quadruple gives no different-utterance pair: that category's
    mean and std are JSON null, not NaN, which strict parsers reject."""
    manifest, out = tmp_path / "one.jsonl", tmp_path / "dist.json"
    manifest.write_text(workdir["manifest"].read_text().splitlines(True)[0])
    rc = main(["analyze", "--checkpoint", str(checkpoint), "--mode",
               "distances", "--quadruples", str(manifest), "--out", str(out)])
    assert rc == EXIT_OK

    def refuse(constant):
        raise ValueError("%s is not JSON" % constant)

    stats = json.loads(out.read_text(), parse_constant=refuse)
    assert stats["different_utterance"] == {"mean": None, "std": None,
                                            "count": 0}
    assert stats["same_condition"]["count"] == 2


def test_analyze_distances_needs_quadruples(tmp_path, capsys):
    rc = main(["analyze", "--checkpoint", str(tmp_path / "m.ckpt"),
               "--mode", "distances"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == \
        "error: distances mode needs --quadruples\n"


def test_eval_mos_with_equal_labels_has_no_correlations(workdir, tmp_path,
                                                        capsys):
    """Correlations with constant labels are undefined: the report leaves
    them out and eval still exits 0."""
    recs = [json.loads(l) for l in
            workdir["mos_manifest"].read_text().splitlines()]
    manifest = tmp_path / "mos.jsonl"
    manifest.write_text("".join(json.dumps({**r, "mos": 3.0}) + "\n"
                                for r in recs))
    rc = main(["eval", "--random-baseline", "--mos", str(manifest)])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "l_mos" in report
    assert not {"pearson", "spearman"} & set(report)


def test_bad_reference_exit_code(checkpoint, tmp_path, capsys):
    ok, short, rate0 = (tmp_path / n for n in ("ok.wav", "short.wav",
                                               "rate0.wav"))
    write_wav(speechlike(seed=80, seconds=1.0), ok)
    write_wav(speechlike(seed=82, seconds=600 / 48000), short)
    rate0.write_bytes(wav_bytes(np.zeros(4800, "<f4").tobytes(), rate=0))
    for ref in (short, rate0):
        rc = main(["score", "--checkpoint", str(checkpoint),
                   "--reference", str(ref), str(ok)])
        assert rc == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: reference %s" % ref)
    rc = main(["score", "--checkpoint", str(checkpoint), str(rate0)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("%s\tERROR" % rate0)
    # a file too short to encode is refused by its own ERROR line
    rc = main(["score", "--checkpoint", str(checkpoint), str(short)])
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "%s\tERROR: input too short: 600 < " % short)


def test_score_command(workdir, checkpoint, tmp_path, capsys):
    wav = tmp_path / "x.wav"
    write_wav(speechlike(seed=80, seconds=1.0), wav)
    rc = main(["score", "--checkpoint", str(checkpoint), str(wav)])
    assert rc == EXIT_OK
    line = capsys.readouterr().out.strip()
    path, score = line.split("\t")
    assert path == str(wav) and 1.0 < float(score) < 5.0
    # reference mode: a file against itself scores 1 + 4 sigmoid(b)
    rc = main(["score", "--checkpoint", str(checkpoint),
               "--reference", str(wav), str(wav)])
    assert rc == EXIT_OK
    b = float(load_checkpoint(checkpoint).params["head.score.b"].data[0])
    _, score = capsys.readouterr().out.strip().split("\t")
    assert abs(float(score) - (1.0 + 4.0 / (1.0 + np.exp(-b)))) < 1e-4
    # unreadable input
    rc = main(["score", "--checkpoint", str(checkpoint),
               str(tmp_path / "missing.wav")])
    assert rc == EXIT_USAGE


def test_analyze_modes(workdir, checkpoint, tmp_path, capsys):
    rc = main(["analyze", "--checkpoint", str(checkpoint),
               "--mode", "sweep"])      # missing --clean
    assert rc == EXIT_USAGE

    clean, csv = tmp_path / "clean.wav", tmp_path / "sweep.csv"
    write_wav(speechlike(seed=85, seconds=1.0), clean)
    rc = main(["analyze", "--checkpoint", str(checkpoint), "--mode", "sweep",
               "--clean", str(clean), "--kind", "clipping",
               "--out", str(csv)])
    assert rc == EXIT_OK
    rows = [l.split(",") for l in csv.read_text().splitlines()]
    assert rows[0] == ["strength", "mean_score"]
    assert [r[0] for r in rows[1:]] == ["0.1", "0.3", "0.5", "0.7", "0.9",
                                        "clean"]
    assert all(1.0 < float(r[1]) < 5.0 for r in rows[1:])

    out = tmp_path / "dist.json"
    rc = main(["analyze", "--checkpoint", str(checkpoint),
               "--mode", "distances", "--quadruples",
               str(workdir["manifest"]), "--out", str(out)])
    assert rc == EXIT_OK
    stats = json.loads(out.read_text())
    assert {"same_condition", "different_degradation",
            "different_utterance"} <= set(stats)

    lat = tmp_path / "latents.jsonl"
    rc = main(["analyze", "--checkpoint", str(checkpoint),
               "--mode", "latents", "--quadruples",
               str(workdir["manifest"]), "--out", str(lat)])
    assert rc == EXIT_OK
    rows = [json.loads(l) for l in lat.read_text().splitlines() if l]
    assert len(rows) == 12
    assert len(rows[0]["latent"]) == 200


def test_eval_needs_one_scorer(workdir, capsys):
    mos = ["--mos", str(workdir["mos_manifest"])]
    for argv in (["eval"] + mos,
                 ["eval", "--checkpoint", "m.ckpt", "--random-baseline"]
                 + mos):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == EXIT_USAGE
        assert "--random-baseline" in capsys.readouterr().err


# Each path-taking flag given a directory, a missing path or a file of the
# wrong kind; {dir}, {missing} and the others are filled in below.
_BAD_PATHS = {
    "config-dir": ["--config", "{dir}", "generate", "--pool", "{pool}",
                   "--n", "1"],
    "generate-pool-missing": ["generate", "--pool", "{missing}", "--n", "1"],
    "generate-pool-file": ["generate", "--pool", "{wav}", "--n", "1"],
    "generate-noise-pool-file": ["generate", "--pool", "{pool}",
                                 "--noise-pool", "{wav}", "--n", "1"],
    "generate-noise-pool-empty": ["generate", "--pool", "{pool}",
                                  "--noise-pool", "{dir}", "--n", "1",
                                  "--out", "{tmp}/q", "--manifest",
                                  "{tmp}/q.jsonl"],
    "generate-manifest-dir": ["generate", "--pool", "{pool}", "--n", "1",
                              "--out", "{tmp}/q", "--manifest", "{dir}"],
    "generate-out-file": ["generate", "--pool", "{pool}", "--n", "1",
                          "--out", "{wav}", "--manifest", "{tmp}/q.jsonl"],
    "train-quadruples-dir": ["train", "--quadruples", "{dir}",
                             "--out", "{tmp}/x.ckpt"],
    "train-quadruples-missing": ["train", "--quadruples", "{missing}",
                                 "--out", "{tmp}/x.ckpt"],
    "train-mos-dir": ["train", "--quadruples", "{quads}", "--mos", "{dir}",
                      "--out", "{tmp}/x.ckpt"],
    "train-jnd-dir": ["train", "--quadruples", "{quads}", "--jnd", "{dir}",
                      "--out", "{tmp}/x.ckpt"],
    "train-out-dir": ["train", "--quadruples", "{quads}", "--out", "{dir}"],
    "train-out-missing-dir": ["train", "--quadruples", "{quads}",
                              "--out", "{missing}/x.ckpt"],
    "train-log-missing-dir": ["train", "--quadruples", "{quads}",
                              "--out", "{tmp}/x.ckpt",
                              "--log", "{missing}/log.jsonl"],
    "eval-checkpoint-dir": ["eval", "--checkpoint", "{dir}",
                            "--quadruples", "{quads}"],
    "eval-checkpoint-missing": ["eval", "--checkpoint", "{missing}",
                                "--quadruples", "{quads}"],
    "eval-quadruples-dir": ["eval", "--random-baseline",
                            "--quadruples", "{dir}"],
    "eval-mos-dir": ["eval", "--random-baseline", "--mos", "{dir}"],
    "eval-mos-missing": ["eval", "--random-baseline", "--mos", "{missing}"],
    "eval-out-dir": ["eval", "--random-baseline", "--mos", "{mos}",
                     "--out", "{dir}"],
    "eval-out-missing-dir": ["eval", "--checkpoint", "{ckpt}", "--mos",
                             "{mos}", "--out", "{missing}/r.json"],
    "score-checkpoint-dir": ["score", "--checkpoint", "{dir}", "{wav}"],
    "score-reference-dir": ["score", "--checkpoint", "{ckpt}",
                            "--reference", "{dir}", "{wav}"],
    "score-wav-dir": ["score", "--checkpoint", "{ckpt}", "{dir}"],
    "analyze-checkpoint-dir": ["analyze", "--checkpoint", "{dir}",
                               "--mode", "distances", "--quadruples",
                               "{quads}"],
    "analyze-quadruples-dir": ["analyze", "--checkpoint", "{ckpt}",
                               "--mode", "distances", "--quadruples",
                               "{dir}"],
    "analyze-distances-out-dir": ["analyze", "--checkpoint", "{ckpt}",
                                  "--mode", "distances", "--quadruples",
                                  "{quads}", "--out", "{dir}"],
    "analyze-latents-out-dir": ["analyze", "--checkpoint", "{ckpt}",
                                "--mode", "latents", "--quadruples",
                                "{quads}", "--out", "{dir}"],
    "analyze-distances-out-missing-dir": ["analyze", "--checkpoint", "{ckpt}",
                                          "--mode", "distances",
                                          "--quadruples", "{quads}",
                                          "--out", "{missing}/d.json"],
    "analyze-latents-out-missing-dir": ["analyze", "--checkpoint", "{ckpt}",
                                        "--mode", "latents", "--quadruples",
                                        "{quads}", "--out", "{missing}/z"],
    "analyze-sweep-out-missing-dir": ["analyze", "--checkpoint", "{ckpt}",
                                      "--mode", "sweep", "--clean", "{wav}",
                                      "--kind", "clipping",
                                      "--out", "{missing}/s.csv"],
    "analyze-clean-dir": ["analyze", "--checkpoint", "{ckpt}", "--mode",
                          "sweep", "--clean", "{dir}", "--kind", "clipping"],
    "analyze-clean-short": ["analyze", "--checkpoint", "{ckpt}", "--mode",
                            "sweep", "--clean", "{short}",
                            "--kind", "clipping"],
}


@pytest.mark.parametrize("case", sorted(_BAD_PATHS))
def test_bad_path_exit_code(case, workdir, checkpoint, tmp_path, capsys,
                            monkeypatch):
    """One message line and exit 2, never a traceback; nothing trains,
    and nothing is scored or printed. An unusable --out is refused before
    any checkpoint is read."""
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    def load(path):
        loaded.append(path)
        return load_checkpoint(path)

    loaded = []
    monkeypatch.setattr(cli, "train", no_training)
    monkeypatch.setattr(cli, "load_checkpoint", load)
    wav, short = tmp_path / "x.wav", tmp_path / "short.wav"
    write_wav(speechlike(seed=86, seconds=1.0), wav)
    write_wav(speechlike(seed=87, seconds=1000 / 48000), short)
    (tmp_path / "dir").mkdir()
    names = {"dir": tmp_path / "dir", "missing": tmp_path / "missing",
             "wav": wav, "short": short, "tmp": tmp_path,
             "pool": workdir["pool"], "quads": workdir["manifest"],
             "mos": workdir["mos_manifest"], "ckpt": checkpoint}
    argv = [a.format(**names) for a in _BAD_PATHS[case]]
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.count("\n") == 1 and "error: " in err.lower(), err
    assert out == ""
    if "-out-" in case:
        assert not loaded
    assert not (tmp_path / "q.jsonl").exists()
    assert not (tmp_path / "q").exists()
