import json
import os
import struct

import numpy as np
import pytest

from sesqa.cli import (EXIT_CHECKPOINT, EXIT_OK, EXIT_USAGE, UsageError,
                       main, resolve_option)
from sesqa.audio import write_wav
from sesqa.model import load_checkpoint

from conftest import speechlike, wav_bytes


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


def test_resolve_option_precedence(monkeypatch):
    file_cfg = {"epochs": 5}
    assert resolve_option("epochs", None, {}, default=3, cast=int) == 3
    assert resolve_option("epochs", None, file_cfg, default=3, cast=int) == 5
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
    again = tmp_path / "again.ckpt"
    rc = main(["train", "--quadruples", str(workdir["manifest"]),
               "--mos", str(workdir["mos_manifest"]),
               "--out", str(again), "--epochs", "1", "--batch-size", "6",
               "--channels", "0.25", "--loss-mask", "mos", "--seed", "1"])
    assert rc == EXIT_OK
    assert again.read_bytes() == checkpoint.read_bytes()


def test_train_bad_loss_mask(workdir, tmp_path):
    rc = main(["train", "--quadruples", str(workdir["manifest"]),
               "--out", str(tmp_path / "x.ckpt"), "--epochs", "1",
               "--channels", "0.25", "--loss-mask", "mos,bogus"])
    assert rc == EXIT_USAGE


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
    cases = ((train, b"{not json\n"),
             (train, json.dumps(no_chain).encode()),
             (train, json.dumps(bad_kind).encode()),
             (mos, b'{"path": "a.wav", "listener_scores": [3]}\n'),
             (mos, b'{"path": "\xff\xfe.wav", "mos": 3}\n'))
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
