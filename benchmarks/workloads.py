"""The three benchmark workloads: set-up, one timed round, and the checks.

A round is a fixed list of timed operations, the same in every round of a
run; each belongs to one of two stages:

* synth: stage 1 is four `sesqa generate` calls (quadruples written per
  second), stage 2 loading every MEASURE_EVERY-th quadruple and
  `compute_measure_vector` on its (x_ik, x_jk) pair (measure vectors per
  second);
* train: one `training.train` call at width 0.25 with all eight losses, SWA
  and the checkpoint write included; stage 1 counts optimizer steps, stage 2
  the one-second frames that went through forward and backward;
* score: stage 1 one `sesqa eval` at width 1.0 (one-second clips per
  second, checkpoint load included), stage 2 one `sesqa score` per long WAV
  (seconds of audio per second).

`--seed` shapes the audio (the clean utterance pool and the long files).
The generation, model and training seeds are fixed, so every run draws the
same degradation chains and does the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import solve_toeplitz

import refenc
from sesqa import cli, measures, training
from sesqa.audio import AudioFrame, write_wav
from sesqa.degrade import CleanPool, generate_quadruple, quadruples
from sesqa.degrade.kinds import KIND_NAMES
from sesqa.model import Model, ModelConfig, load_checkpoint, save_checkpoint
from sesqa.objectives import LOSS_NAMES

RATE = 48000
FRAME = 48000
POOL_SIZE = 12
POOL_SECONDS = 3.3
GEN_SEEDS = (2024, 2025, 2026, 2027)   # chains drawn by synth and train
HELDOUT_SEED = 3000     # chains of the held-out quadruples scored by eval
MODEL_SEED = 7
TRAIN_SEED = 7

SYNTH_QUADS = 8         # per `sesqa generate` call, one call per seed
# a measure vector costs about eight quadruples; measuring every fourth
# quadruple leaves the generate stage a third of the timed run
MEASURE_EVERY = 4
TRAIN_QUADS = 8         # one batch: 8 quadruples + 4 MOS + 4 JND items
TRAIN_EPOCHS = 2        # one step per epoch
# frames encoded per step: 4 cuts per quadruple, the MOS items, and two
# frames per JND pair (MOS and JND items are each half the quadruple count)
TRAIN_FRAMES_PER_STEP = 4 * TRAIN_QUADS + TRAIN_QUADS // 2 + 2 * (TRAIN_QUADS // 2)
TRAIN_MULT = 0.25
EVAL_QUADS = 4          # one 16-clip chunk in `sesqa eval`
EVAL_MOS = 8
LONG_FILES = 3
LONG_SECONDS = 6.0
SCORE_MULT = 1.0

SCORE_TOL = 1e-3        # independent encoder vs CLI scores
PROBE_REPEATS = 3       # speed probes after each timed operation
LPC_COND_MAX = 1e6      # LLR is compared on pairs whose LPC systems are sound


# ----------------------------------------------------------------- inputs

def make_utterance(rng: np.random.Generator, duration: float) -> np.ndarray:
    """Harmonic tone with vibrato and a syllable-rate energy envelope."""
    t = np.arange(int(duration * RATE)) / RATE
    f0 = rng.uniform(90, 250)
    vib = 1.0 + 0.02 * np.sin(2 * np.pi * rng.uniform(2, 5) * t)
    x = np.zeros_like(t)
    for h in range(1, 9):
        x += rng.uniform(0.2, 1.0) / h * np.sin(2 * np.pi * h * f0 * vib * t)
    env = np.clip(np.sin(2 * np.pi * rng.uniform(1.5, 4.0) * t
                         + rng.uniform(0, 2 * np.pi)), 0, None) ** 0.5
    x = x * env + 0.01 * rng.normal(size=len(t))
    return (x / np.max(np.abs(x))).astype(np.float32)


def audio_rng(seed: int, *tags) -> np.random.Generator:
    """Generator for the audio of `--seed` (any integer, negative too)."""
    return np.random.default_rng([seed % (1 << 32), *tags])


def pool_frames(seed: int) -> list:
    return [AudioFrame(make_utterance(audio_rng(seed, 1, i), POOL_SECONDS),
                       RATE)
            for i in range(POOL_SIZE)]


def severity(chain) -> float:
    return float(sum(s.strength for s in chain))


def pseudo_mos(chain) -> float:
    """Monotone map from total chain strength to a [1, 5] label."""
    return 1.0 + 4.0 * max(0.0, 1.0 - min(1.0, severity(chain)))


def run_cli(argv) -> tuple:
    """(exit code, stdout, stderr) of an in-process `sesqa` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


_PROBE_MATRIX = np.random.default_rng(0).normal(size=(256, 256)).astype(np.float32)


def speed_probe(repeats=PROBE_REPEATS) -> list:
    """Seconds taken by a fixed mix of interpreter, BLAS and FFT work.

    The reference machine's speed drifts by 10 to 20% over tens of seconds
    (a fixed measure-vector loop timed in back-to-back 6 s windows varied
    that much); taken right after each timed operation, this probe follows
    the drift, and the end-to-end numbers are scaled by it (see run.py).
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * i
        b = _PROBE_MATRIX
        for _ in range(4):
            b = np.tanh(_PROBE_MATRIX @ b)
        np.fft.rfft(np.arange(1 << 15, dtype=np.float64))
        times.append(time.perf_counter() - t0)
    return times


@dataclass
class Round:
    """One round: ops maps (stage, key) -> (units of work, seconds); probes
    holds the speed-probe times taken after each operation."""

    ops: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    out: dict = field(default_factory=dict)

    def timed(self, stage: int, key, units: float, fn, *args):
        """Run fn(*args) as one timed operation, then probe the machine."""
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            seconds = time.perf_counter() - t0
            self.probes += speed_probe()
        self.ops[(stage, key)] = (units, seconds)
        return result


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ------------------------------------------------------------------ synth

class Synth:
    """Data path: `sesqa generate` (native kinds), then measure vectors."""

    name = "synth"

    def setup(self, seed: int, root: Path) -> dict:
        pool = root / "pool"
        pool.mkdir(parents=True)
        for i, frame in enumerate(pool_frames(seed)):
            write_wav(frame, pool / ("utt%02d.wav" % i))
        return {"pool": pool, "root": root}

    def round(self, st: dict, k: int) -> Round:
        per_call = SYNTH_QUADS + SYNTH_QUADS // MEASURE_EVERY
        r = Round(attempted=per_call * len(GEN_SEEDS))
        manifests, vectors = {}, {}
        for seed in GEN_SEEDS:
            manifest = st["root"] / ("quads%d.jsonl" % seed)
            rc, _, err = r.timed(1, seed, SYNTH_QUADS, run_cli, [
                "generate", "--pool", st["pool"], "--out",
                st["root"] / ("quads%d" % seed), "--manifest", manifest,
                "--n", SYNTH_QUADS, "--seed", seed])
            if rc != 0:
                r.failed += per_call
                r.out.setdefault("errors", []).append(err)
                continue
            manifests[seed] = manifest.read_bytes()
            records = quadruples.read_quadruple_manifest(manifest)
            for rec in records[::MEASURE_EVERY]:
                try:
                    vectors[seed, rec["id"]] = r.timed(
                        2, (seed, rec["id"]), 1, load_and_measure, rec)
                except Exception as e:  # counted, reported by the check
                    r.failed += 1
                    r.out.setdefault("errors", []).append(repr(e))
        r.out.update(manifests=manifests, vectors=vectors)
        return r

    def check(self, st: dict, rounds) -> list:
        bad = []
        first = rounds[0].out
        for r in rounds:
            if r.failed:
                bad.append("synth: %d failed operations" % r.failed)
        if any(r.out != first for r in rounds):
            bad.append("manifests or measure vectors differ between rounds")
        if bad:
            return bad
        for vec in first["vectors"].values():
            if sorted(vec) != sorted(measures.MEASURE_NAMES) or not all(
                    math.isfinite(v) for v in vec.values()):
                bad.append("incomplete or non-finite measure vector %r" % vec)

        pool = CleanPool.from_directory(st["pool"])
        records = []
        for seed in GEN_SEEDS:
            recs = [json.loads(line) for line in
                    first["manifests"][seed].decode().splitlines()]
            parsed = quadruples.read_quadruple_manifest(
                st["root"] / ("quads%d.jsonl" % seed))
            bad += self._check_quads(pool, seed, recs, parsed)
            records += recs
        bad += measure_property_checks(pool_frames_from(st["pool"]), records)
        return bad

    @staticmethod
    def _check_quads(pool, seed, records, parsed) -> list:
        bad = []
        n = FRAME
        for rec, prec in zip(records, parsed):
            i = rec["id"]
            q = generate_quadruple(pool, np.random.default_rng([seed, i]))
            wavs = {tag: refenc.read_wav_f32(rec["wav_" + tag])
                    for tag in ("ik", "il", "jk", "jl")}
            for tag, frame in zip(("ik", "il", "jk", "jl"), q.frames()):
                if not np.array_equal(wavs[tag], frame.samples):
                    bad.append("%d/q%d %s: WAV differs from in-memory frame"
                               % (seed, i, tag))
            d = int(round(rec["delay_ms"] * RATE / 1000.0))
            for a, b in (("ik", "il"), ("jk", "jl")):
                if not np.array_equal(wavs[a][d:], wavs[b][:n - d]):
                    bad.append("%d/q%d: x_%s[d:] != x_%s[:n-d]" % (seed, i, a, b))
            ci, cj = rec["chain_i"], rec["chain_j"]
            if cj[:len(ci)] != ci:
                bad.append("%d/q%d: chain_j does not start with chain_i" % (seed, i))
            loaded = quadruples.load_quadruple(prec)
            for chain, dt_prog, ds_prog in (
                    (ci, loaded.dt_targets_i, loaded.ds_targets_i),
                    (cj, loaded.dt_targets_j, loaded.ds_targets_j)):
                dt, ds = chain_targets_from_specs(chain)
                if not (np.array_equal(dt, dt_prog)
                        and np.array_equal(ds, ds_prog)):
                    bad.append("%d/q%d: dt/ds targets differ" % (seed, i))
        return bad


def load_and_measure(rec) -> dict:
    """What `train --compute-measures` does for one manifest record."""
    q = quadruples.load_quadruple(rec)
    return measures.compute_measure_vector(q.x_ik.samples,
                                           q.x_jk.samples).values


def chain_targets_from_specs(chain) -> tuple:
    """dt: one flag per kind plus a final 'clean' flag; ds: max strength."""
    dt = np.zeros(len(KIND_NAMES) + 1, dtype=np.float32)
    ds = np.zeros(len(KIND_NAMES), dtype=np.float32)
    if not chain:
        dt[-1] = 1.0
    for spec in chain:
        i = KIND_NAMES.index(spec["kind"])
        dt[i] = 1.0
        ds[i] = max(ds[i], np.float32(spec["strength"]))
    return dt, ds


def pool_frames_from(pool_dir) -> list:
    return [refenc.read_wav_f32(p) for p in sorted(Path(pool_dir).glob("*.wav"))]


def lpc_llr(ref: np.ndarray, deg: np.ndarray, order=16) -> tuple:
    """(LLR, worst condition number) over 30 ms Hann frames, hop 7.5 ms,
    with LPC coefficients from a Toeplitz solve."""
    ref = np.asarray(ref, np.float64)
    deg = np.asarray(deg, np.float64)
    size = int(round(0.030 * RATE))
    win = np.hanning(size)
    lags = np.abs(np.subtract.outer(np.arange(order + 1), np.arange(order + 1)))
    vals, cond = [], 1.0
    for s in range(0, len(ref) - size + 1, size // 4):
        fr, fd = ref[s:s + size] * win, deg[s:s + size] * win
        ac_r = np.array([fr[:size - k] @ fr[k:] for k in range(order + 1)])
        ac_d = np.array([fd[:size - k] @ fd[k:] for k in range(order + 1)])
        if ac_r[0] <= 1e-12:
            continue
        cond = max(cond, np.linalg.cond(ac_r[lags[:order, :order]]),
                   np.linalg.cond(ac_d[lags[:order, :order]]))
        a_r = np.concatenate([[1.0], solve_toeplitz(ac_r[:order], -ac_r[1:])])
        a_d = np.concatenate([[1.0], solve_toeplitz(ac_d[:order], -ac_d[1:])])
        big_r = ac_r[lags]
        vals.append(np.log(max((a_d @ big_r @ a_d) / (a_r @ big_r @ a_r),
                               1e-12)))
    return float(np.mean(vals)), cond


def si_sdr_formula(ref, deg) -> float:
    ref = np.asarray(ref, np.float64)
    deg = np.asarray(deg, np.float64)
    target = (deg @ ref) / (ref @ ref) * ref
    noise = deg - target
    return float(10.0 * np.log10((target @ target) / (noise @ noise)))


def noise_at(clean, snr_db, rng) -> np.ndarray:
    """White noise orthogonal to `clean`, scaled to `snr_db` below it."""
    noise = rng.normal(size=len(clean))
    noise -= (noise @ clean) / (clean @ clean) * clean
    return noise * np.sqrt((clean @ clean) / (noise @ noise) / 10 ** (snr_db / 10))


def measure_property_checks(pool, records) -> list:
    """Optima on identical inputs, SI-SDR at a known SNR, LLR vs Toeplitz."""
    bad = []
    clean = np.asarray(pool[0][:FRAME], np.float64)
    optimum = {"ssnr": measures.SSNR_MAX_DB, "llr": 0.0, "wssd": 0.0,
               "stoi": 1.0, "sisdr": measures.SISDR_CAP_DB, "mcd": 0.0,
               "lmbd": 0.0}
    for name, want in optimum.items():
        got = measures.compute_measure(name, clean, clean)
        if not abs(got - want) <= 1e-9:
            bad.append("%s(x, x) = %r, optimum is %r" % (name, got, want))

    rng = np.random.default_rng(11)
    for snr in (0.0, 10.0, 20.0):
        noise = noise_at(clean, snr, rng)
        got = measures.sisdr(clean, clean + noise)
        want = si_sdr_formula(clean, clean + noise)
        if not (abs(got - want) <= 1e-6 and abs(want - snr) <= 1e-6):
            bad.append("sisdr at %g dB: program %r, formula %r"
                       % (snr, got, want))

    # LPC fits of strongly low-passed frames are ill-conditioned, and there
    # any two solvers disagree; compare where the normal equations are sound
    pairs = [(clean, clean + noise_at(clean, snr, rng), "noise %g dB" % snr)
             for snr in (0.0, 20.0)]
    pairs += [(refenc.read_wav_f32(rec["wav_ik"]),
               refenc.read_wav_f32(rec["wav_jk"]), rec["wav_jk"])
              for rec in records]
    compared = 0
    for ref, deg, label in pairs:
        want, cond = lpc_llr(ref, deg)
        if cond > LPC_COND_MAX:
            continue
        got = measures.llr(ref, deg)
        if not _close(got, want, 1e-6):
            bad.append("%s llr: program %r, Toeplitz LPC %r"
                       % (label, got, want))
        compared += 1
        if compared == 5:
            break
    return bad


# ------------------------------------------------------------------ train

class Train:
    """`training.train` at width 0.25, all eight losses, SWA + checkpoint."""

    name = "train"

    def setup(self, seed: int, root: Path) -> dict:
        root.mkdir(parents=True)
        pool = CleanPool({"synth": pool_frames(seed)})
        quads = [generate_quadruple(pool,
                                    np.random.default_rng([GEN_SEEDS[0], i]))
                 for i in range(TRAIN_QUADS)]
        mos = [(f.samples, pseudo_mos(c)) for q in quads
               for f, c in ((q.x_ik, q.chain_i), (q.x_jk, q.chain_j))]
        jnd = [(q.x_ik.samples, q.x_il.samples, 0.0) for q in quads]
        jnd += [(q.x_ik.samples, q.x_jk.samples, 1.0) for q in quads
                if severity(q.chain_j) - severity(q.chain_i) > 0.05]
        lookup = {i: measures.compute_measure_vector(q.x_ik.samples,
                                                     q.x_jk.samples)
                  for i, q in enumerate(quads)}
        return {"root": root, "quads": quads, "mos": mos, "jnd": jnd,
                "lookup": lookup}

    def round(self, st: dict, k: int) -> Round:
        r = Round(attempted=TRAIN_EPOCHS)
        ckpt = st["root"] / ("round%d.ckpt" % k)
        model = Model(ModelConfig(channel_mult=TRAIN_MULT,
                                  measure_names=measures.MEASURE_NAMES,
                                  seed=MODEL_SEED))
        cfg = training.TrainConfig(epochs=TRAIN_EPOCHS,
                                   batch_size=TRAIN_QUADS, seed=TRAIN_SEED)
        # a round is one long call: probe the machine after each step too,
        # through the public progress hook, and take that time back out
        probing = []

        def after_step(rec):
            t0 = time.perf_counter()
            r.probes += speed_probe()
            probing.append(time.perf_counter() - t0)

        try:
            log = r.timed(1, "train", TRAIN_EPOCHS, training.train, model, cfg,
                          st["quads"], st["mos"], st["jnd"], st["lookup"],
                          None, ckpt, after_step)
        except Exception as e:  # counted, then reported by the check
            r.failed = r.attempted
            r.out["error"] = repr(e)
            return r
        secs = r.ops[1, "train"][1] - sum(probing)
        r.ops[1, "train"] = (len(log), secs)
        r.ops[2, "train"] = (len(log) * TRAIN_FRAMES_PER_STEP, secs)
        r.out.update(log=log, ckpt=ckpt, model=model)
        return r

    def check(self, st: dict, rounds) -> list:
        bad = []
        for r in rounds:
            if r.failed:
                bad.append("train: %s" % r.out.get("error"))
                continue
            for rec in r.out["log"]:
                vals = [v for k, v in rec.items() if k not in ("step", "epoch")]
                if not all(math.isfinite(v) for v in vals):
                    bad.append("non-finite log record %r" % rec)
                missing = set(LOSS_NAMES) - set(rec)
                if missing:
                    bad.append("step %d: losses did not fire: %s"
                               % (rec["step"], sorted(missing)))
                parts = sum(rec[n] for n in LOSS_NAMES
                            if n in rec)
                if not _close(rec["total"], parts, 1e-5):
                    bad.append("step %d: total %r != sum of parts %r"
                               % (rec["step"], rec["total"], parts))
            mine = r.out["model"].state_arrays()
            back = load_checkpoint(r.out["ckpt"]).state_arrays()
            if sorted(mine) != sorted(back) or not all(
                    np.array_equal(mine[n], back[n]) for n in mine):
                bad.append("checkpoint does not load back to the same arrays")
        blobs = {Path(r.out["ckpt"]).read_bytes() for r in rounds
                 if not r.failed}
        if len(blobs) > 1:
            bad.append("checkpoints of the same seeds differ between rounds")
        return bad


# ------------------------------------------------------------------ score

class Score:
    """Inference at width 1.0 through `sesqa eval` and `sesqa score`."""

    name = "score"

    def setup(self, seed: int, root: Path) -> dict:
        root.mkdir(parents=True)
        pool = CleanPool({"synth": pool_frames(seed)})
        quads = [generate_quadruple(pool,
                                    np.random.default_rng([HELDOUT_SEED, i]))
                 for i in range(EVAL_QUADS)]
        qman = root / "heldout.jsonl"
        quadruples.write_quadruple_manifest(enumerate(quads), root / "quads",
                                            qman)

        mos_lines = []
        clips = [(f, c) for q in quads
                 for f, c in ((q.x_ik, q.chain_i), (q.x_jk, q.chain_j))]
        for i, (frame, chain) in enumerate(clips[:EVAL_MOS]):
            path = root / ("mos%02d.wav" % i)
            write_wav(frame, path)
            label = pseudo_mos(chain)
            listeners = [min(5.0, max(1.0, label + d)) for d in (-0.5, 0, 0.5)]
            mos_lines.append(json.dumps({"path": str(path), "mos": label,
                                         "listener_scores": listeners}))
        mman = root / "mos.jsonl"
        mman.write_text("\n".join(mos_lines) + "\n")

        longs = []
        for i in range(LONG_FILES):
            path = root / ("long%d.wav" % i)
            write_wav(AudioFrame(make_utterance(audio_rng(seed, 2, i),
                                                LONG_SECONDS), RATE), path)
            longs.append(path)

        # BatchNorm stats from every clip the round scores (and the first
        # second of each long file) keep all latents in range; stats from a
        # few clips leave other inputs with latents in the hundreds, whose
        # scores round to exactly 1 or 5. Without gradients the pass builds
        # no autodiff graph, so set-up does not raise the peak RSS.
        model = Model(ModelConfig(channel_mult=SCORE_MULT, seed=MODEL_SEED))
        sample = np.stack([f.samples for q in quads for f in q.frames()]
                          + [refenc.read_wav_f32(p)[:FRAME] for p in longs])
        for p in model.params.values():
            p.requires_grad = False
        training.recalibrate_bn(model, sample)
        for p in model.params.values():
            p.requires_grad = True
        ckpt = root / "model.ckpt"
        save_checkpoint(model, ckpt)
        return {"ckpt": ckpt, "quads": qman, "mos": mman, "longs": longs,
                "report": root / "report.json"}

    def round(self, st: dict, k: int) -> Round:
        n_clips = 4 * EVAL_QUADS + EVAL_MOS
        r = Round(attempted=n_clips + LONG_FILES)
        rc, out, err = r.timed(1, "eval", n_clips, run_cli, [
            "eval", "--checkpoint", st["ckpt"], "--quadruples", st["quads"],
            "--mos", st["mos"], "--out", st["report"]])
        if rc != 0:
            r.failed += n_clips
            r.out["error"] = err
        r.out["report"] = json.loads(out) if rc == 0 else None
        scores = r.out["scores"] = {}
        for path in st["longs"]:
            rc, out, err = r.timed(2, str(path), LONG_SECONDS, run_cli,
                                   ["score", "--checkpoint", st["ckpt"], path])
            if rc != 0 or not out.strip():
                r.failed += 1
                r.out["error"] = err
                continue
            name, value = out.strip().split("\t")
            scores[name] = float(value)
        return r

    def check(self, st: dict, rounds) -> list:
        bad = ["score: %s" % r.out.get("error") for r in rounds if r.failed]
        first = rounds[0].out
        if any(r.out != first for r in rounds):
            bad.append("eval reports or scores differ between rounds")
        rep = first.get("report")
        if bad or rep is None:
            return bad or ["no eval report"]

        if not _close(rep["e_total"],
                      0.5 * rep["l_mos"] + rep["r_rank"] + rep["l_cons"], 1e-12):
            bad.append("e_total != 0.5*l_mos + r_rank + l_cons")
        for path, s in first["scores"].items():
            if not 1.0 < s < 5.0:
                bad.append("score %r of %s is outside (1, 5)" % (s, path))

        arrays = refenc.read_checkpoint_arrays(st["ckpt"])
        recs = [json.loads(line) for line in open(st["quads"])]
        quad = np.stack([[refenc.read_wav_f32(rec["wav_" + t])
                          for t in ("ik", "il", "jk", "jl")] for rec in recs])
        s_quad = refenc.score(arrays, quad.reshape(-1, FRAME)).reshape(-1, 4)
        mos = [json.loads(line) for line in open(st["mos"])]
        s_mos = refenc.score(arrays, np.stack(
            [refenc.read_wav_f32(m["path"])[:FRAME] for m in mos]))
        labels = np.array([m["mos"] for m in mos])
        if not np.all((s_quad > 1) & (s_quad < 5)) or not np.all(
                (s_mos > 1) & (s_mos < 5)):
            bad.append("independent scores outside (1, 5)")

        l_mos = float(np.mean(np.abs(s_mos - labels)))
        if abs(l_mos - rep["l_mos"]) > SCORE_TOL:
            bad.append("l_mos %r, independent encoder %r" % (rep["l_mos"], l_mos))
        s_i = np.concatenate([s_quad[:, 0], s_quad[:, 1]])
        s_j = np.concatenate([s_quad[:, 2], s_quad[:, 3]])
        near = np.abs(s_i - s_j) <= SCORE_TOL
        wrong = np.sum((s_i <= s_j) & ~near)
        if not wrong <= rep["r_rank"] * len(s_i) <= wrong + np.sum(near):
            bad.append("r_rank %r, independent encoder %r"
                       % (rep["r_rank"], wrong / len(s_i)))
        beta = 0.1
        a, b, c, d = s_quad.T
        cons = (0.25 * (np.abs(a - b) + np.abs(np.abs(a - c) - np.abs(b - d)))
                + (beta - np.minimum(np.abs(a - c), beta)) / (2 * beta))
        if abs(float(np.mean(cons)) - rep["l_cons"]) > 12 * SCORE_TOL:
            bad.append("l_cons %r, independent encoder %r"
                       % (rep["l_cons"], float(np.mean(cons))))

        path = str(st["longs"][0])
        want = float(refenc.score(arrays, refenc.read_wav_f32(path))[0])
        got = first["scores"].get(path)
        if got is None or abs(got - want) > SCORE_TOL:
            bad.append("score of %s: CLI %r, independent encoder %r"
                       % (path, got, want))
        return bad


WORKLOADS = {w.name: w for w in (Synth, Train, Score)}
