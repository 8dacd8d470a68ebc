"""Command-line surface for the pipeline.

Subcommands: generate (quadruple synthesis), train, eval, score, analyze.
The SETTINGS may also come from a config file or SESQA_* variables, with
precedence file < environment < flags. Exit codes: 0 success, 2 usage or
input error, 3 numerical failure, 4 checkpoint incompatibility.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import evaluation
from .audio import read_wav_48k
from .degrade import (CleanPool, PoolExhaustedError, FIRST_STAGE,
                      SECOND_STAGE, UnavailableDegradationError,
                      read_quadruple_manifest, sample_chain,
                      write_quadruple_manifest)
from .degrade.kinds import KIND_NAMES, NATIVE_KINDS
from .degrade.quadruples import iter_quadruples, load_quadruple
from .degrade.transcode import validate_template
from .measures import MEASURE_NAMES, compute_measure_vector
from .model import CheckpointError, Model, ModelConfig, load_checkpoint
from .objectives import check_loss_mask
from .training import (FRAME_SAMPLES, TrainConfig, load_jnd_items,
                       load_mos_items, read_jnd_manifest, read_mos_manifest,
                       train)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_CHECKPOINT = 4

ENV_PREFIX = "SESQA_"
CHECK_DRAWS = 100000      # chains per stage drawn by `generate --check`


class UsageError(ValueError):
    pass


def _load_config_file(path):
    if path is None:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError("cannot read config file %s: %s" % (path, e))
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def resolve_option(name, flag_value, file_config, default=None, cast=str):
    """file < environment < flag, with type casting."""
    value = file_config.get(name, default)
    env = os.environ.get(ENV_PREFIX + name.upper())
    if env is not None:
        value = env
    if flag_value is not None:
        value = flag_value
    if value is None:
        return None
    # a config file's true or 2.7 must not pass as 1 or 2
    if isinstance(value, bool) or (cast is int and isinstance(value, float)):
        raise UsageError("bad value for %s: %r" % (name, value))
    try:
        return cast(value)
    except (TypeError, ValueError) as e:
        raise UsageError("bad value for %s: %s" % (name, e))


def _parse_loss_mask(text):
    """Comma-separated loss names -> a checked mask tuple (ValueError)."""
    return check_loss_mask(t.strip() for t in str(text).split(",")
                           if t.strip())


# The settings that a config file or SESQA_<NAME> may also give, with their
# casts; each is the `dest` of the command's flag of the same name.
SETTINGS = {
    "generate": {"n": int, "seed": int, "transcoder_cmd": str},
    "train": {"seed": int, "epochs": int, "batch_size": int, "base_lr": float,
              "channels": float, "loss_mask": _parse_loss_mask},
}


def _check_new_file(path) -> None:
    """Fail now, not after the work whose result `path` would hold, when
    it is a directory or lies in a missing one."""
    if os.path.isdir(path):
        raise UsageError("%s is a directory" % path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError("directory of %s not found" % path)


# ----------------------------------------------------------- subcommands

def cmd_generate(args) -> int:
    if args.transcoder_cmd is not None:
        validate_template(args.transcoder_cmd)
    if args.check:     # draws chain lengths only: reads no audio, needs no --n
        return _generate_check(args.seed or 0, args.transcoder_cmd)
    if (args.n or 0) <= 0:
        raise UsageError("--n must be a positive integer")
    pool = CleanPool.from_directory(args.pool)
    noise_pool = None
    if args.noise_pool:
        noise_pool = [read_wav_48k(os.path.join(args.noise_pool, p))
                      for p in sorted(os.listdir(args.noise_pool))
                      if p.endswith(".wav")]
        if not noise_pool:
            raise UsageError("no WAV files found under %s" % args.noise_pool)

    _check_new_file(args.manifest)
    write_quadruple_manifest(
        iter_quadruples(pool, args.n, args.seed or 0, noise_pool=noise_pool,
                        transcoder_cmd=args.transcoder_cmd),
        args.out, args.manifest)
    print("wrote %d quadruples to %s (manifest %s)"
          % (args.n, args.out, args.manifest))
    return EXIT_OK


def _generate_check(seed, transcoder_cmd) -> int:
    """Validate empirical chain-length frequencies against their nominal
    distributions."""
    available = KIND_NAMES if transcoder_cmd else NATIVE_KINDS
    rng = np.random.default_rng(seed)
    ok = True
    for stage, dist in (("first", FIRST_STAGE), ("second", SECOND_STAGE)):
        lengths = [len(sample_chain(stage, rng, available=available))
                   for _ in range(CHECK_DRAWS)]
        counts = np.bincount(lengths, minlength=dist.counts[-1] + 1)
        for c, p in zip(dist.counts, dist.count_probs):
            freq = counts[c] / CHECK_DRAWS
            sigma = np.sqrt(p * (1 - p) / CHECK_DRAWS)
            line_ok = abs(freq - p) <= 3 * sigma
            ok = ok and line_ok
            print("%s stage length %d: %.4f (expected %.2f) %s"
                  % (stage, c, freq, p, "ok" if line_ok else "OFF"))
    return EXIT_OK if ok else EXIT_NUMERICAL


def _emit(text, path) -> None:
    """Print a report, and write it to `path` too when one is given."""
    print(text)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")


def _load_quads(manifest_path):
    return [load_quadruple(rec) for rec in
            read_quadruple_manifest(manifest_path)]


def cmd_train(args) -> int:
    given = {k: getattr(args, k) for k in SETTINGS["train"]
             if getattr(args, k) is not None}
    mult = given.pop("channels", ModelConfig.channel_mult)
    cfg = TrainConfig(**given)
    with_mr = "mr" in cfg.loss_mask
    model_cfg = ModelConfig(channel_mult=mult, seed=cfg.seed,
                            measure_names=MEASURE_NAMES if with_mr else ())
    for path in filter(None, (args.out, args.log)):
        _check_new_file(path)
    model = Model(model_cfg)   # before any data: a width too large fails now

    quads = _load_quads(args.quadruples)
    mos_items = jnd_items = None
    if args.mos:
        mos_items = load_mos_items(read_mos_manifest(args.mos))
    if args.jnd:
        jnd_items = load_jnd_items(read_jnd_manifest(args.jnd))

    measure_lookup = None
    if with_mr:
        measure_lookup = {
            i: compute_measure_vector(q.x_ik.samples, q.x_jk.samples)
            for i, q in enumerate(quads)}

    train(model, cfg, quads, mos_items=mos_items, jnd_items=jnd_items,
          measure_lookup=measure_lookup, log_path=args.log,
          checkpoint_path=args.out)
    print("checkpoint written to %s" % args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.kfold is not None and not args.mos:
        raise UsageError("--kfold needs --mos")
    if args.kfold is not None and args.kfold < 1:
        raise UsageError("--kfold must be at least 1, got %d" % args.kfold)
    if args.out:
        _check_new_file(args.out)
    if args.random_baseline:   # one draw from U(1, 5) per clip
        rng = np.random.default_rng(args.seed)
        score = lambda clips: rng.uniform(1.0, 5.0, size=len(clips))
    else:
        model = load_checkpoint(args.checkpoint)
        score = lambda clips: model.infer(clips)[1]
    report = {}
    if args.quadruples:
        quads = _load_quads(args.quadruples)
        s_ik, s_il, s_jk, s_jl = score(
            [f.samples for q in quads for f in q.frames()]).reshape(-1, 4).T
        both_i = np.concatenate([s_ik, s_il])
        both_j = np.concatenate([s_jk, s_jl])
        report["r_rank"] = evaluation.eval_rank(both_i, both_j)
        report["l_cons"] = evaluation.eval_cons((s_ik, s_il, s_jk, s_jl))

    if args.mos:
        manifest = read_mos_manifest(args.mos)
        items = load_mos_items(manifest)
        labels = np.array([mos for _, mos in items])
        if args.kfold is not None and args.kfold > len(items):
            raise UsageError("--kfold must be between 1 and the %d MOS items,"
                             " got %d" % (len(items), args.kfold))
        # every item is at least 1 s long; score its first second
        preds = score([samples[:FRAME_SAMPLES] for samples, _ in items])
        if args.kfold is not None:
            split = evaluation.kfold_split(len(items), args.kfold,
                                           seed=args.seed)
            folds = [evaluation.eval_mos(preds[f], labels[f]) for f in split]
            report["l_mos_folds"] = folds
            report["l_mos"] = float(np.mean(folds))
        else:
            report["l_mos"] = evaluation.eval_mos(preds, labels)
        try:
            rho_p, rho_s = evaluation.correlations(preds, labels)
            report["pearson"], report["spearman"] = rho_p, rho_s
        except evaluation.UndefinedCorrelationError:
            pass
        listeners = [r["listener_scores"] for r in manifest
                     if len(r.get("listener_scores", [])) >= 2]
        if listeners:
            report["human_baseline"] = evaluation.human_baseline(listeners)

    if {"l_mos", "r_rank", "l_cons"} <= set(report):
        report["e_total"] = evaluation.e_total(
            report["l_mos"], report["r_rank"], report["l_cons"])

    _emit(json.dumps(report, indent=2), args.out)
    return EXIT_OK


def cmd_score(args) -> int:
    model = load_checkpoint(args.checkpoint)
    ref_z = None
    if args.reference:
        try:
            ref_z, _ = model.infer([read_wav_48k(args.reference).samples])
        except (OSError, ValueError) as e:  # unreadable, malformed or short
            raise UsageError("reference %s: %s" % (args.reference, e)) from e
    status = EXIT_OK
    for path in args.wavs:
        try:
            z, s = model.infer([read_wav_48k(path).samples])
            if ref_z is not None:
                s = model.score_reference(z, ref_z)
            print("%s\t%.4f" % (path, float(s[0])))
        except (OSError, ValueError) as e:
            print("%s\tERROR: %s" % (path, e), file=sys.stderr)
            status = EXIT_USAGE
    return status


def cmd_analyze(args) -> int:
    if args.mode == "sweep" and not args.clean:
        raise UsageError("sweep mode needs --clean WAV")
    if args.mode == "sweep" and args.kind not in NATIVE_KINDS:
        raise UsageError("sweep mode needs --kind, one of the native "
                         "kinds: %s" % ", ".join(NATIVE_KINDS))
    if args.mode != "sweep" and not args.quadruples:
        raise UsageError("%s mode needs --quadruples" % args.mode)
    if args.mode == "latents" and not args.out:
        raise UsageError("latents mode needs --out")
    if args.out:
        _check_new_file(args.out)
    model = load_checkpoint(args.checkpoint)
    if args.mode == "sweep":
        frame = read_wav_48k(args.clean)
        curve = evaluation.strength_sweep(model, frame, args.kind,
                                          seed=args.seed)
        lines = ["strength,mean_score"]
        lines += ["%g,%.4f" % (s, v) for s, v in
                  zip(curve["strengths"], curve["mean_scores"])]
        lines.append("clean,%.4f" % curve["clean_score"])
        _emit("\n".join(lines), args.out)
        return EXIT_OK
    if args.mode == "distances":
        stats = evaluation.latent_distance_stats(
            model, _load_quads(args.quadruples))
        _emit(json.dumps(stats, indent=2), args.out)
        return EXIT_OK
    items = [(i, q.x_ik.samples, {"kinds": [s.kind for s in q.chain_i]})
             for i, q in enumerate(_load_quads(args.quadruples))]
    evaluation.export_latents(model, items, args.out)
    print("wrote %d latents to %s" % (len(items), args.out))
    return EXIT_OK


# ------------------------------------------------------------ entrypoint

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sesqa",
                                description="speech quality toolkit")
    p.add_argument("--config", help="JSON config file")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize quadruples")
    g.add_argument("--pool", required=True, help="clean speech directory")
    g.add_argument("--out", default="quads", help="output WAV directory")
    g.add_argument("--manifest", default="quads.jsonl")
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--noise-pool")
    g.add_argument("--transcoder-cmd")
    g.add_argument("--check", action="store_true",
                   help="validate chain distributions instead of writing")

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--quadruples", required=True, help="quadruple manifest")
    t.add_argument("--mos", help="MOS manifest")
    t.add_argument("--jnd", help="JND manifest")
    t.add_argument("--out", default="model.ckpt")
    t.add_argument("--log", default=None)
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--lr", type=float, dest="base_lr")
    t.add_argument("--channels", type=float, help="channel multiplier")
    t.add_argument("--loss-mask", help="comma-separated loss names")
    t.add_argument("--seed", type=int)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    scorer = e.add_mutually_exclusive_group(required=True)
    scorer.add_argument("--checkpoint")
    scorer.add_argument("--random-baseline", action="store_true")
    e.add_argument("--quadruples")
    e.add_argument("--mos")
    e.add_argument("--kfold", type=int)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out")

    s = sub.add_parser("score", help="score WAV files")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--reference")
    s.add_argument("wavs", nargs="+")

    a = sub.add_parser("analyze", help="latent analyses")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--mode", choices=("distances", "sweep", "latents"),
                   required=True)
    a.add_argument("--quadruples")
    a.add_argument("--clean")
    a.add_argument("--kind")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out")
    return p


_COMMANDS = {"generate": cmd_generate, "train": cmd_train,
             "eval": cmd_eval, "score": cmd_score, "analyze": cmd_analyze}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_config = _load_config_file(args.config)
        for name, cast in SETTINGS.get(args.command, {}).items():
            setattr(args, name, resolve_option(name, getattr(args, name),
                                               file_config, cast=cast))
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError("bad seed %d" % args.seed)
        return _COMMANDS[args.command](args)
    except CheckpointError as e:   # a ValueError, so caught first
        print("checkpoint error: %s" % e, file=sys.stderr)
        return EXIT_CHECKPOINT
    except FloatingPointError as e:
        print("numerical failure: %s" % e, file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError, MemoryError, PoolExhaustedError,
            UnavailableDegradationError) as e:   # unreadable or bad input
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
