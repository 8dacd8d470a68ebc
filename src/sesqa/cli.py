"""Command-line surface for the pipeline.

Subcommands: generate (quadruple synthesis), train, eval, score, analyze.
Configuration precedence is config file < SESQA_* environment variables <
command-line flags. Exit codes: 0 success, 2 usage/input error,
3 numerical failure, 4 checkpoint incompatibility.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import evaluation
from .audio import (AudioFormatError, DegenerateInputError, read_wav,
                    read_wav_48k)
from .degrade import (CleanPool, PoolExhaustedError, FIRST_STAGE,
                      SECOND_STAGE, read_quadruple_manifest,
                      write_quadruple_manifest)
from .degrade.quadruples import iter_quadruples, load_quadruple
from .manifest import ManifestError
from .measures import MEASURE_NAMES, compute_measure_vector
from .model import CheckpointError, Model, ModelConfig, load_checkpoint
from .objectives import LOSS_NAMES
from .training import (FRAME_SAMPLES, TrainConfig, load_jnd_items,
                       load_mos_items, read_jnd_manifest, read_mos_manifest,
                       train)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_CHECKPOINT = 4

ENV_PREFIX = "SESQA_"


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
    try:
        return cast(value)
    except (TypeError, ValueError) as e:
        raise UsageError("bad value for %s: %s" % (name, e))


def _parse_loss_mask(text):
    names = tuple(t.strip() for t in str(text).split(",") if t.strip())
    bad = set(names) - set(LOSS_NAMES)
    if bad:
        raise UsageError("unknown losses: %s (known: %s)"
                         % (", ".join(sorted(bad)), ", ".join(LOSS_NAMES)))
    if not names:
        raise UsageError("empty loss mask")
    return names


# ----------------------------------------------------------- subcommands

def cmd_generate(args, file_config) -> int:
    n = resolve_option("n", args.n, file_config, default=0, cast=int)
    seed = resolve_option("seed", args.seed, file_config, default=0, cast=int)
    tc = resolve_option("transcoder_cmd", args.transcoder_cmd, file_config)
    if n <= 0:
        raise UsageError("--n must be a positive integer")
    if not args.pool or not os.path.isdir(args.pool):
        raise UsageError("clean pool directory not found: %r" % args.pool)
    pool = CleanPool.from_directory(args.pool)
    noise_pool = None
    if args.noise_pool:
        noise_pool = [read_wav(os.path.join(args.noise_pool, p))
                      for p in sorted(os.listdir(args.noise_pool))
                      if p.endswith(".wav")]

    if args.check:
        return _generate_check(seed, tc)

    os.makedirs(args.out, exist_ok=True)
    write_quadruple_manifest(
        iter_quadruples(pool, n, seed, noise_pool=noise_pool,
                        transcoder_cmd=tc),
        args.out, args.manifest)
    print("wrote %d quadruples to %s (manifest %s)"
          % (n, args.out, args.manifest))
    return EXIT_OK


def _generate_check(seed, transcoder_cmd, draws=100000) -> int:
    """Validate empirical chain-length frequencies against their nominal
    distributions."""
    from .degrade import sample_chain
    from .degrade.kinds import KIND_NAMES, NATIVE_KINDS
    available = KIND_NAMES if transcoder_cmd else NATIVE_KINDS
    rng = np.random.default_rng(seed)
    ok = True
    for stage, dist in (("first", FIRST_STAGE), ("second", SECOND_STAGE)):
        lengths = [len(sample_chain(stage, rng, available=available))
                   for _ in range(draws)]
        counts = np.bincount(lengths, minlength=dist.counts[-1] + 1)
        for c, p in zip(dist.counts, dist.count_probs):
            freq = counts[c] / draws
            sigma = np.sqrt(p * (1 - p) / draws)
            line_ok = abs(freq - p) <= 3 * sigma
            ok = ok and line_ok
            print("%s stage length %d: %.4f (expected %.2f) %s"
                  % (stage, c, freq, p, "ok" if line_ok else "OFF"))
    return EXIT_OK if ok else EXIT_NUMERICAL


def _load_quads(manifest_path):
    if not manifest_path or not os.path.exists(manifest_path):
        raise UsageError("quadruple manifest not found: %r" % manifest_path)
    return [load_quadruple(rec) for rec in
            read_quadruple_manifest(manifest_path)]


def cmd_train(args, file_config) -> int:
    seed = resolve_option("seed", args.seed, file_config, default=0, cast=int)
    epochs = resolve_option("epochs", args.epochs, file_config,
                            default=5, cast=int)
    batch = resolve_option("batch_size", args.batch_size, file_config,
                           default=32, cast=int)
    lr = resolve_option("base_lr", args.lr, file_config,
                        default=1e-3, cast=float)
    mult = resolve_option("channels", args.channels, file_config,
                          default=1.0, cast=float)
    mask = resolve_option("loss_mask", args.loss_mask, file_config,
                          default=",".join(LOSS_NAMES),
                          cast=_parse_loss_mask)

    quads = _load_quads(args.quadruples)
    mos_items = jnd_items = None
    if args.mos:
        mos_items = load_mos_items(read_mos_manifest(args.mos))
    if args.jnd:
        jnd_items = load_jnd_items(read_jnd_manifest(args.jnd))

    measure_lookup = None
    measure_names = ()
    if args.compute_measures:
        measure_names = tuple(n for n in MEASURE_NAMES)
        measure_lookup = {
            i: compute_measure_vector(q.x_ik.samples, q.x_jk.samples)
            for i, q in enumerate(quads)}

    model = Model(ModelConfig(channel_mult=mult,
                              measure_names=measure_names, seed=seed))
    cfg = TrainConfig(epochs=epochs, base_lr=lr, batch_size=batch,
                      loss_mask=mask, seed=seed)
    train(model, cfg, quads, mos_items=mos_items, jnd_items=jnd_items,
          measure_lookup=measure_lookup, log_path=args.log,
          checkpoint_path=args.out)
    print("checkpoint written to %s" % args.out)
    return EXIT_OK


def _score_quads(model, quads, rng=None):
    """(s_ik, s_il, s_jk, s_jl) arrays; random scores when rng given."""
    if rng is not None:
        s = rng.uniform(1.0, 5.0, size=(len(quads), 4))
        return s[:, 0], s[:, 1], s[:, 2], s[:, 3]
    _, s = model.infer([f.samples for q in quads for f in q.frames()])
    s = s.reshape(-1, 4)
    return s[:, 0], s[:, 1], s[:, 2], s[:, 3]


def cmd_eval(args, file_config) -> int:
    model = None
    rng = np.random.default_rng(args.seed or 0) if args.random_baseline \
        else None
    if not args.random_baseline:
        model = load_checkpoint(args.checkpoint)

    report = {}
    if args.quadruples:
        quads = _load_quads(args.quadruples)
        s_ik, s_il, s_jk, s_jl = _score_quads(model, quads, rng=rng)
        both_i = np.concatenate([s_ik, s_il])
        both_j = np.concatenate([s_jk, s_jl])
        report["r_rank"] = evaluation.eval_rank(both_i, both_j)
        report["l_cons"] = evaluation.eval_cons((s_ik, s_il, s_jk, s_jl))

    if args.mos:
        manifest = read_mos_manifest(args.mos)
        items = load_mos_items(manifest)
        labels = np.array([mos for _, mos in items])
        if rng is not None:
            preds = rng.uniform(1.0, 5.0, size=len(items))
        else:
            # every item is at least 1 s long; score its first second
            _, preds = model.infer([samples[:FRAME_SAMPLES]
                                    for samples, _ in items])
        if args.kfold:
            split = evaluation.kfold_split(len(items), args.kfold,
                                           seed=args.seed or 0)
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

    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return EXIT_OK


def cmd_score(args, file_config) -> int:
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
        except (OSError, AudioFormatError, DegenerateInputError,
                ValueError) as e:
            print("%s\tERROR: %s" % (path, e), file=sys.stderr)
            status = EXIT_USAGE
    return status


def cmd_analyze(args, file_config) -> int:
    model = load_checkpoint(args.checkpoint)
    if args.mode == "distances":
        quads = _load_quads(args.quadruples)
        stats = evaluation.latent_distance_stats(model, quads)
        text = json.dumps(stats, indent=2)
        print(text)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text + "\n")
        return EXIT_OK
    if args.mode == "sweep":
        if not args.clean:
            raise UsageError("sweep mode needs --clean WAV")
        if not args.kind:
            raise UsageError("sweep mode needs --kind")
        frame = read_wav_48k(args.clean)
        curve = evaluation.strength_sweep(model, frame, args.kind,
                                          seed=args.seed or 0)
        lines = ["strength,mean_score"]
        lines += ["%g,%.4f" % (s, v) for s, v in
                  zip(curve["strengths"], curve["mean_scores"])]
        lines.append("clean,%.4f" % curve["clean_score"])
        text = "\n".join(lines)
        print(text)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text + "\n")
        return EXIT_OK
    if args.mode == "latents":
        quads = _load_quads(args.quadruples)
        items = []
        for i, q in enumerate(quads):
            items.append((i, q.x_ik.samples,
                          {"kinds": [s.kind for s in q.chain_i]}))
        if not args.out:
            raise UsageError("latents mode needs --out")
        evaluation.export_latents(model, items, args.out)
        print("wrote %d latents to %s" % (len(items), args.out))
        return EXIT_OK
    raise UsageError("unknown analyze mode %r" % args.mode)


# ------------------------------------------------------------ entrypoint

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sesqa",
                                description="speech quality toolkit")
    p.add_argument("--config", help="JSON config file")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize quadruples")
    g.add_argument("--pool", help="clean speech directory")
    g.add_argument("--out", default="quads", help="output WAV directory")
    g.add_argument("--manifest", default="quads.jsonl")
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--noise-pool")
    g.add_argument("--transcoder-cmd")
    g.add_argument("--check", action="store_true",
                   help="validate chain distributions instead of writing")

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--quadruples", help="quadruple manifest")
    t.add_argument("--mos", help="MOS manifest")
    t.add_argument("--jnd", help="JND manifest")
    t.add_argument("--compute-measures", action="store_true")
    t.add_argument("--out", default="model.ckpt")
    t.add_argument("--log", default=None)
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--channels", type=float, help="channel multiplier")
    t.add_argument("--loss-mask", help="comma-separated loss names")
    t.add_argument("--seed", type=int)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint")
    e.add_argument("--quadruples")
    e.add_argument("--mos")
    e.add_argument("--kfold", type=int)
    e.add_argument("--random-baseline", action="store_true")
    e.add_argument("--seed", type=int)
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
    a.add_argument("--seed", type=int)
    a.add_argument("--out")
    return p


_COMMANDS = {"generate": cmd_generate, "train": cmd_train,
             "eval": cmd_eval, "score": cmd_score, "analyze": cmd_analyze}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_config = _load_config_file(args.config)
        return _COMMANDS[args.command](args, file_config)
    except (UsageError, ManifestError, PoolExhaustedError, FileNotFoundError,
            AudioFormatError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except CheckpointError as e:
        print("checkpoint error: %s" % e, file=sys.stderr)
        return EXIT_CHECKPOINT
    except FloatingPointError as e:
        print("numerical failure: %s" % e, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
