"""sesqa benchmark: one workload, measured for a fixed time, outputs checked.

    python3 benchmarks/run.py --workload synth|train|score --seed N \
        --seconds S --trace 0|1

Run from the repository root. The run sets up its inputs SETUP_REPEATS
times (setup_s is the median), then repeats whole rounds of the workload
until S seconds have passed (at least MIN_ROUNDS rounds), checks every
output, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 one more
round runs with every public sesqa function wrapped (see spans.py), and the
metrics are the per-layer ones from that round, plus its overhead against
the untraced rounds. Traces go to .bench_traces/, working files to
.bench_run/ (removed at the end).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 2
SETUP_REPEATS = 3
MIN_ROUNDS = 2
# median speed-probe time on the reference machine; times are reported as
# if every probe of the run had taken this long
PROBE_REF_S = 0.0055

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("stage1_per_s", "1/s"), ("stage2_per_s", "1/s"))
STAGE_NAMES = {
    "synth": ("quads_per_s", "measure_vectors_per_s"),
    "train": ("train_steps_per_s", "train_frames_per_s"),
    "score": ("eval_frames_per_s", "score_audio_s_per_s"),
}


def pin_blas_threads():
    """Set before numpy is imported, so the BLAS pool starts at that size."""
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def import_program():
    """Put the checkout's src/ first on the path; fail if it is missing."""
    src = ROOT / "src"
    if not (src / "sesqa" / "__init__.py").is_file():
        raise SystemExit("benchmark: no sesqa sources under %s" % src)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import sesqa
    if Path(sesqa.__file__).resolve().parent != src / "sesqa":
        raise SystemExit("benchmark: imported sesqa from %s, not %s"
                         % (sesqa.__file__, src))


def stage_rate(rounds, stage: int) -> float:
    """Units of work per second over every timed operation of a stage
    (before scaling by machine speed)."""
    ops = [v for r in rounds for (st, _), v in r.ops.items() if st == stage]
    seconds = sum(t for _, t in ops)
    return sum(u for u, _ in ops) / seconds if seconds else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> dict:
    import spans as tracing
    from workloads import WORKLOADS, speed_probe

    wl = WORKLOADS[workload]()
    setup_times, probes = [], []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir / ("setup%d" % k))
        setup_times.append(time.perf_counter() - t0)
        probes += speed_probe()

    rounds, walls = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        rounds.append(wl.round(state, len(rounds)))
        walls.append(time.perf_counter() - t0)

    layers = None
    if trace:
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        with tracer:
            rounds.append(wl.round(state, len(rounds)))
        traced_wall = time.perf_counter() - t0
        layers = tracing.layer_metrics(tracer.spans)
        base = statistics.median(walls)
        layers["trace.overhead_s"] = traced_wall - base
        layers["trace.overhead_pct"] = 100.0 * (traced_wall - base) / base
        out = ROOT / ".bench_traces"
        out.mkdir(exist_ok=True)
        (out / ("%s-seed%d.json" % (workload, seed))).write_text(
            json.dumps(tracer.dump()))

    problems = wl.check(state, rounds)
    for p in problems:
        print("CHECK FAILED: %s" % p, file=sys.stderr)

    timed = rounds[:len(walls)]
    probes += [t for r in timed for t in r.probes]
    slowdown = statistics.median(probes) / PROBE_REF_S
    raw = {"setup_s": statistics.median(setup_times),
           "stage1_per_s": stage_rate(timed, 1),
           "stage2_per_s": stage_rate(timed, 2)}
    e2e = {
        "setup_s": raw["setup_s"] / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stage1_per_s": raw["stage1_per_s"] * slowdown,
        "stage2_per_s": raw["stage2_per_s"] * slowdown,
    }
    names = STAGE_NAMES[workload]
    print("%s: %d rounds in %.1f s, BLAS threads %s, machine slowdown %.3f "
          "(median of %d speed probes)" % (
              workload, len(walls), sum(walls),
              os.environ["OPENBLAS_NUM_THREADS"], slowdown, len(probes)))
    for name, unit in END_TO_END:
        alias = {"stage1_per_s": names[0], "stage2_per_s": names[1]}.get(name)
        print("  %-14s %12.4f %-5s as measured %12.4f%s" % (
            name, e2e[name], unit, raw.get(name, e2e[name]),
            "  (%s)" % alias if alias else ""))
    if trace:
        metrics = {n: {"value": layers[n], "unit": u} for n, u in tracing.PER_LAYER}
        for n, u in tracing.PER_LAYER:
            if layers[n]:
                print("  %-40s %12.4f %s" % (n, layers[n], u))
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    return {"correct": not problems,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(STAGE_NAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    pin_blas_threads()
    import_program()
    workdir = ROOT / ".bench_run" / ("%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
