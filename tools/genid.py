"""Write generation outputs whose bytes a refactor must keep.

    python tools/genid.py OUT

imports sesqa from the tree this script sits in, so a copy of it placed
in another checkout (say, the parent commit's) runs that checkout's code.
It writes to OUT, from a 5-file `speechlike` pool:

* s2024, s7, s7noise, s5tc: 40 quadruples each through `sesqa generate`
  (seed 2024; seed 7; seed 7 with a two-file 48 kHz noise pool; seed 5
  with a transcoder that copies its input), as a WAV directory, a
  manifest (.jsonl), and the manifest with OUT replaced by "OUT"
  (.masked), which is what two trees can compare;
* specs.txt: 6 `sample_spec` draws for each of the 37 kinds, each with
  the SHA-256 of the native kernel's output on one frame; then griffin_lim
  and phase_shuffle (strength 0.7, seed 11) at every window in
  STFT_WINDOW_CHOICES, with the same hash, so that each window size their
  phase step runs at is compared, not only those the draws pick.

Compare two trees with `cmp` on each .masked file and specs.txt, and
`diff -r` on each WAV directory.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np                                            # noqa: E402
from sesqa.audio import write_wav                             # noqa: E402
from sesqa.cli import main                                    # noqa: E402
from sesqa.degrade import (DegradationSpec,                   # noqa: E402
                           apply_degradation, sample_spec)
from sesqa.degrade.kinds import (KIND_NAMES, NATIVE_KINDS,    # noqa: E402
                                 STFT_WINDOW_CHOICES)
from conftest import speechlike                               # noqa: E402


def sesqa(argv) -> None:
    """Run one `sesqa` command; stop the script if it fails."""
    if main(argv) != 0:
        sys.exit("sesqa %s failed" % " ".join(argv))


COPY = ('python3 -c "import shutil,sys; shutil.copy(sys.argv[1], '
        'sys.argv[2])" {in} {out} {codec} {bitrate}')


def write_outputs(out: Path) -> None:
    for sub in ("pool", "noise"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    for i in range(5):
        write_wav(speechlike(seed=40 + i, seconds=2.0),
                  out / "pool" / ("u%d.wav" % i))
    write_wav(speechlike(seed=60, seconds=0.7), out / "noise" / "short.wav")
    write_wav(speechlike(seed=61, seconds=2.5), out / "noise" / "long.wav")
    runs = {"s2024": ["--seed", "2024"], "s7": ["--seed", "7"],
            "s7noise": ["--seed", "7", "--noise-pool", str(out / "noise")],
            "s5tc": ["--seed", "5", "--transcoder-cmd", COPY]}
    for name, extra in runs.items():
        m = out / (name + ".jsonl")
        sesqa(["generate", "--pool", str(out / "pool"),
               "--out", str(out / name), "--manifest", str(m),
               "--n", "40"] + extra)
        m.with_suffix(".masked").write_text(
            m.read_text().replace(str(out), "OUT"))
    frame = speechlike(seed=15, seconds=1.0)
    specs = [sample_spec(kind, np.random.default_rng([k, i]))
             for k, kind in enumerate(KIND_NAMES) for i in range(6)]
    specs += [DegradationSpec(kind, 0.7, {"window": window}, seed=11)
              for kind in ("griffin_lim", "phase_shuffle")
              for window in STFT_WINDOW_CHOICES]
    with open(out / "specs.txt", "w") as f:
        for spec in specs:
            line = json.dumps(spec.to_dict())
            if spec.kind in NATIVE_KINDS:
                y = apply_degradation(frame, spec).samples
                line += " " + hashlib.sha256(y.tobytes()).hexdigest()
            f.write(line + "\n")


if __name__ == "__main__":
    write_outputs(Path(sys.argv[1]).resolve())
