"""Span tracing for the traced benchmark run.

`Tracer.install()` wraps the public functions of the sesqa modules from
outside: every module attribute that is bound to one of those functions is
replaced by a wrapper that records a span (name, start, end, parent) around
the call, and `Tracer.uninstall()` puts the originals back. Spans stay in
memory; `layer_metrics` folds them into the per-layer numbers named in
`PER_LAYER` once the run is over.

Attribution rules:

* a forward nn op belongs to the block of the parameter or BatchNorm it
  receives (`enc.res3.conv1.w` -> `enc.res3`); `blurpool` takes the block of
  the op before it; unwrapped autodiff ops between two wrapped ops (time
  inside `Model.encode` not covered by a child span) go to the block of the
  op before them;
* each wrapped op's backward step is timed by wrapping the closure that the
  op leaves on its output; backward time between those steps goes to the
  block of the step that follows it;
* allocation sizes of `Model.encode` come from `tracemalloc`, started only
  inside that call.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

MB = float(1 << 20)

BLOCKS = (("enc.mu",) + tuple("enc.pool%d" % i for i in range(4))
          + tuple("enc.res%d" % i for i in range(6))
          + ("enc.stats", "enc.mlp", "head"))
NN_OPS = ("conv1d_k1", "conv1d_k3", "conv1d_k4", "blurpool", "batchnorm",
          "mu_law_compand", "stats_pool", "linear")
MEASURES = ("ssnr", "llr", "wssd", "stoi", "sisdr", "mcd", "lmbd")
# the native degradation kinds, one kernel metric each
KINDS = ("additive_noise", "colored_noise", "hum_noise", "tonal_noise",
         "resample", "mu_law", "clipping", "reverse", "insert_silence",
         "insert_noise", "insert_attenuation", "perturb_amplitude",
         "sample_duplicate", "delay", "extreme_eq", "bandpass", "bandreject",
         "highpass", "lowpass", "chorus", "overdrive", "phaser", "reverb",
         "tremolo", "griffin_lim", "phase_randomization", "phase_shuffle",
         "spectrogram_convolution", "spectrogram_holes", "spectrogram_noise")

PER_LAYER = (
    ("audio.read_wav.s", "s"), ("audio.read_wav.mb", "MB"),
    ("audio.write_wav.s", "s"), ("audio.write_wav.mb", "MB"),
    ("degrade.sample_chain.s", "s"), ("degrade.generate_quadruple.s", "s"),
    ("degrade.kernel.calls", "count"),
    ("degrade.write_quadruple_manifest.s", "s"),
    ("degrade.load_quadruple.s", "s"),
) + tuple(("degrade.kernel.%s.s" % k, "s") for k in KINDS) \
  + tuple(("measures.%s.s" % m, "s") for m in MEASURES) \
  + tuple(("%s.fwd_s" % b, "s") for b in BLOCKS) \
  + tuple(("nn.%s.fwd_s" % op, "s") for op in NN_OPS) + (
    ("ad.other.fwd_s", "s"), ("model.encode.fwd_s", "s"),
    ("model.encode.act_mb", "MB"),
) + tuple(("%s.bwd_s" % b, "s") for b in BLOCKS) \
  + tuple(("nn.%s.bwd_s" % op, "s") for op in NN_OPS) + (
    ("ad.other.bwd_s", "s"), ("ad.backward.s", "s"),
    ("model.encode.peak_alloc_mb", "MB"), ("model.encode.retained_mb", "MB"),
    ("model.load_checkpoint.s", "s"), ("model.save_checkpoint.s", "s"),
    ("model.checkpoint.mb", "MB"),
    ("objectives.fwd_s", "s"),
    ("training.assemble_batch.s", "s"), ("training.qh_step.s", "s"),
    ("training.swa_finalize.s", "s"),
    ("evaluation.s", "s"), ("cli.other.s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    def to_dict(self, index):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": None if self.parent is None else index[id(self.parent)],
                **self.attrs}


def self_times(spans) -> dict:
    """id(span) -> duration minus the part of it that its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(s)] = (s.end - s.start) - covered
    return out


def block_of(param_name: str) -> str:
    """Parameter or BatchNorm name -> encoder block."""
    if param_name.startswith("head."):
        return "head"
    if param_name == "enc.m":
        return "enc.mu"
    for prefix in ("enc.stats", "enc.mlp"):
        if param_name.startswith(prefix):
            return prefix
    return ".".join(param_name.split(".")[:2])


class Tracer:
    """Records spans around sesqa's public functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._names = {}          # id(Tensor or BatchNorm) -> param name
        self._last_block = "enc.mu"

    # --------------------------------------------------------- spans
    def open(self, name, **attrs) -> Span:
        s = Span(name, 0.0, self._stack[-1] if self._stack else None, attrs)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        return s

    def close(self, s: Span):
        s.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            s = tracer.open(name, **attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            if after:
                after(s, out, *args, **kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------ patching
    def _patch_everywhere(self, original, wrapper):
        """Rebind every sesqa module attribute that holds `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sesqa"
                                   or mod_name.startswith("sesqa.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def install(self):
        from sesqa import ad, audio, cli, evaluation, measures, model, nn
        from sesqa import objectives, training
        from sesqa.degrade import chains, kernels, quadruples

        def fn(mod, attr, name, **kw):
            f = getattr(mod, attr)
            self._patch_everywhere(f, self._wrap(f, name, **kw))

        fn(audio, "read_wav", "audio.read_wav",
           after=lambda s, out, *a, **k: s.attrs.update(
               bytes=out.samples.nbytes))
        fn(audio, "write_wav", "audio.write_wav",
           before=lambda frame, *a, **k: {"bytes": frame.samples.nbytes})
        fn(chains, "sample_chain", "degrade.sample_chain")
        for attr in ("generate_quadruple", "write_quadruple_manifest",
                     "load_quadruple"):
            fn(quadruples, attr, "degrade." + attr)
        fn(kernels, "apply_degradation", "degrade.kernel",
           before=lambda frame, spec, *a, **k: {"kind": spec.kind})
        fn(measures, "compute_measure", "measures",
           before=lambda kind, *a, **k: {"kind": kind.lower()})
        def state_bytes(m):
            return sum(a.nbytes for a in m.state_arrays().values())

        fn(model, "save_checkpoint", "model.save_checkpoint",
           before=lambda m, *a, **k: {"bytes": state_bytes(m)})
        fn(model, "load_checkpoint", "model.load_checkpoint",
           after=lambda s, out, *a, **k: s.attrs.update(
               bytes=state_bytes(out)))
        for attr in ("loss_mos", "loss_rank", "loss_cons", "loss_sd",
                     "loss_jnd", "loss_dt", "loss_ds", "loss_mr",
                     "total_loss"):
            fn(objectives, attr, "objectives")
        for attr in ("assemble_batch", "qh_step", "swa_finalize"):
            fn(training, attr, "training." + attr)
        for attr in ("eval_mos", "eval_rank", "consistency_values",
                     "eval_cons", "e_total", "correlations", "human_baseline",
                     "kfold_split", "latent_distance_stats", "strength_sweep",
                     "export_latents"):
            fn(evaluation, attr, "evaluation")
        fn(cli, "main", "cli.main")

        for attr, op_name in (("conv1d", None), ("blurpool", "blurpool"),
                              ("batchnorm", "batchnorm"),
                              ("mu_law_compand", "mu_law_compand"),
                              ("stats_pool", "stats_pool"),
                              ("linear", "linear")):
            f = getattr(nn, attr)
            self._patch_everywhere(f, self._nn_op(f, attr, op_name))

        self._patch_method(model.Model, "encode",
                           self._model_call(model.Model.encode,
                                            "model.encode"))
        for attr in ("score", "head_forward"):
            self._patch_method(model.Model, attr, self._model_call(
                getattr(model.Model, attr), "model.head"))
        self._patch_method(ad.Tensor, "backward",
                           self._wrap(ad.Tensor.backward, "ad.backward"))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------ model-aware wraps
    def _model_call(self, method, name):
        tracer = self

        def wrapper(model_self, *args, **kwargs):
            tracer._names.update({id(t): n for n, t in model_self.params.items()})
            tracer._names.update({id(b): n for n, b in model_self.bns.items()})
            if name != "model.encode":
                s = tracer.open(name, block="head")
                try:
                    return method(model_self, *args, **kwargs)
                finally:
                    tracer.close(s)
            tracer._last_block = "enc.mu"
            tracemalloc.start()
            s = tracer.open(name, act_bytes=0)
            try:
                out = method(model_self, *args, **kwargs)
            finally:
                tracer.close(s)
                current, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
            s.attrs.update(peak_bytes=peak, retained_bytes=current)
            return out

        wrapper.__wrapped__ = method
        return wrapper

    def _nn_op(self, fn, attr, op_name):
        tracer = self

        def block_for(args, kwargs):
            if attr in ("conv1d", "linear"):
                w = args[1] if len(args) > 1 else kwargs["w"]
                return tracer._block_of_obj(w)
            if attr == "batchnorm":
                state = args[3] if len(args) > 3 else kwargs["state"]
                return tracer._block_of_obj(state)
            if attr == "mu_law_compand":
                return "enc.mu"
            if attr == "stats_pool":
                return "enc.stats"
            return tracer._last_block

        def wrapper(*args, **kwargs):
            block = block_for(args, kwargs)
            op = op_name
            if op is None:  # conv1d: split by tap count
                w = args[1] if len(args) > 1 else kwargs["w"]
                op = "conv1d_k%d" % getattr(w, "data", w).shape[2]
            tracer._last_block = block
            s = tracer.open("nn." + op, block=block, phase="fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            enc = s.parent
            if enc is not None and enc.name == "model.encode":
                enc.attrs["act_bytes"] += out.data.nbytes
            bwd = out._backward
            if bwd is not None:
                def timed_backward(g, bwd=bwd, op=op, block=block):
                    b = tracer.open("nn." + op, block=block, phase="bwd")
                    try:
                        bwd(g)
                    finally:
                        tracer.close(b)
                out._backward = timed_backward
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _block_of_obj(self, obj):
        name = self._names.get(id(obj))
        return block_of(name) if name is not None else self._last_block

    def dump(self) -> list:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [s.to_dict(index) for s in self.spans]


# ------------------------------------------------------------- folding

def _gap_attribution(parent, kids, forward: bool, into: dict):
    """Split `parent`'s time among the blocks of its child spans.

    Each child's own duration goes to its block. A gap between children goes
    to the child before it (forward) or after it (backward); the gap at the
    open end goes to the nearest child.
    """
    kids = sorted(kids, key=lambda c: c.start)
    if not kids:
        return
    edges = [parent.start] + [t for c in kids for t in (c.start, c.end)] \
        + [parent.end]
    for i, c in enumerate(kids):
        blk = c.attrs.get("block", "head")
        gap_before = edges[2 * i + 1] - edges[2 * i]
        gap_after = edges[2 * i + 3] - edges[2 * i + 2]
        share = c.end - c.start
        if forward:
            share += gap_after + (gap_before if i == 0 else 0.0)
        else:
            share += gap_before + (gap_after if i == len(kids) - 1 else 0.0)
        into[blk] = into.get(blk, 0.0) + share


def layer_metrics(spans) -> dict:
    """Per-layer values for every name in PER_LAYER, from one traced run."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    selft = self_times(spans)
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    fwd_blocks, bwd_blocks = {}, {}
    direct = {"audio.read_wav": "audio.read_wav.s",
              "audio.write_wav": "audio.write_wav.s",
              "degrade.sample_chain": "degrade.sample_chain.s",
              "degrade.generate_quadruple": "degrade.generate_quadruple.s",
              "degrade.write_quadruple_manifest":
                  "degrade.write_quadruple_manifest.s",
              "degrade.load_quadruple": "degrade.load_quadruple.s",
              "model.load_checkpoint": "model.load_checkpoint.s",
              "model.save_checkpoint": "model.save_checkpoint.s",
              "objectives": "objectives.fwd_s",
              "training.assemble_batch": "training.assemble_batch.s",
              "training.qh_step": "training.qh_step.s",
              "training.swa_finalize": "training.swa_finalize.s",
              "evaluation": "evaluation.s",
              "cli.main": "cli.other.s"}
    for s in spans:
        st = selft[id(s)]
        if s.name in direct:
            m[direct[s.name]] += st
        if s.name in ("audio.read_wav", "audio.write_wav"):
            m[s.name + ".mb"] += s.attrs.get("bytes", 0) / MB
        elif s.name in ("model.save_checkpoint", "model.load_checkpoint"):
            m["model.checkpoint.mb"] = max(m["model.checkpoint.mb"],
                                           s.attrs.get("bytes", 0) / MB)
        elif s.name == "degrade.kernel":
            key = "degrade.kernel.%s.s" % s.attrs["kind"]
            if key in m:
                m[key] += st
            m["degrade.kernel.calls"] += 1
        elif s.name == "measures":
            key = "measures.%s.s" % s.attrs["kind"]
            if key in m:
                m[key] += st
        elif s.name.startswith("nn."):
            m["%s.%s_s" % (s.name, s.attrs["phase"])] += st
        elif s.name == "model.encode":
            m["model.encode.fwd_s"] += s.end - s.start
            m["ad.other.fwd_s"] += st
            for key, attr in (("model.encode.act_mb", "act_bytes"),
                              ("model.encode.peak_alloc_mb", "peak_bytes"),
                              ("model.encode.retained_mb", "retained_bytes")):
                m[key] = max(m[key], s.attrs.get(attr, 0) / MB)
            _gap_attribution(s, children.get(id(s), ()), True, fwd_blocks)
        elif s.name == "model.head":
            m["ad.other.fwd_s"] += st
            if s.parent is None or s.parent.name != "model.head":
                fwd_blocks["head"] = fwd_blocks.get("head", 0.0) + s.end - s.start
        elif s.name == "ad.backward":
            m["ad.backward.s"] += s.end - s.start
            m["ad.other.bwd_s"] += st
            _gap_attribution(s, children.get(id(s), ()), False, bwd_blocks)
    for blk, v in fwd_blocks.items():
        m["%s.fwd_s" % blk] += v
    for blk, v in bwd_blocks.items():
        m["%s.bwd_s" % blk] += v
    return m
