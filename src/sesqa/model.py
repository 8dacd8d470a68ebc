"""Encoder + head bank for the speech quality network.

The encoder maps raw 48 kHz frames to 200-dim latents: learnable mu-law
companding, four conv/BN/ReLU/BlurPool blocks (x4 downsampling each), six
gated residual blocks, time statistics pooling, and a two-layer MLP. Each
block is one row of BLOCKS, which both builds its parameters and runs it.
Heads read latents (or concatenated latent pairs) and produce the score,
classification probabilities, and measure regressions.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from . import ad, nn
from .ad import Tensor
from .degrade.quadruples import KIND_NAMES, N_DT_CLASSES

CHECKPOINT_MAGIC = b"SSQA"
CHECKPOINT_VERSION = 1

DTYPE = np.float32
PAD_MULTIPLE = 256          # four x4 reductions must divide the input
MIN_INPUT_SAMPLES = 5 * PAD_MULTIPLE
LATENT_DIM = 200
INFER_BATCH = 16            # rows per forward pass in Model.infer
# score logits are clipped to +-15, so scores stay strictly inside (1,5)
# in float32 (1.0000012 to 4.9999986) and exp never overflows
SCORE_LOGIT_CLIP = 15.0
HEAD_HIDDEN = 400
# The auxiliary heads, in the creation order that fixes the checkpoint's
# RNG draws and tensor order: name -> (reads a concatenated latent pair,
# has a HEAD_HIDDEN-unit ReLU layer, output through a sigmoid). Each head
# ends in its own BatchNorm, always in train mode (nothing reads its
# running stats); mr is an unbounded regression.
HEADS = {"jnd": (True, False, True), "dt": (False, False, True),
         "sd": (True, True, True), "ds": (False, True, True),
         "mr": (True, True, False)}


def _head_layers(name: str) -> tuple:
    """Parameter-name prefixes of a head's linear layers, input first."""
    if HEADS[name][1]:   # a hidden layer
        return ("head.%s.l0." % name, "head.%s.l1." % name)
    return ("head.%s." % name,)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


def _tensor(src, name, shape, fan_in=None, fill=0.0) -> np.ndarray:
    """The tensor `name` of `shape`, in DTYPE. `src` is a checkpoint's
    name -> array, whose `name` must be there with that shape; or a seeded
    Generator, which gives a U(+-1/sqrt(fan_in)) draw, or `fill` when
    fan_in is None. A file's array is copied, so no view of it is kept."""
    if isinstance(src, dict):
        a = src.get(name)
        if a is None:
            raise CheckpointError("missing tensor %s" % name)
        if a.shape != shape:
            raise CheckpointError("shape mismatch for %s" % name)
        return np.array(a, DTYPE)
    if fan_in is None:
        return np.full(shape, fill, DTYPE)
    bound = 1.0 / np.sqrt(fan_in)
    return src.uniform(-bound, bound, size=shape).astype(DTYPE)


@dataclass
class ModelConfig:
    channel_mult: float = 1.0
    measure_names: tuple = ()
    seed: int = 0

    def __post_init__(self):
        """Refuse a config no Model can be built from (ValueError). Fields
        are stored as given, so a checkpoint's config block keeps its bytes."""
        mult, names = self.channel_mult, self.measure_names
        if not (isinstance(mult, (int, float)) and not isinstance(mult, bool)
                and 0 < mult < math.inf):
            raise ValueError("bad channel_mult %r" % (mult,))
        if not (isinstance(names, (list, tuple))
                and all(isinstance(n, str) for n in names)):
            raise ValueError("bad measure_names %r" % (names,))
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError("bad seed %r" % (self.seed,))

    def ch(self, n: int) -> int:
        return max(1, int(round(n * self.channel_mult)))


class Model:
    """All parameters plus forward passes. Single-writer during training;
    immutable (and therefore freely shareable) in eval mode. A residual
    block ends in one nn.gated_residual op, h <- g*h + (1-g)*f. Tensors
    come from `arrays`, a checkpoint's name -> array, if given (_tensor)."""

    def __init__(self, config: ModelConfig, arrays: dict | None = None):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.bns: dict[str, nn.BatchNorm] = {}
        self.normalizer = None  # fitted MeasureNormalizer, set by training
        self._build(arrays)

    # ------------------------------------------------------------ setup
    def _param(self, src, name, shape, fan_in=None, fill=0.0) -> Tensor:
        t = Tensor(_tensor(src, name, shape, fan_in, fill), requires_grad=True)
        self.params[name] = t
        return t

    def _bn(self, src, name, n) -> int:
        """BatchNorm `name`: parameters gamma and beta, running stats."""
        bn = self.bns[name] = nn.BatchNorm(n, dtype=DTYPE)
        bn.gamma = self._param(src, name + ".gamma", (n,), fill=1.0)
        bn.beta = self._param(src, name + ".beta", (n,))
        bn.running_mean = _tensor(src, name + ".running_mean", (n,))
        bn.running_var = _tensor(src, name + ".running_var", (n,), fill=1.0)
        return n

    def _layer(self, src, name, c_in, width, taps=None) -> int:
        """`name.w`, a (width, c_in, taps) conv1d or (c_in, width) linear
        weight; a zero bias `name.b`; their BatchNorm `name.bn`."""
        shape = (c_in, width) if taps is None else (width, c_in, taps)
        self._param(src, name + ".w", shape, fan_in=c_in * (taps or 1))
        self._param(src, name + ".b", (width,))
        return self._bn(src, name + ".bn", width)

    def _run_layer(self, name, h, train, relu):
        """The conv1d or linear layer `name`, then its BatchNorm."""
        w, b = self.params[name + ".w"], self.params[name + ".b"]
        h = (nn.conv1d if w.data.ndim == 3 else nn.linear)(h, w, b)
        return self.bns[name + ".bn"](h, train, relu=relu)

    def _build(self, arrays):
        cfg = self.config
        src = np.random.default_rng(cfg.seed) if arrays is None else arrays
        c = 1
        for name, build, _, _ in BLOCKS:
            c = build(self, src, name, c)

        D = LATENT_DIM
        self._param(src, "head.score.w", (D, 1), fan_in=D)
        self._param(src, "head.score.b", (1,))
        if arrays is None:   # a deleted pair-score head's (2D, 1) draw
            src.random(2 * D)

        widths = {"jnd": 1, "dt": N_DT_CLASSES, "sd": 1,
                  "ds": len(KIND_NAMES), "mr": max(1, len(cfg.measure_names))}
        for name, (pair, hidden, _) in HEADS.items():
            dims = ((2 * D if pair else D,)
                    + ((HEAD_HIDDEN,) if hidden else ()) + (widths[name],))
            for prefix, din, dout in zip(_head_layers(name), dims, dims[1:]):
                self._param(src, prefix + "w", (din, dout), fan_in=din)
                self._param(src, prefix + "b", (dout,))
            self._bn(src, "head.%s.bn" % name, dims[-1])

    def _bn_affine(self, name):
        """Eval-mode BatchNorm `name` as y = s*x + t per channel."""
        bn = self.bns[name]
        s = bn.gamma.data / np.sqrt(bn.running_var + nn.BN_EPS)
        return s, bn.beta.data - s * bn.running_mean

    def _folded(self, name):
        """Layer `name` with its eval-mode BatchNorm folded in, W*s and
        s*b + t: a conv weight as the tap-major (F, K*C) matrix of
        nn.conv1d with an (F, 1) bias, or an (I, O) linear weight."""
        s, t = self._bn_affine(name + ".bn")
        w, b = self.params[name + ".w"].data, self.params[name + ".b"].data
        if w.ndim == 3:
            w2 = w.transpose(0, 2, 1).reshape(len(w), -1)
            return w2 * s[:, None], (s * b + t)[:, None]
        return w * s, s * b + t

    def _conv_plan(self, name, relu, pool=False):
        """Folded conv `name` as a step: per batch row one GEMM against the
        row's tap columns, the bias and the ReLU in place on the output row,
        and with `pool` the row's blur, so no (B, F, T) array is made."""
        W2, b = self._folded(name)
        K = self.params[name + ".w"].data.shape[2]

        def step(h):
            B, _, T = h.shape
            y = np.empty((B, len(W2), -(-T // 4) if pool else T), h.dtype)
            row = np.empty((len(W2), T + 4), h.dtype) if pool else None
            for yi, cols in zip(y, nn._tap_columns(h, K)):
                r = row[:, 2:-2] if pool else yi
                np.matmul(W2, cols, out=r)
                r += b
                if relu:
                    np.maximum(r, 0, out=r)
                if pool:
                    nn._blur4(row, out=yi)
            return y
        return step

    # ---------------------------------------------------- encoder blocks
    # Rows of BLOCKS: build(model, src, name, c_in) makes a block's tensors
    # by _tensor and returns its width; forward(model, name, h, train) runs
    # it. Both call nn/ad by module attribute, so wrappers see each call.
    # plan(model, name) returns the block as one numpy step h -> h for
    # Model.infer, made from the parameters and running stats as they are.
    def _mu_build(self, src, name, c_in):
        self._param(src, "enc.m", (), fill=np.log(np.expm1(8.0)))  # mu = 8
        return c_in

    def _mu_forward(self, name, h, train):
        return nn.mu_law_compand(h, ad.softplus(self.params["enc.m"]))

    def _mu_plan(self, name):
        mu = np.logaddexp(0.0, self.params["enc.m"].data)   # as ad.softplus
        return lambda h: nn.mu_law_compand(h, mu).data

    def _pool_build(self, src, name, c_in, width):
        return self._layer(src, name, c_in, self.config.ch(width), taps=4)

    def _pool_forward(self, name, h, train):
        h = nn.conv1d(h, self.params[name + ".w"], self.params[name + ".b"])
        return nn.blurpool(h, 4, bn=self.bns[name + ".bn"], train=train)

    def _res_build(self, src, name, c_in):
        c = self._bn(src, name + ".bn_pre", c_in)
        for j, (width, taps) in enumerate(((512, 1), (512, 3), (256, 1))):
            c = self._layer(src, "%s.conv%d" % (name, j), c,
                            self.config.ch(width), taps=taps)
        self._param(src, name + ".gate", (c_in,), fill=3.0)
        return c_in

    def _res_forward(self, name, h, train):
        f = self.bns[name + ".bn_pre"](h, train, relu=True)
        for j in range(3):
            f = self._run_layer(name + ".conv%d" % j, f, train, relu=j < 2)
        return nn.gated_residual(h, f, self.params[name + ".gate"])

    def _res_plan(self, name):
        s, t = (a[:, None] for a in self._bn_affine(name + ".bn_pre"))
        convs = [self._conv_plan("%s.conv%d" % (name, j), relu=j < 2)
                 for j in range(3)]
        g = (1.0 / (1.0 + np.exp(-self.params[name + ".gate"].data)))[:, None]

        def step(h):
            f = np.maximum(h * s + t, 0)   # a new array: h feeds the gate
            for conv in convs:
                f = conv(f)
            h -= f                         # h <- f + g*(h - f), in place
            h *= g
            h += f
            return h
        return step

    def _stats_build(self, src, name, c_in):
        self.stats_dim = self._bn(src, name + "_bn", 2 * c_in)
        return self.stats_dim

    def _stats_forward(self, name, h, train):
        return self.bns[name + "_bn"](nn.stats_pool(h), train)

    def _stats_plan(self, name):
        s, t = self._bn_affine(name + "_bn")
        return lambda h: nn.stats_pool(h).data * s + t

    def _mlp_build(self, src, name, c_in):
        hidden = self._layer(src, name + "0", c_in, self.config.ch(1024))
        return self._layer(src, name + "1", hidden, LATENT_DIM)

    def _mlp_forward(self, name, h, train):
        h = self._run_layer(name + "0", h, train, relu=True)
        return self._run_layer(name + "1", h, train, relu=False)

    def _mlp_plan(self, name):
        (w0, b0), (w1, b1) = self._folded(name + "0"), self._folded(name + "1")
        return lambda h: np.maximum(h @ w0 + b0, 0) @ w1 + b1

    # ---------------------------------------------------------- forward
    def _prepare(self, frames: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(frames, dtype=DTYPE))
        if x.shape[1] < MIN_INPUT_SAMPLES:
            raise ValueError("input too short: %d < %d samples"
                             % (x.shape[1], MIN_INPUT_SAMPLES))
        rem = x.shape[1] % PAD_MULTIPLE
        if rem:
            x = np.pad(x, ((0, 0), (0, PAD_MULTIPLE - rem)))
        return x[:, None, :]

    def encode(self, frames: np.ndarray, train: bool = False) -> Tensor:
        """(B,T) raw audio -> (B,200) latents."""
        h = Tensor(self._prepare(frames), requires_grad=False)
        for name, _, forward, _ in BLOCKS:
            h = forward(self, name, h, train)
        return h

    def infer(self, frames) -> tuple[np.ndarray, np.ndarray]:
        """Forward-only (B,T) audio -> ((B,200) latents, (B,) scores).

        The eval-mode encoder and score head, INFER_BATCH rows at a time;
        `frames` is a (B,T) array or a list of equal-length 1-D arrays,
        each chunk stacked only when run. The encoder is a plan of numpy
        steps, one per BLOCKS row, built on every call (once the first
        chunk passes the length check) from the current parameters and
        running stats, so nothing is cached. Each BatchNorm is folded into
        the layer before it; a pool block runs a batch row at a time.
        """
        zs = [np.empty((0, LATENT_DIM), dtype=DTYPE)]
        ss = [np.empty(0, dtype=DTYPE)]
        steps = None
        with ad.no_grad():
            for b0 in range(0, len(frames), INFER_BATCH):
                h = self._prepare(np.asarray(frames[b0:b0 + INFER_BATCH],
                                             dtype=DTYPE))
                if steps is None:
                    steps = [plan(self, name) for name, _, _, plan in BLOCKS]
                for step in steps:
                    h = step(h)
                zs.append(h)
                ss.append(self.score(h).data)
        return np.concatenate(zs), np.concatenate(ss)

    def score(self, z) -> Tensor:
        """Latents -> scores strictly inside (1,5)."""
        z = ad.as_tensor(z)
        logit = nn.linear(z, self.params["head.score.w"],
                          self.params["head.score.b"])
        logit = ad.clip(logit, -SCORE_LOGIT_CLIP, SCORE_LOGIT_CLIP)
        s = ad.add_const(ad.mul_const(ad.sigmoid(logit), 4.0), 1.0)
        return ad.reshape(s, (-1,))

    def score_reference(self, z, z_ref) -> np.ndarray:
        """Score in (1,5) of latents `z` relative to reference latents:
        score(z - z_ref), i.e. 1 + 4*sigmoid((z - z_ref) @ w + b)."""
        with ad.no_grad():
            return self.score(np.asarray(z) - np.asarray(z_ref)).data

    def head_forward(self, head_id: str, z_a, z_b=None):
        """Run one auxiliary head of HEADS, its BatchNorm in train mode;
        pair heads need two latents."""
        if head_id not in HEADS:
            raise ValueError("unknown head %r" % head_id)
        pair, _, sigmoid = HEADS[head_id]
        if pair != (z_b is not None):
            raise ValueError("head %r takes %s" % (
                head_id, "two latents" if pair else "one latent"))
        h = ad.as_tensor(z_a)
        if pair:
            h = ad.concat([h, ad.as_tensor(z_b)], axis=1)
        p = self.params
        for i, prefix in enumerate(_head_layers(head_id)):
            if i:
                h = ad.relu(h)
            h = nn.linear(h, p[prefix + "w"], p[prefix + "b"])
        h = self.bns["head.%s.bn" % head_id](h, train=True)
        return ad.sigmoid(h) if sigmoid else h

    # ------------------------------------------------------- persistence
    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {name: t.data for name, t in self.params.items()}
        for name, bn in self.bns.items():
            out[name + ".running_mean"] = bn.running_mean
            out[name + ".running_var"] = bn.running_var
        return out


# The encoder, input first: (name, build, forward, plan) per block. The
# order fixes the RNG draws and the checkpoint's tensor order.
BLOCKS = (
    ("enc.mu", Model._mu_build, Model._mu_forward, Model._mu_plan),
    *(("enc.pool%d" % i, partial(Model._pool_build, width=32 << i),
       Model._pool_forward, partial(Model._conv_plan, relu=True, pool=True))
      for i in range(4)),
    *(("enc.res%d" % r, Model._res_build, Model._res_forward,
       Model._res_plan) for r in range(6)),
    ("enc.stats", Model._stats_build, Model._stats_forward,
     Model._stats_plan),
    ("enc.mlp", Model._mlp_build, Model._mlp_forward, Model._mlp_plan))


def save_checkpoint(model: Model, path) -> None:
    """Write `model` to `path` by way of `<path>.tmp`, so that a failed
    write leaves a file already at `path` as it was."""
    arrays = model.state_arrays()
    directory = [{"name": k, "shape": list(v.shape), "dtype": str(v.dtype)}
                 for k, v in arrays.items()]
    norm = None if model.normalizer is None else model.normalizer.to_dict()
    blob = json.dumps({"config": asdict(model.config), "normalizer": norm,
                       "tensors": directory}).encode("utf-8")
    tmp = "%s.tmp" % path
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
            f.write(blob)
            for entry in directory:
                f.write(np.ascontiguousarray(arrays[entry["name"]]).astype(
                    entry["dtype"]).tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _meta_config(c, n_bytes: int) -> ModelConfig:
    """The ModelConfig of a checkpoint's `config` block. Keys that
    ModelConfig does not declare are ignored, so files written before a
    field was dropped still load.

    A config whose widest weights alone would not fit in the `n_bytes` of
    the file is refused before the model is built: a corrupt width is
    named as such and cannot allocate more than the file's own size."""
    try:
        cfg = ModelConfig(**{f.name: c[f.name] for f in fields(ModelConfig)})
    except ValueError as e:
        raise CheckpointError(str(e))
    # six (ch(512), ch(512), 3) residual convs, the ds and mr output layers
    width = max(1, 512 * cfg.channel_mult - 1)
    need = 4 * (18 * width * width + HEAD_HIDDEN
                * (len(KIND_NAMES) + max(1, len(cfg.measure_names))))
    if need > n_bytes:
        raise CheckpointError("config needs more tensor data than the "
                              "file holds")
    return replace(cfg, measure_names=tuple(cfg.measure_names))  # JSON list


def _read_tensors(entries, data: bytes, offset: int) -> dict:
    """name -> array for each tensor directory entry, read from `data`."""
    if not isinstance(entries, list):
        raise CheckpointError("tensor directory is not a list")
    arrays = {}
    for entry in entries:
        try:
            name, shape, dtype = entry["name"], entry["shape"], entry["dtype"]
            dt = np.dtype(dtype) if isinstance(dtype, str) else None
        except (KeyError, TypeError) as e:
            raise CheckpointError("bad tensor entry %r: %s" % (entry, e))
        if dt is None or dt.kind not in "fiu":
            raise CheckpointError("bad dtype %r in tensor entry" % (dtype,))
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(_is_int(d) and d >= 0 for d in shape)):
            raise CheckpointError("bad tensor entry %r" % (entry,))
        count = math.prod(shape)
        nbytes = count * dt.itemsize
        if offset + nbytes > len(data):
            raise CheckpointError("truncated tensor data for %s" % name)
        arrays[name] = np.frombuffer(
            data, dtype=dt, count=count, offset=offset).reshape(shape)
        offset += nbytes
    return arrays


def load_checkpoint(path) -> Model:
    """Read a checkpoint; any malformed content raises CheckpointError.

    The model is built from the file's tensors, with no initial draw.
    Tensors in the file that the model does not have (such as the
    pair-score head of older checkpoints) are ignored."""
    from .measures import MeasureNormalizer

    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file: %s" % path)
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError("checkpoint version %d, expected %d"
                              % (version, CHECKPOINT_VERSION))
    (meta_len,) = struct.unpack_from("<I", data, 8)
    if 12 + meta_len > len(data):
        raise CheckpointError("truncated metadata block")
    try:
        meta = json.loads(data[12:12 + meta_len].decode("utf-8"))
    except ValueError as e:  # not UTF-8, not JSON, or an overlong number
        raise CheckpointError("corrupt metadata block: %s" % e)

    try:
        cfg = _meta_config(meta["config"], len(data))
        entries = meta["tensors"]
    except (KeyError, TypeError) as e:
        raise CheckpointError("incomplete metadata block: %r" % e)
    model = Model(cfg, _read_tensors(entries, data, 12 + meta_len))
    if meta.get("normalizer"):
        try:
            model.normalizer = MeasureNormalizer.from_dict(meta["normalizer"])
        except (KeyError, TypeError, AttributeError, ValueError,
                OverflowError) as e:
            raise CheckpointError("bad normalizer block: %r" % e)
    return model
