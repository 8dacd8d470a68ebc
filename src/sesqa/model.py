"""Encoder + head bank for the speech quality network.

The encoder maps raw 48 kHz frames to 200-dim latents: learnable mu-law
companding, four conv/BN/ReLU/BlurPool blocks (x4 downsampling each), six
gated residual blocks, time statistics pooling, and a two-layer MLP.
Heads read latents (or concatenated latent pairs) and produce the score,
classification probabilities, and measure regressions.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import ad, nn
from .ad import Tensor

CHECKPOINT_MAGIC = b"SSQA"
CHECKPOINT_VERSION = 1

DTYPE = np.float32
PAD_MULTIPLE = 256          # four x4 reductions must divide the input
MIN_INPUT_SAMPLES = 5 * PAD_MULTIPLE
LATENT_DIM = 200
INFER_BATCH = 16            # rows per forward pass in Model.infer


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


@dataclass
class ModelConfig:
    channel_mult: float = 1.0
    n_kinds: int = 37
    measure_names: tuple = ()
    seed: int = 0

    def ch(self, n: int) -> int:
        return max(1, int(round(n * self.channel_mult)))


def _softplus_inverse(y: float) -> float:
    return float(np.log(np.expm1(y)))


class Model:
    """All parameters plus forward passes. Single-writer during training;
    immutable (and therefore freely shareable) in eval mode."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.bns: dict[str, nn.BatchNorm] = {}
        self.normalizer = None  # fitted MeasureNormalizer, set by training
        self._build()

    # ------------------------------------------------------------ setup
    def _param(self, name, array):
        t = Tensor(np.asarray(array, dtype=DTYPE), requires_grad=True)
        self.params[name] = t
        return t

    def _bn(self, name, num_features):
        bn = nn.BatchNorm(num_features, dtype=DTYPE)
        self.bns[name] = bn
        self.params[name + ".gamma"] = bn.gamma
        self.params[name + ".beta"] = bn.beta
        return bn

    def _linear_init(self, rng, fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    def _conv_init(self, rng, f, c, k):
        bound = 1.0 / np.sqrt(c * k)
        return rng.uniform(-bound, bound, size=(f, c, k))

    def _build(self):
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        ch = cfg.ch

        self._param("enc.m", _softplus_inverse(8.0))

        pool_channels = [ch(32), ch(64), ch(128), ch(256)]
        c_in = 1
        for i, f in enumerate(pool_channels):
            self._param("enc.pool%d.w" % i, self._conv_init(rng, f, c_in, 4))
            self._param("enc.pool%d.b" % i, np.zeros(f))
            self._bn("enc.pool%d.bn" % i, f)
            c_in = f

        self.res_channels = (ch(512), ch(512), ch(256))
        for r in range(6):
            self._bn("enc.res%d.bn_pre" % r, c_in)
            widths = [(self.res_channels[0], c_in, 1),
                      (self.res_channels[1], self.res_channels[0], 3),
                      (self.res_channels[2], self.res_channels[1], 1)]
            for j, (f, c, k) in enumerate(widths):
                self._param("enc.res%d.conv%d.w" % (r, j),
                            self._conv_init(rng, f, c, k))
                self._param("enc.res%d.conv%d.b" % (r, j), np.zeros(f))
                self._bn("enc.res%d.conv%d.bn" % (r, j), f)
            self._param("enc.res%d.gate" % r, np.full(c_in, 3.0))

        stats_dim = 2 * c_in
        self.stats_dim = stats_dim
        self._bn("enc.stats_bn", stats_dim)
        hidden = ch(1024)
        self._param("enc.mlp0.w", self._linear_init(rng, stats_dim, hidden))
        self._param("enc.mlp0.b", np.zeros(hidden))
        self._bn("enc.mlp0.bn", hidden)
        self._param("enc.mlp1.w", self._linear_init(rng, hidden, LATENT_DIM))
        self._param("enc.mlp1.b", np.zeros(LATENT_DIM))
        self._bn("enc.mlp1.bn", LATENT_DIM)

        D, P = LATENT_DIM, 2 * LATENT_DIM
        n_dt = cfg.n_kinds + 1  # extra coordinate for the clean class
        self._param("head.score.w", self._linear_init(rng, D, 1))
        self._param("head.score.b", np.zeros(1))
        # the draw of a deleted pair-score head: later heads keep their init
        self._linear_init(rng, P, 1)

        self._param("head.jnd.w", self._linear_init(rng, P, 1))
        self._param("head.jnd.b", np.zeros(1))
        self._bn("head.jnd.bn", 1)

        self._param("head.dt.w", self._linear_init(rng, D, n_dt))
        self._param("head.dt.b", np.zeros(n_dt))
        self._bn("head.dt.bn", n_dt)

        for name, din, dout in (("sd", P, 1),
                                ("ds", D, cfg.n_kinds),
                                ("mr", P, max(1, len(cfg.measure_names)))):
            self._param("head.%s.l0.w" % name, self._linear_init(rng, din, 400))
            self._param("head.%s.l0.b" % name, np.zeros(400))
            self._param("head.%s.l1.w" % name, self._linear_init(rng, 400, dout))
            self._param("head.%s.l1.b" % name, np.zeros(dout))
            self._bn("head.%s.bn" % name, dout)

    # ---------------------------------------------------------- forward
    def _prepare(self, frames: np.ndarray) -> np.ndarray:
        x = np.asarray(frames, dtype=DTYPE)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] < MIN_INPUT_SAMPLES:
            raise ValueError("input too short: %d < %d samples"
                             % (x.shape[1], MIN_INPUT_SAMPLES))
        rem = x.shape[1] % PAD_MULTIPLE
        if rem:
            x = np.pad(x, ((0, 0), (0, PAD_MULTIPLE - rem)))
        return x[:, None, :]

    def encode(self, frames: np.ndarray, train: bool = False) -> Tensor:
        """(B,T) raw audio -> (B,200) latents."""
        p, bns = self.params, self.bns
        x = Tensor(self._prepare(frames), requires_grad=False)
        mu = ad.softplus(p["enc.m"])
        h = nn.mu_law_compand(x, mu)

        for i in range(4):
            h = nn.conv1d(h, p["enc.pool%d.w" % i], p["enc.pool%d.b" % i])
            h = bns["enc.pool%d.bn" % i](h, train)
            h = ad.relu(h)
            h = nn.blurpool(h, 4)

        for r in range(6):
            f = bns["enc.res%d.bn_pre" % r](h, train)
            for j in range(3):
                f = ad.relu(f)
                f = nn.conv1d(f, p["enc.res%d.conv%d.w" % (r, j)],
                              p["enc.res%d.conv%d.b" % (r, j)])
                f = bns["enc.res%d.conv%d.bn" % (r, j)](f, train)
            gate = ad.sigmoid(p["enc.res%d.gate" % r])
            gate3 = ad.reshape(gate, (1, -1, 1))
            one_minus = ad.add_const(ad.mul_const(gate3, -1.0), 1.0)
            h = gate3 * h + one_minus * f

        h = nn.stats_pool(h)
        h = bns["enc.stats_bn"](h, train)
        h = nn.linear(h, p["enc.mlp0.w"], p["enc.mlp0.b"])
        h = bns["enc.mlp0.bn"](h, train)
        h = ad.relu(h)
        h = nn.linear(h, p["enc.mlp1.w"], p["enc.mlp1.b"])
        z = bns["enc.mlp1.bn"](h, train)
        return z

    def infer(self, frames) -> tuple[np.ndarray, np.ndarray]:
        """Forward-only (B,T) audio -> ((B,200) latents, (B,) scores).

        Eval-mode encode and score with no autodiff graph, INFER_BATCH
        rows at a time. `frames` is a (B,T) array or a list of
        equal-length 1-D arrays; each chunk is stacked only when run.
        """
        zs = [np.empty((0, LATENT_DIM), dtype=DTYPE)]
        ss = [np.empty(0, dtype=DTYPE)]
        with ad.no_grad():
            for b0 in range(0, len(frames), INFER_BATCH):
                chunk = np.asarray(frames[b0:b0 + INFER_BATCH], dtype=DTYPE)
                z = self.encode(chunk, train=False)
                zs.append(z.data)
                ss.append(self.score(z).data)
        return np.concatenate(zs), np.concatenate(ss)

    def score(self, z) -> Tensor:
        """Latents -> scores strictly inside (1,5)."""
        z = ad.as_tensor(z)
        logit = nn.linear(z, self.params["head.score.w"],
                          self.params["head.score.b"])
        s = ad.add_const(ad.mul_const(ad.sigmoid(logit), 4.0), 1.0)
        return ad.reshape(s, (-1,))

    def score_reference(self, z, z_ref) -> np.ndarray:
        """Score in (1,5) of latents `z` relative to reference latents:
        1 + 4*sigmoid((z - z_ref) @ w + b) on the trained score head."""
        w = self.params["head.score.w"].data[:, 0]
        b = float(self.params["head.score.b"].data[0])
        logit = z @ w - z_ref @ w + b
        return 1.0 + 4.0 / (1.0 + np.exp(-logit))

    def _mlp_head(self, name, x, train):
        p = self.params
        h = nn.linear(x, p["head.%s.l0.w" % name], p["head.%s.l0.b" % name])
        h = ad.relu(h)
        h = nn.linear(h, p["head.%s.l1.w" % name], p["head.%s.l1.b" % name])
        return self.bns["head.%s.bn" % name](h, train)

    def head_forward(self, head_id: str, z_a, z_b=None, train: bool = False):
        """Run one head. Pair heads (sd, jnd, mr) need two latents."""
        pair_heads = {"sd", "jnd", "mr"}
        single_heads = {"dt", "ds", "score"}
        if head_id in pair_heads:
            if z_b is None:
                raise ValueError("head %r needs two latents" % head_id)
            x = ad.concat([ad.as_tensor(z_a), ad.as_tensor(z_b)], axis=1)
        elif head_id in single_heads:
            if z_b is not None:
                raise ValueError("head %r takes a single latent" % head_id)
            x = ad.as_tensor(z_a)
        else:
            raise ValueError("unknown head %r" % head_id)

        p = self.params
        if head_id == "score":
            return self.score(x)
        if head_id == "jnd":
            h = nn.linear(x, p["head.jnd.w"], p["head.jnd.b"])
            return ad.sigmoid(self.bns["head.jnd.bn"](h, train))
        if head_id == "dt":
            h = nn.linear(x, p["head.dt.w"], p["head.dt.b"])
            return ad.sigmoid(self.bns["head.dt.bn"](h, train))
        if head_id == "sd":
            return ad.sigmoid(self._mlp_head("sd", x, train))
        if head_id == "ds":
            return ad.sigmoid(self._mlp_head("ds", x, train))
        return self._mlp_head("mr", x, train)  # unbounded regression

    # ------------------------------------------------------- persistence
    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {name: t.data for name, t in self.params.items()}
        for name, bn in self.bns.items():
            out[name + ".running_mean"] = bn.running_mean
            out[name + ".running_var"] = bn.running_var
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]):
        """Install saved tensors; names the model lacks are ignored."""
        expected = self.state_arrays()
        missing = set(expected) - set(arrays)
        if missing:
            raise CheckpointError("missing tensors: %s" % sorted(missing)[:5])
        for name, a in expected.items():
            if np.shape(arrays[name]) != a.shape:
                raise CheckpointError("shape mismatch for %s" % name)
        for name, t in self.params.items():
            t.data = np.asarray(arrays[name], dtype=DTYPE).copy()
        for name, bn in self.bns.items():
            bn.running_mean = np.asarray(arrays[name + ".running_mean"],
                                         dtype=DTYPE).copy()
            bn.running_var = np.asarray(arrays[name + ".running_var"],
                                        dtype=DTYPE).copy()


def save_checkpoint(model: Model, path) -> None:
    arrays = model.state_arrays()
    directory = [{"name": k, "shape": list(v.shape), "dtype": str(v.dtype)}
                 for k, v in arrays.items()]
    norm = None
    if model.normalizer is not None:
        norm = model.normalizer.to_dict()
    meta = {
        "config": {
            "channel_mult": model.config.channel_mult,
            "n_kinds": model.config.n_kinds,
            "measure_names": list(model.config.measure_names),
            "seed": model.config.seed,
        },
        "normalizer": norm,
        "tensors": directory,
    }
    blob = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for entry in directory:
            f.write(np.ascontiguousarray(arrays[entry["name"]]).astype(
                entry["dtype"]).tobytes())


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _meta_config(c, n_bytes: int) -> ModelConfig:
    """The ModelConfig of a checkpoint's `config` block.

    Model(config) allocates every parameter before the tensors are read,
    so a config whose widest weights alone would not fit in the `n_bytes`
    of the file is refused first: a corrupt width cannot allocate more
    than the file's own size."""
    mult, n_kinds = c["channel_mult"], c["n_kinds"]
    names, seed = c["measure_names"], c["seed"]
    if not (isinstance(mult, (int, float)) and not isinstance(mult, bool)
            and 0 < mult < math.inf):
        raise CheckpointError("bad channel_mult %r" % (mult,))
    if not (_is_int(n_kinds) and n_kinds >= 1):
        raise CheckpointError("bad n_kinds %r" % (n_kinds,))
    if not (isinstance(names, list)
            and all(isinstance(n, str) for n in names)):
        raise CheckpointError("bad measure_names %r" % (names,))
    if not (_is_int(seed) and seed >= 0):
        raise CheckpointError("bad seed %r" % (seed,))
    # six (ch(512), ch(512), 3) residual convs, the ds and mr output layers
    width = max(1, 512 * mult - 1)
    need = 4 * (18 * width * width + 400 * (n_kinds + max(1, len(names))))
    if need > n_bytes:
        raise CheckpointError("config needs more tensor data than the "
                              "file holds")
    return ModelConfig(channel_mult=mult, n_kinds=n_kinds,
                       measure_names=tuple(names), seed=seed)


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
    arrays = _read_tensors(entries, data, 12 + meta_len)
    model = Model(cfg)
    model.load_state_arrays(arrays)
    if meta.get("normalizer"):
        try:
            model.normalizer = MeasureNormalizer.from_dict(meta["normalizer"])
        except (KeyError, TypeError, AttributeError, ValueError,
                OverflowError) as e:
            raise CheckpointError("bad normalizer block: %r" % e)
    return model
