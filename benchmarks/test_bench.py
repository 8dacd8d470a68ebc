"""Tests of the benchmark itself (not collected by the repository's suite).

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refenc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sesqa import ad, cli, model as model_mod, nn, training  # noqa: E402
from sesqa.model import Model, ModelConfig  # noqa: E402


def _span(name, start, end, parent=None, **attrs):
    s = spans.Span(name, start, parent, attrs)
    s.end = end
    return s


def test_self_time_subtracts_the_union_of_children():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 3.0, 6.0, root)        # overlaps a
    c = _span("c", 8.0, 12.0, root)       # runs past its parent
    d = _span("d", 2.0, 3.0, a)
    st = spans.self_times([root, a, b, c, d])
    assert st[id(root)] == pytest.approx(10.0 - (5.0 + 2.0))
    assert st[id(a)] == pytest.approx(2.0)
    assert st[id(b)] == pytest.approx(3.0)
    assert st[id(d)] == pytest.approx(1.0)


def test_gaps_go_to_the_neighbouring_block():
    enc = _span("model.encode", 0.0, 10.0)
    kids = [_span("nn.conv1d_k4", 1.0, 3.0, enc, block="enc.pool0", phase="fwd"),
            _span("nn.batchnorm", 4.0, 5.0, enc, block="enc.res0", phase="fwd")]
    back = _span("ad.backward", 20.0, 30.0)
    bk = [_span("nn.batchnorm", 22.0, 23.0, back, block="enc.res0", phase="bwd"),
          _span("nn.conv1d_k4", 25.0, 27.0, back, block="enc.pool0", phase="bwd")]
    m = spans.layer_metrics([enc, *kids, back, *bk])
    # forward: a gap belongs to the op before it, the leading gap to the first
    assert m["enc.pool0.fwd_s"] == pytest.approx(1.0 + 2.0 + 1.0)
    assert m["enc.res0.fwd_s"] == pytest.approx(1.0 + 5.0)
    assert m["ad.other.fwd_s"] == pytest.approx(7.0)
    # backward: a gap belongs to the op after it, the trailing gap to the last
    assert m["enc.res0.bwd_s"] == pytest.approx(2.0 + 1.0)
    assert m["enc.pool0.bwd_s"] == pytest.approx(2.0 + 2.0 + 3.0)
    assert m["ad.other.bwd_s"] == pytest.approx(7.0)
    assert m["ad.backward.s"] == pytest.approx(10.0)


def _tiny_model():
    """Width 1/8, BatchNorm stats set from a batch as the score set-up does."""
    m = Model(ModelConfig(channel_mult=0.125, seed=3))
    rng = np.random.default_rng(5)
    for bn in m.bns.values():
        bn.gamma.data = rng.uniform(0.5, 1.5, bn.gamma.data.shape).astype(np.float32)
        bn.beta.data = rng.normal(0, 0.1, bn.beta.data.shape).astype(np.float32)
    training.recalibrate_bn(m, rng.uniform(-0.5, 0.5, (4, 3000)))
    return m


def test_traced_run_restores_every_function():
    mods = (nn, training, cli, model_mod, ad)
    before = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    methods = (model_mod.Model.encode, model_mod.Model.score, ad.Tensor.backward)
    m = _tiny_model()
    frames = np.random.default_rng(0).normal(0, 0.1, (2, 2048))
    tracer = spans.Tracer()
    with tracer:
        assert nn.conv1d is not before[("sesqa.nn", "conv1d")]
        assert training.qh_step is not before[("sesqa.training", "qh_step")]
        assert cli.main is not before[("sesqa.cli", "main")]
        z = m.encode(frames, train=True)
        ad.tensor_sum(m.score(z)).backward()
    after = {(m_.__name__, k): v for m_ in mods for k, v in vars(m_).items()}
    assert all(after[key] is val for key, val in before.items())
    assert (model_mod.Model.encode, model_mod.Model.score,
            ad.Tensor.backward) == methods
    layer = spans.layer_metrics(tracer.spans)
    for blk in spans.BLOCKS:
        assert layer[blk + ".fwd_s"] > 0, blk
        assert layer[blk + ".bwd_s"] > 0, blk
    for op in spans.NN_OPS:
        assert layer["nn.%s.fwd_s" % op] > 0, op
        assert layer["nn.%s.bwd_s" % op] > 0, op
    assert layer["model.encode.peak_alloc_mb"] > 0
    assert layer["model.encode.retained_mb"] > 0


def test_independent_encoder_matches_model_encode():
    m = _tiny_model()
    frames = np.random.default_rng(1).uniform(-0.5, 0.5, (3, 3000))
    z = m.encode(frames).data
    s = m.score(m.encode(frames)).data
    arrays = {k: np.asarray(v, np.float64) for k, v in m.state_arrays().items()}
    np.testing.assert_allclose(refenc.encode(arrays, frames), z,
                               rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(refenc.score(arrays, frames), s, atol=1e-5)


def test_independent_encoder_notices_a_shifted_tap():
    m = _tiny_model()
    frames = np.random.default_rng(2).uniform(-0.5, 0.5, (2, 3000))
    arrays = {k: np.asarray(v, np.float64) for k, v in m.state_arrays().items()}
    good = refenc.score(arrays, frames)
    arrays["enc.res2.conv1.w"] = arrays["enc.res2.conv1.w"][:, :, ::-1]
    assert np.max(np.abs(refenc.score(arrays, frames) - good)) > \
        10 * workloads.SCORE_TOL


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.STAGE_NAMES)
