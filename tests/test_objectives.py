import numpy as np
import pytest

from sesqa import ad, objectives
from sesqa.objectives import (LossConfig, loss_cons, loss_ds, loss_dt,
                              loss_jnd, loss_mos, loss_mr, loss_rank,
                              loss_sd, total_loss)

LN2 = float(np.log(2.0))


def T(x):
    return ad.Tensor(np.asarray(x, dtype=np.float64))


# ------------------------------------------------------------------ MOS

def test_mos_identities():
    assert loss_mos(T([3.0]), [3.0]).data == 0.0
    assert np.isclose(loss_mos(T([3.7]), [4.2]).data, 0.5)
    assert np.isclose(loss_mos(T([1.0, 5.0]), [5.0, 1.0]).data, 4.0)


# ----------------------------------------------------------------- rank

def test_rank_identities():
    # clearly ordered pair: hinge inactive
    assert loss_rank(T([3.0]), T([2.0])).data == 0.0
    # tie pays the full margin
    assert np.isclose(loss_rank(T([2.0]), T([2.0])).data, 0.3)
    # annotated pair tightens the margin to the label gap
    v = loss_rank(T([3.40]), T([3.45]), targets_i=[3.5], targets_j=[3.4],
                  annotated=True)
    assert np.isclose(v.data, 0.15)
    with pytest.raises(ValueError):
        loss_rank(T([3.0]), T([2.0]), annotated=True)


def test_rank_translation_invariant():
    rng = np.random.default_rng(0)
    a, b = rng.uniform(1, 5, 8), rng.uniform(1, 5, 8)
    v0 = loss_rank(T(a), T(b)).data
    v1 = loss_rank(T(a + 1.7), T(b + 1.7)).data
    assert np.isclose(v0, v1)


# ----------------------------------------------------------- consistency

def test_cons_zero_case():
    # same-signal scores agree, pair differences match, pairs separated
    v = loss_cons(T([3.0]), T([3.0]), T([2.0]), T([2.0]))
    assert v.data == 0.0


def test_cons_degenerate_half():
    v = loss_cons(T([2.5]), T([2.5]), T([2.5]), T([2.5]))
    assert np.isclose(v.data, 0.5)


def test_cons_worked_example():
    # same-signal gap 0.2; pair diffs 0.05 vs 0.45 -> mismatch 0.4;
    # separation 0.05 short of the 0.1 margin
    v = loss_cons(T([3.0]), T([3.2]), T([2.95]), T([2.75]))
    assert np.isclose(v.data, 0.25 * (0.2 + 0.4) + 5.0 * (0.1 - 0.05))
    assert np.isclose(v.data, 0.40)


def test_cons_extra_pairs_mean():
    # one quadruple plus one well-separated extra pair
    v = loss_cons(T([2.5]), T([2.5]), T([2.5]), T([2.5]),
                  extra_pairs=(T([4.0]), T([1.0])))
    assert np.isclose(v.data, (0.5 + 0.0) / 2.0)


# -------------------------------------------------------------- sd / jnd

def test_bce_identities():
    for fn in (loss_sd, loss_jnd):
        assert fn(T([1.0, 0.0]), [1.0, 0.0]).data < 1e-5
        assert np.isclose(fn(T([0.5, 0.5]), [1.0, 0.0]).data, LN2)


# ------------------------------------------------------------------- dt

def test_dt_identities():
    eye = np.zeros(5)
    eye[2] = 1.0
    assert loss_dt(T(eye), eye).data < 1e-5
    v = loss_dt(T(np.full(31, 0.5)), np.zeros(31))
    assert np.isclose(float(v.data), 31 * LN2)
    assert np.isclose(float(v.data), 21.4876, atol=5e-4)


def test_dt_decomposes_per_class():
    rng = np.random.default_rng(1)
    p = rng.uniform(0.1, 0.9, size=(3, 4))
    t = (rng.random((3, 4)) > 0.5).astype(float)
    whole = loss_dt(T(p), t).data
    per = sum(loss_dt(T(p[:, j:j + 1]), t[:, j:j + 1]).data
              for j in range(4))
    assert np.isclose(whole, per)


def test_dt_shape_mismatch():
    with pytest.raises(ValueError):
        loss_dt(T(np.zeros(4)), np.zeros(5))


# ------------------------------------------------------------------- ds

def test_ds_identities():
    t = np.zeros(6)
    t[1] = 0.7
    p = np.zeros(6)
    p[1] = 0.2
    assert loss_ds(T(t), t).data == 0.0
    assert np.isclose(loss_ds(T(p), t).data, 0.5)
    # clean frame: all-zero target
    assert loss_ds(T(np.zeros(6)), np.zeros(6)).data == 0.0


# ------------------------------------------------------------------- mr

def test_mr_identities_and_mask():
    t = np.array([[1.5, -0.3]])
    assert loss_mr(T(t), t).data == 0.0
    assert np.isclose(loss_mr(T(np.zeros((1, 2))), np.array([[1.5, 0.0]])).data,
                      1.5)
    # masked-out column contributes nothing
    v = loss_mr(T(np.zeros((1, 2))), np.array([[1.5, 99.0]]),
                mask=np.array([[1.0, 0.0]]))
    assert np.isclose(v.data, 1.5)


# ------------------------------------------------------------ aggregation

def test_total_loss_sums_enabled():
    cfg = LossConfig()
    comp = {"mos": T(0.3), "rank": T(0.2)}
    total, report = total_loss(comp, cfg)
    assert np.isclose(total.data, 0.5)
    assert report.values == {"mos": 0.3, "rank": 0.2}


def test_total_loss_singleton_mask():
    cfg = LossConfig(loss_mask=("mos",))
    comp = {"mos": T(0.42), "rank": T(9.0)}
    total, _ = total_loss(comp, cfg)
    assert np.isclose(total.data, 0.42)


def test_total_loss_missing_component_warns():
    cfg = LossConfig(loss_mask=("jnd",))
    with pytest.warns(UserWarning):
        total, _ = total_loss({}, cfg)
    assert total.data == 0.0


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(loss_mask=("mos", "nope"))
    with pytest.raises(ValueError):
        total_loss({}, LossConfig(loss_mask=()))
