import numpy as np
import pytest

from sesqa.evaluation import (UndefinedCorrelationError,
                              consistency_values, correlations, e_total,
                              eval_cons, eval_mos, eval_rank, human_baseline,
                              kfold_split)


def test_eval_mos():
    assert eval_mos([3.0, 4.0], [3.0, 4.0]) == 0.0
    assert np.isclose(eval_mos([1.0, 5.0], [5.0, 1.0]), 4.0)
    with pytest.raises(ValueError):
        eval_mos([], [])
    with pytest.raises(ValueError):
        eval_mos([1.0], [1.0, 2.0])


def test_eval_rank_and_tie_convention():
    # ground truth: i is at least as good as j
    assert eval_rank([3.0, 4.0], [2.0, 3.5]) == 0.0
    assert eval_rank([2.0], [3.0]) == 1.0
    assert eval_rank([2.0], [2.0]) == 1.0   # ties count as wrong
    assert np.isclose(eval_rank([3.0, 2.0], [2.0, 3.0]), 0.5)
    with pytest.raises(ValueError):
        eval_rank([], [])


def test_eval_cons_identities():
    # perfectly consistent quadruple
    assert eval_cons(([3.0], [3.0], [2.0], [2.0])) == 0.0
    # constant scorer: only the separation term fires
    assert np.isclose(eval_cons(([2.5], [2.5], [2.5], [2.5])), 0.5)
    # worked example, matching the training-loss value
    v = eval_cons(([3.0], [3.2], [2.95], [2.75]))
    assert np.isclose(v, 0.40)
    # distinguishable pairs contribute the separation term only
    v = eval_cons(([2.5], [2.5], [2.5], [2.5]),
                  pair_scores=([4.0], [1.0]))
    assert np.isclose(v, 0.25)
    with pytest.raises(ValueError):
        eval_cons(([], [], [], []))


def test_consistency_values_vectorized():
    vals = consistency_values([3.0, 2.5], [3.0, 2.5],
                              [2.0, 2.5], [2.0, 2.5])
    np.testing.assert_allclose(vals, [0.0, 0.5])


def test_e_total_arithmetic():
    assert np.isclose(e_total(0.474, 0.090, 0.067), 0.394)
    assert e_total(0.0, 0.0, 0.0) == 0.0


def test_random_baseline_magnitudes():
    # uniform scores on synthetic quadruples/pairs reproduce the
    # published random-scorer magnitudes
    rng = np.random.default_rng(0)
    n = 10000
    s = rng.uniform(1.0, 5.0, size=(6, n))
    r_rank = eval_rank(s[4], s[5])
    l_cons = eval_cons((s[0], s[1], s[2], s[3]))
    assert abs(r_rank - 0.500) <= 0.02
    assert abs(l_cons - 0.61) <= 0.05


def test_correlations():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    rho_p, rho_s = correlations(x, 2 * x + 1)
    assert np.isclose(rho_p, 1.0) and np.isclose(rho_s, 1.0)
    rho_p, rho_s = correlations(x, np.exp(-x))
    assert rho_s == -1.0 and -1.0 < rho_p < 0.0
    with pytest.raises(UndefinedCorrelationError):
        correlations(x, np.ones(4))
    with pytest.raises(ValueError):
        correlations([1.0], [1.0])


def test_human_baseline():
    # two utterances with listener spreads 1.0 and 0.0
    v = human_baseline([[3.0, 4.0, 5.0], [2.0, 2.0, 2.0]])
    assert np.isclose(v, 0.5)
    with pytest.raises(ValueError):
        human_baseline([[3.0]])
    with pytest.raises(ValueError):
        human_baseline([])


def test_kfold_split_properties():
    split = kfold_split(10, 3, seed=1)
    all_items = np.concatenate(split)
    assert sorted(all_items) == list(range(10))
    sizes = sorted(len(f) for f in split)
    assert sizes == [3, 3, 4]
    # deterministic in the seed
    again = kfold_split(10, 3, seed=1)
    for a, b in zip(split, again):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        kfold_split(2, 3)
