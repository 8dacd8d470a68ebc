"""End-to-end acceptance gate, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py``; each criterion shows up
as exactly one PASSED/FAILED line. The toy training experiment (criteria
8 and 9) defaults to a size that finishes on a weak single core; set
SESQA_TOY_QUADS=2000 and SESQA_TOY_EPOCHS=5 for the full-size variant
(thresholds are identical at both scales).
"""

import numpy as np
import pytest
from scipy import stats as sstats

import toyrun
from sesqa import ad, nn, objectives
from sesqa.audio import extract_slice
from sesqa.degrade import DegradationSpec, apply_degradation, sample_chain
from sesqa.degrade.chains import FIRST_STAGE, SECOND_STAGE
from sesqa.degrade.kinds import NATIVE_KINDS
from sesqa.degrade.quadruples import generate_quadruple, iter_quadruples
from sesqa.evaluation import (e_total, eval_cons, eval_rank,
                              latent_distance_stats, strength_sweep)
from sesqa.measures import compute_measure
from sesqa.model import Model, ModelConfig, load_checkpoint, save_checkpoint
from sesqa.training import TrainConfig, train

import test_autodiff as ga
from conftest import speechlike
from test_degradations import recover_delay

RATE = 48000

# Externally reported benchmark rows: (system, overall components
# (L_MOS, R_RANK, L_CONS), per-dataset components for three test sets,
# printed E_TOTAL). The printed total must be reproducible from at least
# one of the two component sets.
BENCHMARK_ROWS = [
    ("Random score", (1.219, 0.500, 0.614),
     [(1.481, 0.500, 0.747), (1.033, 0.499, 0.516), (1.144, 0.501, 0.580)],
     1.724),
    ("ITU-T P.563", (0.982, 0.498, 0.050),
     [(1.304, 0.501, 0.050), (0.752, 0.501, 0.050), (0.890, 0.501, 0.050)],
     1.042),
    ("FL-JND", (0.899, 0.365, 0.093),
     [(0.981, 0.363, 0.106), (0.768, 0.411, 0.078), (0.948, 0.321, 0.095)],
     0.908),
    ("SRMR", (0.854, 0.351, 0.071),
     [(0.995, 0.283, 0.110), (0.743, 0.487, 0.049), (0.825, 0.282, 0.053)],
     0.849),
    ("FL-PASE", (0.735, 0.324, 0.105),
     [(0.798, 0.291, 0.126), (0.720, 0.348, 0.074), (0.686, 0.333, 0.114)],
     0.796),
    ("AutoMOS", (0.537, 0.311, 0.212),
     [(0.532, 0.293, 0.236), (0.536, 0.292, 0.250), (0.542, 0.349, 0.151)],
     0.792),
    ("Quality-Net", (0.657, 0.349, 0.087),
     [(0.695, 0.271, 0.077), (0.657, 0.319, 0.075), (0.620, 0.418, 0.110)],
     0.765),
    ("WEnet", (0.660, 0.258, 0.125),
     [(0.702, 0.211, 0.142), (0.690, 0.274, 0.085), (0.587, 0.290, 0.147)],
     0.713),
    ("NISQA", (0.556, 0.243, 0.123),
     [(0.543, 0.209, 0.138), (0.530, 0.184, 0.106), (0.594, 0.335, 0.125)],
     0.644),
    ("CNN-ELM", (0.511, 0.220, 0.145),
     [(0.528, 0.184, 0.161), (0.511, 0.176, 0.130), (0.493, 0.301, 0.144)],
     0.621),
    ("SESQA", (0.474, 0.090, 0.067),
     [(0.485, 0.096, 0.089), (0.513, 0.086, 0.057), (0.424, 0.089, 0.056)],
     0.394),
    # ablations over the loss mask
    ("w/o MOS", (0.839, 0.079, 0.044),
     [(1.106, 0.078, 0.044), (0.700, 0.074, 0.044), (0.711, 0.085, 0.044)],
     0.543),
    ("w/o RANK", (0.492, 0.201, 0.061),
     [(0.496, 0.124, 0.081), (0.544, 0.277, 0.050), (0.437, 0.202, 0.051)],
     0.508),
    ("w/o CONS", (0.441, 0.096, 0.130),
     [(0.449, 0.098, 0.154), (0.464, 0.086, 0.117), (0.411, 0.104, 0.120)],
     0.447),
    ("w/o SD", (0.482, 0.091, 0.067),
     [(0.491, 0.099, 0.087), (0.517, 0.083, 0.057), (0.437, 0.090, 0.057)],
     0.399),
    ("w/o JND", (0.475, 0.089, 0.067),
     [(0.484, 0.096, 0.089), (0.516, 0.086, 0.057), (0.421, 0.086, 0.055)],
     0.394),
    ("w/o DT", (0.476, 0.089, 0.067),
     [(0.482, 0.097, 0.088), (0.523, 0.082, 0.056), (0.422, 0.089, 0.057)],
     0.394),
    ("w/o DS", (0.479, 0.090, 0.067),
     [(0.484, 0.096, 0.088), (0.524, 0.084, 0.056), (0.429, 0.089, 0.057)],
     0.396),
    ("w/o MR", (0.488, 0.093, 0.066),
     [(0.500, 0.104, 0.086), (0.532, 0.083, 0.056), (0.433, 0.092, 0.056)],
     0.403),
    ("Only MOS", (0.480, 0.265, 0.137),
     [(0.478, 0.208, 0.163), (0.529, 0.268, 0.116), (0.434, 0.320, 0.132)],
     0.643),
]


# ------------------------------------------------------ shared toy run

@pytest.fixture(scope="module")
def toy_data():
    return toyrun.build_dataset()


@pytest.fixture(scope="module")
def toy_full(toy_data):
    model, _ = toyrun.train_toy(toy_data)
    return model


@pytest.fixture(scope="module")
def toy_mos_only(toy_data):
    model, _ = toyrun.train_toy(toy_data, loss_mask=("mos",))
    return model


# ---------------------------------------------------------- criteria

def test_criterion_01_metric_arithmetic():
    """Every benchmark row's E_TOTAL follows from its components."""
    tol = 0.0005 + 1e-12
    for name, main, per_dataset, printed in BENCHMARK_ROWS:
        err_main = abs(e_total(*main) - printed)
        err_sets = abs(np.mean([e_total(*d) for d in per_dataset]) - printed)
        assert min(err_main, err_sets) <= tol, \
            "%s: %.4f / %.4f off by %.4f" % (name, err_main, err_sets,
                                             min(err_main, err_sets))


def test_criterion_02_random_baseline():
    """Uniform random scores land at R_RANK 0.500 and L_CONS 0.61."""
    rng = np.random.default_rng(0)
    s = rng.uniform(1.0, 5.0, size=(6, 10000))
    r_rank = eval_rank(s[4], s[5])
    l_cons = eval_cons((s[0], s[1], s[2], s[3]))
    assert abs(r_rank - 0.500) <= 0.02, r_rank
    assert abs(l_cons - 0.61) <= 0.05, l_cons


def test_criterion_03_gradient_suite():
    """Every op and the encoder+loss composites pass float64
    central-difference checks at 10 random points, rel err < 1e-5."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = ga.t64(rng, 3, 4)
        y = ga.t64(rng, 3, 4)
        w = ga.t64(rng, 4, 5)
        wb = ga.t64(rng, 5, scale=0.1)
        ga.check(lambda: ad.mean(ad.sigmoid(x) * y + ad.softplus(x)), [x, y])
        ga.check(lambda: ad.mean(nn.linear(x, w, wb)), [x, w, wb])
        c = ga.t64(rng, 2, 1, 12, scale=0.5)
        k = ga.t64(rng, 3, 1, 3, scale=0.5)
        kb = ga.t64(rng, 3, scale=0.1)
        ga.check(lambda: ad.mean(nn.blurpool(nn.conv1d(c, k, kb), 4)),
                 [c, k, kb])
        s = ga.t64(rng, 2, 3, 8, scale=0.5)
        ga.check(lambda: ad.mean(nn.stats_pool(s)), [s])
    # full-architecture composites, one per loss family
    ga.test_grad_encoder_mos()
    ga.test_grad_encoder_rank()
    ga.test_grad_encoder_cons()
    ga.test_grad_encoder_classification_losses()


def test_criterion_04_loss_identities():
    """The documented loss values hold exactly."""
    T = lambda v: ad.Tensor(np.asarray(v, dtype=np.float64))
    ln2 = np.log(2.0)
    assert objectives.loss_mos(T([3.0]), [3.0]).data == 0.0
    assert np.isclose(objectives.loss_mos(T([3.7]), [4.2]).data, 0.5)
    assert objectives.loss_rank(T([3.0]), T([2.0])).data == 0.0
    assert np.isclose(objectives.loss_rank(T([2.0]), T([2.0])).data, 0.3)
    assert objectives.loss_cons(T([3.0]), T([3.0]), T([2.0]),
                                T([2.0])).data == 0.0
    assert np.isclose(objectives.loss_cons(T([2.5]), T([2.5]), T([2.5]),
                                           T([2.5])).data, 0.5)
    assert np.isclose(objectives.loss_cons(T([3.0]), T([3.2]), T([2.95]),
                                           T([2.75])).data, 0.40)
    assert np.isclose(objectives.loss_jnd(T([0.5]), [1.0]).data, ln2)
    assert np.isclose(objectives.loss_dt(T(np.full(31, 0.5)),
                                         np.zeros(31)).data, 31 * ln2)
    total, _ = objectives.total_loss(
        {"mos": T(0.3), "rank": T(0.2)}, objectives.LOSS_NAMES)
    assert np.isclose(total.data, 0.5)


def test_criterion_05_degradation_fidelity():
    """SNR within 0.1 dB, clipping fraction within 1%, mu-law level
    counts bounded, reverse involutive bit-exactly."""
    frame = speechlike(seed=90, seconds=1.0)
    rng = np.random.default_rng(0)
    x64 = frame.samples.astype(np.float64)
    for kind, n in (("additive_noise", 34), ("colored_noise", 33),
                    ("hum_noise", 33)):
        for _ in range(n):
            spec = DegradationSpec(kind=kind, strength=float(rng.uniform()),
                                   aux_params={"partial": False},
                                   seed=int(rng.integers(2 ** 31)))
            out = apply_degradation(frame, spec)
            noise = out.samples.astype(np.float64) - x64
            got = 10 * np.log10(np.sum(x64 ** 2) / np.sum(noise ** 2))
            assert abs(got - spec.aux_params["snr_db"]) <= 0.1

    for _ in range(25):
        spec = DegradationSpec(kind="clipping",
                               strength=float(rng.uniform()))
        out = apply_degradation(frame, spec)
        got = np.mean(np.abs(out.samples) < np.abs(frame.samples))
        assert abs(got - spec.aux_params["fraction"]) <= 0.01

    for s in np.linspace(0.0, 1.0, 9):
        spec = DegradationSpec(kind="mu_law", strength=float(s))
        out = apply_degradation(frame, spec)
        assert len(np.unique(out.samples)) <= 2 ** spec.aux_params["bits"]

    spec = DegradationSpec(kind="reverse", strength=0.0)
    twice = apply_degradation(apply_degradation(frame, spec), spec)
    np.testing.assert_array_equal(twice.samples, frame.samples)


def test_criterion_06_generator_distributions():
    """Chain-length frequencies within 3-sigma binomial bounds at 1e5
    draws; cut delay recovered within one sample on 1k quadruples."""
    rng = np.random.default_rng(0)
    n = 100000
    for stage, dist in (("first", FIRST_STAGE), ("second", SECOND_STAGE)):
        lengths = np.array([len(sample_chain(stage, rng,
                                             available=NATIVE_KINDS))
                            for _ in range(n)])
        for k, p in zip(dist.counts, dist.count_probs):
            hit = int(np.sum(lengths == k))
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(hit - n * p) <= 3 * sigma, (stage, k, hit)

    pool = toyrun.make_pool()
    for i, q in iter_quadruples(pool, 1000, master_seed=606):
        d_true = int(round(q.delay_ms * RATE / 1000.0))
        assert abs(recover_delay(q) - d_true) <= 1, i


def test_criterion_07_architecture_shape():
    """One second of audio maps to a 200-dim latent via a 512-dim stats
    vector; scores stay inside (1, 5); latent width is length-invariant."""
    model = Model(ModelConfig(channel_mult=1.0, seed=0))
    assert model.stats_dim == 512
    for seconds in (1.0, 1.5):
        x = speechlike(seed=91, seconds=seconds).samples[None, :]
        z = model.encode(x)
        assert z.data.shape == (1, 200)
        s = float(model.score(z).data[0])
        assert 1.0 < s < 5.0


def test_criterion_08_toy_end_to_end(toy_data, toy_full):
    """Training the small model separates held-out quality orderings,
    tracks additive-noise strength monotonically, and clusters
    same-condition cuts closer than cross-utterance cuts."""
    _, held_q, _, _, _ = toy_data
    r_rank = toyrun.heldout_rank(toy_full, held_q)
    assert r_rank < 0.25, "held-out R_RANK %.3f" % r_rank

    clean = extract_slice(toyrun.make_utterance(9999), 0, RATE)
    curve = strength_sweep(toy_full, clean, "additive_noise", seed=0)
    rho = sstats.spearmanr(curve["strengths"],
                           curve["mean_scores"]).statistic
    assert rho <= -0.8, "strength sweep Spearman %.2f" % rho

    d = latent_distance_stats(toy_full, held_q[:48], return_raw=True)
    res = sstats.mannwhitneyu(d["same_condition"]["raw"],
                              d["different_utterance"]["raw"],
                              alternative="less")
    assert res.pvalue < 0.01, "rank test p=%.4g" % res.pvalue


def test_criterion_09_ablation_ordering(toy_data, toy_full, toy_mos_only):
    """Dropping every loss except MOS worsens held-out ranking."""
    _, held_q, _, _, _ = toy_data
    r_full = toyrun.heldout_rank(toy_full, held_q)
    r_mos = toyrun.heldout_rank(toy_mos_only, held_q)
    assert r_mos > r_full, "mos-only %.3f vs full %.3f" % (r_mos, r_full)


def test_criterion_10_determinism(tmp_path):
    """Generation, training, and checkpoints are reproducible."""
    pool = toyrun.make_pool(n=4, seed=500)
    a = list(iter_quadruples(pool, 6, master_seed=7))
    b = list(iter_quadruples(pool, 6, master_seed=7))
    for (_, qa), (_, qb) in zip(a, b):
        for fa, fb in zip(qa.frames(), qb.frames()):
            np.testing.assert_array_equal(fa.samples, fb.samples)
        assert [s.to_dict() for s in qa.chain_j] == \
            [s.to_dict() for s in qb.chain_j]

    quads, _, mos_items, jnd_items, _ = toyrun.build_dataset(
        n_train=4, n_heldout=0, seed=77, with_measures=False)
    paths = []
    for run in range(2):
        model = Model(ModelConfig(channel_mult=0.25, seed=3))
        cfg = TrainConfig(epochs=1, batch_size=4, loss_mask=("mos",),
                          seed=3)
        train(model, cfg, quads, mos_items=mos_items, jnd_items=jnd_items)
        p = tmp_path / ("run%d.ckpt" % run)
        save_checkpoint(model, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    back = load_checkpoint(paths[0])
    x = speechlike(seed=92, seconds=1.0).samples[None, :]
    np.testing.assert_array_equal(model.encode(x).data,
                                  back.encode(x).data)


def test_criterion_11_measure_sanity():
    """Identity inputs reach each measure's optimum, SI-SDR is scale
    invariant, and the SNR-type measures are monotone in noise level."""
    x = speechlike(seed=93, seconds=1.5).samples
    for name, best in (("ssnr", 35.0), ("llr", 0.0), ("wssd", 0.0),
                       ("stoi", 1.0), ("sisdr", 60.0), ("mcd", 0.0),
                       ("lmbd", 0.0)):
        assert np.isclose(compute_measure(name, x, x), best, atol=1e-6)

    noise = np.random.default_rng(1).normal(size=len(x)).astype(np.float32)

    def at_snr(snr):
        g = np.sqrt(np.sum(x ** 2) / (np.sum(noise ** 2) * 10 ** (snr / 10)))
        return (x + g * noise).astype(np.float32)

    y = at_snr(12.0)
    assert np.isclose(compute_measure("sisdr", x, y),
                      compute_measure("sisdr", 3.0 * x, 3.0 * y), atol=1e-6)
    for name in ("ssnr", "sisdr"):
        vals = [compute_measure(name, x, at_snr(s))
                for s in (30.0, 20.0, 10.0, 0.0)]
        assert all(a > b for a, b in zip(vals, vals[1:])), (name, vals)
