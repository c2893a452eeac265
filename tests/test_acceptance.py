"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The end-to-end learnability run (criteria 7, 9, 10) trains the full-size
network once on a seeded 64-utterance synthetic corpus, and criterion 7's
tests score it on one second seeded corpus, prepared once.
"""

import dataclasses
import itertools
import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pronassess as pa
from pronassess.durations import DurationModel, PhoneStats
from pronassess.inventory import PHONE_TO_INDEX, PHONEMES
from pronassess.model import TINY_CONFIG, ScoringModel
from pronassess.train import TrainConfig, train

from signals import pulse_train, tone
from test_model import make_utt

ROOT = Path(__file__).resolve().parents[1]
CORPUS_SEED = 5
HELDOUT_SEED = 6
TRAIN_SEED = 0


def ok(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} PASS: {detail}")


def prepared_corpus(out, seed):
    manifest = pa.generate_corpus(pa.SyntheticSpec(n_utterances=64, seed=seed), out)
    entries = pa.read_manifest(manifest)
    model = pa.read_duration_model(out / "durations.tsv")
    return pa.prepare_dataset(entries, model)


@pytest.fixture(scope="module")
def corpus64(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus64")
    return out, prepared_corpus(out, CORPUS_SEED)


@pytest.fixture(scope="module")
def heldout(tmp_path_factory):
    return prepared_corpus(tmp_path_factory.mktemp("heldout"), HELDOUT_SEED)


def score_pcc(model, utts):
    """(fluency, prosody) PCC of the model's predicted scores against the labels."""
    _, dists, _ = model.forward_batch(utts)
    return tuple(pa.pcc([pa.predict_score(d[head]) for d in dists],
                        [(u.fluency, u.prosody)[head] for u in utts]) for head in (0, 1))


@pytest.fixture(scope="module")
def trained(corpus64):
    _, dataset = corpus64
    epoch_records = []

    def snapshot(epoch, model):
        _, dists, _ = model.forward_batch(dataset[:4])
        epoch_records.append((epoch, [(d[0].copy(), d[1].copy()) for d in dists]))

    start = time.monotonic()
    result = train(dataset, config=TrainConfig(seed=TRAIN_SEED), epoch_callback=snapshot)
    elapsed = time.monotonic() - start
    return result, dataset, epoch_records, elapsed


def test_criterion_1_dtw_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(100)
    for _ in range(100):
        t_frames = int(rng.integers(1, 9))
        n_phones = int(rng.integers(1, min(t_frames, 3) + 1))
        phones = [PHONEMES[i] for i in rng.integers(0, 41, size=n_phones)]
        mat = rng.normal(-2.0, 1.0, size=(t_frames, 41))
        alignment, score = pa.dtw_align(mat, phones)
        obs = mat[:, [PHONE_TO_INDEX[p] for p in phones]]
        best = -np.inf
        for cuts in itertools.combinations(range(1, t_frames), n_phones - 1):
            bounds = (0,) + cuts + (t_frames,)
            s = 0.0
            for i in range(n_phones):
                for t in range(bounds[i], bounds[i + 1]):
                    s = s + obs[t, i]
            best = max(best, s)
        assert score == best
        assert alignment.spans[0].start_frame == 0
        assert alignment.spans[-1].end_frame == t_frames - 1
        covered = sum(sp.end_frame - sp.start_frame + 1 for sp in alignment.spans)
        assert covered == t_frames
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    ok(1, f"100 seeded DTW instances match exhaustive enumeration exactly ({elapsed:.2f} s)")


def test_criterion_2_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    model = ScoringModel(TINY_CONFIG, seed=1)
    batch = [make_utt(rng, 3, 5, 4, 7)]
    _, _, cache = model.forward_batch(batch)
    grads = model.backward(cache)
    h = 1e-5
    worst = 0.0
    for name, p in model.params.items():
        flat = p.reshape(-1)
        g = grads[name].reshape(-1)
        idxs = rng.choice(flat.size, size=min(10, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            lp, _, _ = model.forward_batch(batch)
            flat[i] = orig - h
            lm, _, _ = model.forward_batch(batch)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            rel = abs(g[i] - fd) / max(abs(g[i]), abs(fd), 1e-8)
            worst = max(worst, rel)
            assert rel <= 1e-3, f"{name}[{i}]: analytic {g[i]} vs fd {fd}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok(2, f"all {len(model.params)} tensors within 1e-3 of finite differences "
          f"(worst {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_3_gopd_closed_form():
    model = DurationModel({"AA": PhoneStats(100.0, 20.0, 50)}, PhoneStats(100.0, 20.0, 50))
    peak = pa.gopd(100.0, "AA", model)
    assert abs(peak - (-math.log(20.0 * math.sqrt(2.0 * math.pi)))) <= 1e-9
    for delta in (0.5, 3.0, 10.0, 25.0):
        assert abs(pa.gopd(100 + delta, "AA", model) - pa.gopd(100 - delta, "AA", model)) <= 1e-12
    grid = [pa.gopd(d, "AA", model) for d in (100.0, 120.0, 140.0, 160.0, 180.0)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    ok(3, "peak value, symmetry and strict monotone decrease verified")


def test_criterion_4_duration_fit_recovery():
    rng = np.random.default_rng(2024)
    samples = [("IY", float(d)) for d in rng.normal(100.0, 20.0, size=1000)]
    fitted = pa.fit_durations(samples).phones["IY"]
    assert 98.0 <= fitted.mean_ms <= 102.0
    assert 18.0 <= fitted.std_ms <= 22.0
    ok(4, f"recovered mean {fitted.mean_ms:.2f} ms, std {fitted.std_ms:.2f} ms "
          f"from Normal(100, 20^2)")


def test_criterion_5_dsp_sanity():
    grid = pa.FrameGrid.for_signal(16000)

    buf = tone(220)
    f0, voiced = pa.estimate_f0(buf, grid)
    med = float(np.median(f0[voiced]))
    assert abs(med - 220.0) <= 2.0
    assert abs(pa.hz_to_semitones(med) - 36.0) <= 0.2
    jitter = pa.compute_jitter(buf, grid, f0, voiced)
    assert np.all(jitter[voiced] <= 0.005)

    pulses = pulse_train(1 / 150.0, 0.025, 16000)  # 5% consecutive-period jitter
    f0p, vp = pa.estimate_f0(pulses, grid)
    measured = float(np.median(pa.compute_jitter(pulses, grid, f0p, vp)[vp]))
    assert abs(measured - 0.05) <= 0.2 * 0.05

    assert np.all(pa.compute_alpha_ratio(pa.power_spectrum(tone(200), grid))[2:-2] >= 20.0)
    assert np.all(pa.compute_alpha_ratio(pa.power_spectrum(tone(3000), grid))[2:-2] <= -20.0)

    ff = pa.extract_frame_features(pa.AudioBuffer(np.zeros(16000)))
    assert not ff.voiced.any()
    assert np.all(ff.to_matrix() == 0.0)
    ok(5, f"tone f0 {med:.2f} Hz, tone jitter <= 0.005, injected jitter "
          f"{measured:.4f} vs 0.05, band ratios and silence all in spec")


def test_criterion_6_functionals_laws():
    from signals import random_frame_features

    rng = np.random.default_rng(60)
    for _ in range(20):
        ff = random_frame_features(rng)
        k = rng.uniform(-6, 6)
        shifted = pa.FrameFeatures(
            ff.loudness, ff.alpha_ratio_db,
            np.where(ff.voiced, ff.f0_semitones + k, 0.0),
            ff.jitter_local, ff.voiced,
        )
        a = pa.compute_functionals(ff).to_vector()
        b = pa.compute_functionals(shifted).to_vector()
        np.testing.assert_allclose(b[[0, 2, 3, 4]], a[[0, 2, 3, 4]] + k, atol=1e-9)
        np.testing.assert_allclose(b[1], a[1], atol=1e-9)
        np.testing.assert_allclose(b[5:], a[5:], atol=1e-9)

    for _ in range(20):
        ff = random_frame_features(rng)
        rev = pa.FrameFeatures(
            ff.loudness[::-1].copy(), ff.alpha_ratio_db[::-1].copy(),
            ff.f0_semitones[::-1].copy(), ff.jitter_local[::-1].copy(),
            ff.voiced[::-1].copy(),
        )
        r1, f1 = pa.pitch_slopes(ff)
        r2, f2 = pa.pitch_slopes(rev)
        np.testing.assert_allclose(np.sort(r2), np.sort(-f1), atol=1e-9)
        np.testing.assert_allclose(np.sort(f2), np.sort(-r1), atol=1e-9)
        a = pa.compute_functionals(ff).to_vector()
        b = pa.compute_functionals(rev).to_vector()
        np.testing.assert_allclose(b[9:], a[9:], atol=1e-12)
    ok(6, "pitch-shift equivariance and time-reversal slope swap on 20 seeds each")


def test_criterion_7_end_to_end_learnability(trained, heldout):
    result, dataset, _, elapsed = trained
    assert elapsed < 600.0, f"training took {elapsed:.0f} s"

    epoch1 = result.history[0][1]
    best = result.history[result.best_epoch - 1][1]
    ratio = best / epoch1
    assert ratio <= 0.5, f"best-epoch train loss ratio {ratio:.3f}"

    r_f, r_p = score_pcc(result.model, [dataset[i] for i in result.train_indices])
    assert r_f >= 0.9, f"fluency train PCC {r_f:.3f}"
    assert r_p >= 0.9, f"prosody train PCC {r_p:.3f}"
    # A second seeded corpus the model never saw: the quality gate of training.
    h_f, h_p = score_pcc(result.model, heldout)
    assert h_f >= 0.9, f"fluency held-out PCC {h_f:.3f}"
    assert h_p >= 0.9, f"prosody held-out PCC {h_p:.3f}"
    ok(7, f"loss ratio {ratio:.3f} <= 0.5, train PCC fluency {r_f:.3f} / "
          f"prosody {r_p:.3f} >= 0.9, held-out PCC fluency {h_f:.3f} / prosody {h_p:.3f} "
          f">= 0.9 in {len(result.history)} epochs ({elapsed:.0f} s)")


def test_criterion_7_cue_ablations(trained, heldout):
    """Inference-time ablations on the held-out corpus. The frame-level
    contextual rows carry fluency and the utterance functionals carry
    prosody: removing either costs its head at least 0.3 of PCC. GoPD and
    the pooled descriptors are reported, not gated: they reach the heads
    only through the attention queries, and today move neither PCC."""
    model = trained[0].model

    def fusion(utt, **change):
        return dataclasses.replace(utt, fusion=dataclasses.replace(utt.fusion, **change))

    gopd_mean = float(np.concatenate([u.fusion.gopd for u in heldout]).mean())
    pooled_mean = np.concatenate([u.fusion.pooled for u in heldout]).mean(axis=0)
    u_nv_mean = np.mean([u.u_nv for u in heldout], axis=0)
    table = {
        "full": heldout,
        "GoPD constant": [fusion(u, gopd=np.full(len(u.fusion), gopd_mean)) for u in heldout],
        "pooled at its mean": [fusion(u, pooled=np.tile(pooled_mean, (len(u.fusion), 1)))
                               for u in heldout],
        "ct zeroed": [dataclasses.replace(u, ct=np.zeros_like(u.ct)) for u in heldout],
        "u_nv at its mean": [dataclasses.replace(u, u_nv=u_nv_mean) for u in heldout],
    }
    pccs = {name: score_pcc(model, utts) for name, utts in table.items()}
    fluency_drop = pccs["full"][0] - pccs["ct zeroed"][0]
    prosody_drop = pccs["full"][1] - pccs["u_nv at its mean"][1]
    assert fluency_drop >= 0.3, f"ct zeroed lowers fluency PCC by only {fluency_drop:.3f}"
    assert prosody_drop >= 0.3, f"u_nv at its mean lowers prosody PCC by only {prosody_drop:.3f}"
    ok(7, "held-out PCC fluency / prosody: " + ", ".join(
        f"{name} {f:.3f} / {p:.3f}" for name, (f, p) in pccs.items()))


def test_criterion_7_float32_scores_within_gate(trained, tmp_path):
    """`score` runs a loaded checkpoint in its stored float32; on the trained
    model its scores stay within 1e-6 of the same weights in float64."""
    result, dataset, _, _ = trained
    result.model.save(tmp_path / "m.ckpt")
    loaded = ScoringModel.load(tmp_path / "m.ckpt")
    upcast = ScoringModel.load(tmp_path / "m.ckpt")
    upcast.params = {name: p.astype(np.float64) for name, p in upcast.params.items()}
    train_utts = [dataset[i] for i in result.train_indices]
    scores = [np.array([[pa.predict_score(d) for d in pair] for pair in m.forward_batch(train_utts)[1]])
              for m in (loaded, upcast)]
    worst = float(np.abs(scores[0] - scores[1]).max())
    assert worst <= 1e-6, f"float32 vs float64 |dscore| {worst:.2e}"
    ok(7, f"float32 scoring of the trained checkpoint within {worst:.1e} <= 1e-6 of float64 "
          f"on {len(train_utts)} training utterances")


def test_criterion_8_synthetic_alignment_self_consistency(tmp_path):
    manifest = pa.generate_corpus(pa.SyntheticSpec(n_utterances=100, seed=11), tmp_path)
    total = exact = 0
    for entry in pa.read_manifest(manifest):
        alignment, _ = pa.dtw_align(pa.read_matrix(entry.posterior_path), entry.phones)
        truth = pa.read_alignment(tmp_path / "alignments" / f"{entry.id}.tsv")
        for a, b in zip(alignment.spans, truth.spans):
            total += 1
            exact += a == b
    rate = exact / total
    assert rate >= 0.95
    ok(8, f"re-alignment recovered {exact}/{total} spans ({rate:.1%}) over 100 utterances")


def test_criterion_9_determinism(tmp_path, corpus64):
    from test_synth import tree_digest

    spec = pa.SyntheticSpec(n_utterances=12, seed=77)
    pa.generate_corpus(spec, tmp_path / "a")
    pa.generate_corpus(spec, tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    _, dataset = corpus64
    subset = dataset[:16]
    cfg = TrainConfig(epochs=3, seed=9)
    r1 = train(subset, config=cfg)
    r2 = train(subset, config=cfg)
    assert r1.history == r2.history
    r1.model.save(tmp_path / "c1.ckpt")
    r2.model.save(tmp_path / "c2.ckpt")
    assert (tmp_path / "c1.ckpt").read_bytes() == (tmp_path / "c2.ckpt").read_bytes()
    ok(9, "corpora, histories and checkpoints bit-identical across reruns")


# Trains the criterion-9 recipe on a pickled dataset; prints the BLAS
# thread count it ran at and the history.
TRAIN_RECIPE_9 = """
import pickle, sys
from pronassess import lstm
from pronassess.train import TrainConfig, train

with open(sys.argv[1], "rb") as f:
    subset = pickle.load(f)
result = train(subset, config=TrainConfig(epochs=3, seed=9))
result.model.save(sys.argv[2])
print(lstm._blas_thread_probe()[0]())
print(repr(result.history))
"""


def test_criterion_9_determinism_across_blas_thread_counts(tmp_path, corpus64):
    """The criterion-9 recipe gives the same history and checkpoint bytes
    in a process at one BLAS thread and in one at two."""
    _, dataset = corpus64
    subset = tmp_path / "subset.pkl"
    subset.write_bytes(pickle.dumps(dataset[:16]))
    runs = []
    for threads in (1, 2):
        ckpt = tmp_path / f"{threads}.ckpt"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", TRAIN_RECIPE_9, str(subset), str(ckpt)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        count, history = proc.stdout.splitlines()
        runs.append((int(count), history, ckpt.read_bytes()))
    # OpenBLAS starts at most one thread per CPU it may run on
    assert [count for count, _, _ in runs] == [1, min(2, len(os.sched_getaffinity(0)))]
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]
    ok(9, "histories and checkpoints bit-identical at 1 and 2 BLAS threads")


def test_criterion_10_distribution_validity(trained):
    _, _, epoch_records, _ = trained
    assert epoch_records, "no epochs recorded"
    for epoch, dists in epoch_records:
        for dist_f, dist_p in dists:
            for d in (dist_f, dist_p):
                assert abs(d.sum() - 1.0) <= 1e-9
                assert np.all(d > 0.0)
                assert 0.0 <= pa.predict_score(d) <= 10.0
    ok(10, f"valid head distributions and in-range scores after each of "
           f"{len(epoch_records)} epochs")
