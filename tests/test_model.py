"""Scoring-network forward/backward behaviour on the tiny configuration."""

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pronassess.assembly import FusionInput
from pronassess.errors import FormatError, InventoryError, ValidationError
from pronassess.functionals import FUNCTIONAL_NAMES
from pronassess.inventory import INVENTORY_SIZE
from pronassess.metrics import N_CLASSES, predict_score
from pronassess.model import (
    CKPT_MAGIC,
    TINY_CONFIG,
    ModelConfig,
    ScoringModel,
    UtteranceFeatures,
    _param_table,
    cross_attention,
    fusion_steps,
    loss_fn,
    pair_means,
    softmax,
)

CFG = TINY_CONFIG


def make_fusion(rng, length):
    return FusionInput(
        gopd=rng.normal(-4.0, 1.5, length),
        pooled=np.column_stack([
            rng.uniform(0, 2, length), rng.normal(0, 10, length),
            rng.uniform(25, 40, length), rng.uniform(0, 0.05, length),
        ]),
        phone_indices=rng.integers(0, INVENTORY_SIZE, length),
    )


def make_utt(rng, length=3, t_frames=5, fluency=4, prosody=7, cfg=CFG):
    return UtteranceFeatures(
        fusion=make_fusion(rng, length),
        ct=rng.normal(0, 1, (t_frames, cfg.feature_dim)),
        u_nv=rng.normal(0, 1, len(FUNCTIONAL_NAMES)),
        fluency=fluency,
        prosody=prosody,
    )


class TestPhoneCue:
    def test_output_shape_single_position(self):
        rng = np.random.default_rng(0)
        model = ScoringModel(CFG, seed=1)
        out = model.phonecue_forward(make_fusion(rng, 1))
        assert out.shape == (1, CFG.feature_dim)

    def test_zero_weights_fixed_point(self):
        rng = np.random.default_rng(1)
        model = ScoringModel(CFG, seed=1)
        for p in model.params.values():
            p[...] = 0.0
        out = model.phonecue_forward(make_fusion(rng, 4))
        assert np.all(out == 0.0)

    def test_bidirectional_mixing_not_a_reversal(self):
        rng = np.random.default_rng(2)
        model = ScoringModel(CFG, seed=3)
        fusion = make_fusion(rng, 5)
        rev = FusionInput(fusion.gopd[::-1].copy(), fusion.pooled[::-1].copy(),
                          fusion.phone_indices[::-1].copy())
        fwd = model.phonecue_forward(fusion)
        bwd = model.phonecue_forward(rev)
        assert not np.allclose(bwd, fwd[::-1])

    def test_phone_index_out_of_range(self):
        rng = np.random.default_rng(3)
        model = ScoringModel(CFG, seed=1)
        fusion = make_fusion(rng, 2)
        fusion.phone_indices[0] = INVENTORY_SIZE
        with pytest.raises(InventoryError):
            model.phonecue_forward(fusion)


def attention_batch(rng, q_lens, t_lens, d, keys=None):
    """Zero-padded queries (B, max q_lens, d) and keys (B, max t_lens, d) of
    a mixed-length batch; keys(b, t) gives row b's valid keys if given."""
    p = np.zeros((len(q_lens), max(q_lens), d))
    ct = np.zeros((len(t_lens), max(t_lens), d))
    for b, (q, t) in enumerate(zip(q_lens, t_lens)):
        p[b, :q] = rng.normal(size=(q, d))
        ct[b, :t] = rng.normal(size=(t, d)) if keys is None else keys(b, t)
    return p, ct, np.array(t_lens)


def loop_cross_attention(p_nv, ct):
    """Attention of one utterance, unpadded: the reference for the batch."""
    weights = softmax(p_nv @ ct.T / np.sqrt(ct.shape[1]))
    return weights @ ct, weights


class TestAttention:
    """Properties of each utterance's valid outputs and weights in a
    mixed-length padded batch."""

    Q_LENS, T_LENS = (3, 1, 5, 2), (1, 6, 4, 9)

    def test_single_value_row(self):
        rng = np.random.default_rng(4)
        p, ct, t_lens = attention_batch(rng, self.Q_LENS, (1, 1, 3, 1), 8)
        out, _ = cross_attention(p, ct, t_lens)
        for b, (q, t) in enumerate(zip(self.Q_LENS, t_lens)):
            if t == 1:
                np.testing.assert_array_equal(out[b, :q], np.tile(ct[b, 0], (q, 1)))

    def test_identical_value_rows(self):
        rng = np.random.default_rng(5)
        p, ct, t_lens = attention_batch(rng, self.Q_LENS, self.T_LENS, 8,
                                        keys=lambda b, t: np.tile(rng.normal(size=8), (t, 1)))
        out, _ = cross_attention(p, ct, t_lens)
        for b, q in enumerate(self.Q_LENS):
            np.testing.assert_allclose(out[b, :q], np.tile(ct[b, 0], (q, 1)), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        _, weights = cross_attention(*attention_batch(rng, self.Q_LENS, self.T_LENS, 16))
        for b, (q, t) in enumerate(zip(self.Q_LENS, self.T_LENS)):
            np.testing.assert_allclose(weights[b, :q, :t].sum(axis=1), 1.0, atol=1e-12)
            assert np.all(weights[b, :, t:] == 0.0)

    def test_convex_envelope(self):
        rng = np.random.default_rng(7)
        p, ct, t_lens = attention_batch(rng, self.Q_LENS, self.T_LENS, 16)
        out, _ = cross_attention(p, ct, t_lens)
        for b, (q, t) in enumerate(zip(self.Q_LENS, t_lens)):
            lo, hi = ct[b, :t].min(axis=0), ct[b, :t].max(axis=0)
            assert np.all(out[b, :q] >= lo - 1e-12) and np.all(out[b, :q] <= hi + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 7)), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_utterance_loop(self, shapes, seed):
        """Each utterance's attended rows and weights in a padded batch are
        those of the utterance attended alone, within 1e-12."""
        q_lens, t_lens = zip(*shapes)
        p, ct, t_lens = attention_batch(np.random.default_rng(seed), q_lens, t_lens, 6)
        out, weights = cross_attention(p, ct, t_lens)
        for b, (q, t) in enumerate(zip(q_lens, t_lens)):
            ref_out, ref_weights = loop_cross_attention(p[b, :q], ct[b, :t])
            np.testing.assert_allclose(out[b, :q], ref_out, rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights[b, :q, :t], ref_weights, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            cross_attention(np.zeros((2, 2, 8)), np.zeros((2, 3, 6)), np.array([3, 1]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_padding_leaves_valid_rows_unchanged(self, data):
        """Padded keys and queries of any finite value change no valid
        output row and no valid weight."""
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 7)),
                                    min_size=1, max_size=4))
        q_lens, t_lens = zip(*shapes)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        p, ct, t_lens = attention_batch(rng, q_lens, t_lens, 6)
        out, weights = cross_attention(p, ct, t_lens)
        q_pad = ~(np.arange(p.shape[1]) < np.array(q_lens)[:, None])
        t_pad = ~(np.arange(ct.shape[1]) < t_lens[:, None])
        finite = st.floats(allow_nan=False, allow_infinity=False)
        p[q_pad] = data.draw(hnp.arrays(np.float64, (int(q_pad.sum()), 6), elements=finite))
        ct[t_pad] = data.draw(hnp.arrays(np.float64, (int(t_pad.sum()), 6), elements=finite))
        with np.errstate(over="ignore", invalid="ignore"):
            out2, weights2 = cross_attention(p, ct, t_lens)
        for b, (q, t) in enumerate(zip(q_lens, t_lens)):
            np.testing.assert_array_equal(out2[b, :q], out[b, :q])
            np.testing.assert_array_equal(weights2[b, :q], weights[b, :q])


class TestPairMeans:
    """The fusion sequence reads the contextual rows averaged in pairs."""

    F32_MAX = float(np.finfo(np.float32).max)

    @settings(max_examples=200, deadline=None)
    @given(rows=hnp.arrays(np.float32, st.tuples(st.integers(1, 9), st.integers(1, 4)),
                           elements=st.floats(-F32_MAX, F32_MAX, width=32)))
    @example(rows=np.full((1, 3), F32_MAX, np.float32))                           # T = 1
    @example(rows=np.array([[F32_MAX], [F32_MAX], [-F32_MAX], [-F32_MAX]], np.float32))  # even T
    @example(rows=np.array([[F32_MAX], [F32_MAX], [-F32_MAX]], np.float32))          # odd T
    def test_finite_float32_rows_pool_to_finite_rows(self, rows):
        pooled = pair_means(rows)
        t = len(rows)
        assert pooled.dtype == np.float32 and pooled.shape == ((t + 1) // 2, rows.shape[1])
        assert np.isfinite(pooled).all()
        half = np.float32(0.5)
        expected = [half * rows[k] + half * rows[k + 1] for k in range(0, t - 1, 2)]
        expected += [rows[-1]] if t % 2 else []
        assert pooled.tobytes() == np.array(expected, np.float32).tobytes()
        assert fusion_steps(t, 3) == len(pooled) + 3 + 1

    @pytest.mark.parametrize("t", [2, 6, 7])
    def test_scores_depend_on_the_pair_means_only(self, t):
        # Rows with the same pair means give the same scores, bit for bit.
        rng = np.random.default_rng(t)
        model = ScoringModel(CFG, seed=3)
        utt = make_utt(rng, length=4, t_frames=t)
        twin = make_utt(np.random.default_rng(t), length=4, t_frames=t)
        twin.ct = np.repeat(pair_means(utt.ct), 2, axis=0)[:t]
        assert not np.array_equal(twin.ct, utt.ct)
        (f, p), (f2, p2) = (model.score_utterance(u) for u in (utt, twin))
        assert f.tobytes() == f2.tobytes() and p.tobytes() == p2.tobytes()


class TestProjectionAndLoss:
    def test_heads_are_distributions(self):
        rng = np.random.default_rng(8)
        model = ScoringModel(CFG, seed=2)
        utt = make_utt(rng)
        dist_f, dist_p = model.score_utterance(utt)
        for d in (dist_f, dist_p):
            assert abs(d.sum() - 1.0) <= 1e-9
            assert np.all(d > 0.0) and np.all(d < 1.0)

    def test_zero_heads_give_uniform(self):
        rng = np.random.default_rng(9)
        model = ScoringModel(CFG, seed=2)
        for name in ("head_f_w", "head_f_b", "head_p_w", "head_p_b"):
            model.params[name][...] = 0.0
        dist_f, dist_p = model.score_utterance(make_utt(rng))
        np.testing.assert_allclose(dist_f, 1.0 / 11, atol=1e-12)
        np.testing.assert_allclose(dist_p, 1.0 / 11, atol=1e-12)

    def test_functionals_enter_twice(self):
        rng = np.random.default_rng(10)
        model = ScoringModel(CFG, seed=2)
        utt = make_utt(rng)
        base = model.score_utterance(utt)
        utt2 = UtteranceFeatures(utt.fusion, utt.ct, utt.u_nv * 2.0, utt.fluency, utt.prosody)
        doubled = model.score_utterance(utt2)
        assert not np.allclose(doubled[0], base[0])
        assert not np.allclose(doubled[1], base[1])

    def test_shape_laws_for_all_lengths(self):
        rng = np.random.default_rng(99)
        model = ScoringModel(CFG, seed=2)
        for length in (1, 2, 5):
            for t_frames in (1, 3, 6):
                utt = make_utt(rng, length, t_frames)
                p_nv = model.phonecue_forward(utt.fusion)
                assert p_nv.shape == (length, CFG.feature_dim)
                dist_f, dist_p = model.score_utterance(utt)
                assert dist_f.shape == dist_p.shape == (N_CLASSES,)

    @pytest.mark.parametrize("shape", [(0, CFG.feature_dim), (4, CFG.feature_dim - 1)],
                             ids=["no-rows", "wrong-width"])
    def test_malformed_ct_rejected(self, shape):
        rng = np.random.default_rng(24)
        bad = make_utt(rng)
        bad.ct = np.zeros(shape)
        with pytest.raises(ValidationError, match="ct must be T x"):
            ScoringModel(CFG, seed=2).forward_batch([make_utt(rng), bad])

    @pytest.mark.parametrize("uid", ["", "utt7"])
    def test_input_error_names_the_utterance(self, uid):
        # an utterance built by hand has no id, and its message names none
        rng = np.random.default_rng(24)
        bad = make_utt(rng)
        bad.ct, bad.id = np.zeros((4, CFG.feature_dim - 1)), uid
        with pytest.raises(ValidationError) as info:
            ScoringModel(CFG, seed=2).forward_batch([make_utt(rng), bad])
        assert str(info.value) == (f"{uid}: " * bool(uid) + f"ct must be T x {CFG.feature_dim} "
                                   f"with T >= 1, got (4, {CFG.feature_dim - 1})")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype, column, value", [
        (np.float64, 0, -np.inf), (np.float32, 0, -5e61), (np.float32, 3, 1e40)],
        ids=["gopd-inf", "gopd-beyond-float32", "f0-beyond-float32"])
    def test_numeric_rows_not_finite_in_the_model_dtype_rejected(self, dtype, column, value):
        """GoPD near -5e61 (a duration std of 1e-30 ms) is finite in float64
        but not in a float32 model, whose gates it would saturate."""
        rng = np.random.default_rng(24)
        bad = make_utt(rng)
        bad.id = "utt7"
        if column:
            bad.fusion.pooled[1, column - 1] = value
        else:
            bad.fusion.gopd[1] = value
        model = ScoringModel(CFG, seed=2)
        model.params = {k: v.astype(dtype) for k, v in model.params.items()}
        with pytest.raises(ValidationError) as info:
            model.forward_batch([make_utt(rng), bad])
        assert str(info.value) == (f"utt7: GoPD and pooled descriptors must be finite in "
                                   f"{np.dtype(dtype)} once standardized")
        if np.isfinite(value):  # the same rows pass in float64
            ScoringModel(CFG, seed=2).forward_batch([bad])

    def test_uniform_loss_is_log11(self):
        u = np.full(11, 1.0 / 11)
        assert loss_fn(u, u, 3, 9, (0.5, 0.5)) == pytest.approx(np.log(11.0), abs=1e-12)

    def test_point_mass_loss_vanishes(self):
        d = np.full(11, 1e-13)
        d[7] = 1.0 - 1e-12
        assert loss_fn(d, d, 7, 7, (0.5, 0.5)) == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_heads_equal_single_ce(self):
        rng = np.random.default_rng(11)
        d = softmax(rng.normal(size=11))
        assert loss_fn(d, d, 5, 5, (0.5, 0.5)) == pytest.approx(-np.log(d[5]), abs=1e-12)

    def test_label_out_of_range(self):
        u = np.full(11, 1.0 / 11)
        with pytest.raises(ValidationError):
            loss_fn(u, u, 11, 0, (0.5, 0.5))


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        model = ScoringModel(CFG, seed=4)
        batch = [make_utt(rng, 3, 5, 4, 7), make_utt(rng, 2, 4, 9, 1)]
        _, _, cache = model.forward_batch(batch)
        grads = model.backward(cache)
        h = 1e-5
        # only the embedding rows of the batch's phones have a gradient
        phones = np.unique(np.concatenate([u.fusion.phone_indices for u in batch]))
        for name in ("pc_fwd_wh", "fu_bwd_wx", "embed", "u_w", "head_p_w"):
            flat = model.params[name].reshape(-1)
            g = grads[name].reshape(-1)
            entries = np.arange(flat.size)
            if name == "embed":
                entries = entries.reshape(model.params[name].shape)[phones].ravel()
            for i in rng.choice(entries, size=10, replace=False):
                orig = flat[i]
                flat[i] = orig + h
                lp, _, _ = model.forward_batch(batch)
                flat[i] = orig - h
                lm, _, _ = model.forward_batch(batch)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(g[i] - fd) <= 1e-3 * max(abs(g[i]), abs(fd), 1e-8)

    def test_stationary_at_confident_correct_prediction(self):
        rng = np.random.default_rng(13)
        model = ScoringModel(CFG, seed=5)
        utt = make_utt(rng, fluency=6, prosody=2)
        model.params["head_f_b"][...] = -40.0
        model.params["head_f_b"][6] = 40.0
        model.params["head_p_b"][...] = -40.0
        model.params["head_p_b"][2] = 40.0
        loss, _, cache = model.forward_batch([utt])
        grads = model.backward(cache)
        assert loss == pytest.approx(0.0, abs=1e-9)
        assert np.abs(grads["head_f_b"]).max() <= 1e-9
        assert np.abs(grads["head_p_b"]).max() <= 1e-9

    def test_gradient_linear_in_loss_weights(self):
        rng = np.random.default_rng(14)
        model = ScoringModel(CFG, seed=6)
        batch = [make_utt(rng)]
        _, _, c1 = model.forward_batch(batch, loss_weights=(0.5, 0.5))
        g1 = model.backward(c1)
        _, _, c2 = model.forward_batch(batch, loss_weights=(1.0, 1.0))
        g2 = model.backward(c2)
        for name in g1:
            np.testing.assert_allclose(g2[name], 2.0 * g1[name], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 9), st.integers(0, 10),
                                     st.integers(0, 10)), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1), cfg=st.just(CFG))
    @example(shapes=[(1, 4, 3, 8), (3, 2, 10, 0), (6, 7, 5, 2)], seed=19, cfg=CFG)
    @example(shapes=[(1, 4, 4, 7), (3, 2, 4, 7), (6, 7, 4, 7)], seed=18, cfg=CFG)
    @example(shapes=[(2, 26, 3, 8), (9, 80, 10, 0), (4, 37, 5, 2), (12, 15, 0, 10)], seed=31,
             cfg=ModelConfig())
    def test_mixed_length_batch_is_mean_of_batches_of_one(self, shapes, seed, cfg):
        """float64: the loss, each head distribution and every gradient of a
        padded mixed-length batch are those of its utterances run one at a
        time (their mean, for the loss and the gradients), within 1e-12 of
        each quantity's largest entry."""
        rng = np.random.default_rng(seed)
        batch = [make_utt(rng, length, t, f, p, cfg=cfg) for length, t, f, p in shapes]
        model = ScoringModel(cfg, seed=seed % 1000)
        loss, dists, cache = model.forward_batch(batch)
        grads = model.backward(cache)
        singles = [model.forward_batch([utt]) for utt in batch]
        single_grads = [model.backward(single_cache) for _, _, single_cache in singles]

        def assert_near(got, want, what):
            err = np.abs(np.asarray(got) - want).max()
            assert err <= 1e-12 * np.abs(want).max(), f"{what}: max |diff| = {err:.2e}"

        assert_near(loss, np.mean([single_loss for single_loss, _, _ in singles]), "loss")
        assert_near(dists, [single_dists[0] for _, single_dists, _ in singles], "distributions")
        assert grads.keys() == model.params.keys()
        for name, g in grads.items():
            assert_near(g, sum(s[name] for s in single_grads) / len(batch), name)

    @pytest.mark.parametrize("name", [row[0] for row in _param_table(CFG)])
    def test_directional_derivative_of_each_tensor(self, name):
        """grad . v against a central difference of the loss along a random
        direction v of one tensor, on a float64 mixed-length batch."""
        rng = np.random.default_rng(20)
        model = ScoringModel(CFG, seed=13)
        batch = [make_utt(rng, length, t, f, p)
                 for length, t, f, p in ((1, 4, 3, 8), (3, 2, 10, 0), (6, 7, 5, 2), (2, 9, 0, 10))]
        grad = model.backward(model.forward_batch(batch)[2])[name]
        param = model.params[name]
        orig, v, h = param.copy(), rng.normal(size=param.shape), 1e-6
        param[...] = orig + h * v
        loss_plus, _, _ = model.forward_batch(batch)
        param[...] = orig - h * v
        loss_minus, _, _ = model.forward_batch(batch)
        fd = (loss_plus - loss_minus) / (2 * h)
        assert abs(np.sum(grad * v) - fd) <= 1e-5 * abs(fd) + 1e-9

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(15)
        model = ScoringModel(CFG, seed=7)
        batch = [make_utt(rng, length, t, f, p)
                 for length, t, f, p in ((3, 5, 4, 7), (2, 6, 1, 9), (4, 4, 10, 0))]
        loss_a, _, _ = model.forward_batch(batch)
        loss_b, _, _ = model.forward_batch(batch[::-1])
        assert loss_a == pytest.approx(loss_b, abs=1e-12)


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        model = ScoringModel(CFG, seed=8)
        utt = make_utt(rng)
        before = model.score_utterance(utt)
        path = tmp_path / "m.ckpt"
        model.save(path)
        loaded = ScoringModel.load(path)
        assert loaded.config == CFG
        for name, p in model.params.items():
            np.testing.assert_array_equal(loaded.params[name], p.astype(np.float32).astype(np.float64))
        after = loaded.score_utterance(utt)
        np.testing.assert_allclose(after[0], before[0], atol=1e-5)
        loaded.save(tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
        # The tensors are views of one read buffer, which must be writable.
        loaded.params["u_b"] += 1.0
        np.testing.assert_array_equal(loaded.params["u_b"],
                                      model.params["u_b"].astype(np.float32) + np.float32(1.0))

    def test_save_is_deterministic(self, tmp_path):
        model = ScoringModel(CFG, seed=9)
        model.save(tmp_path / "a.ckpt")
        model.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOPE" * 10)
        with pytest.raises(FormatError):
            ScoringModel.load(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.ckpt"
        model = ScoringModel(CFG, seed=10)
        model.save(p)
        p.write_bytes(p.read_bytes()[:-40])
        with pytest.raises(FormatError):
            ScoringModel.load(p)


def payload_offset(name, cfg=CFG):
    """Byte offset of tensor `name` in the payload of a checkpoint saved by
    `ScoringModel.save`, which writes tensors in table order."""
    table = _param_table(cfg)
    end = [row[0] for row in table].index(name)
    return 4 * sum(int(np.prod(shape)) for _, shape, _ in table[:end])


def edit_checkpoint(path, edit):
    """Rewrite a saved checkpoint: edit(dims line, payload) -> (dims line,
    payload), then reseal the CRC32, so that load reaches its own checks."""
    blob = path.read_bytes()
    end = blob.index(b"\n", len(CKPT_MAGIC))
    dims, payload = edit(blob[len(CKPT_MAGIC) : end].decode("ascii"), blob[end + 1 : -4])
    body = CKPT_MAGIC + dims.encode("ascii") + b"\n" + payload
    path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))


# A tiny checkpoint's dims line changed to a 50-phone vocabulary: the
# payload then needs 9 more embedding rows of embed_dim float32 values.
VOCAB_50 = ("dims 41 10 3 8 13 11", "dims 50 10 3 8 13 11")


class TestCheckpointIndex:
    """The dims line and the payload size, CRC and values."""

    @pytest.fixture()
    def ckpt(self, tmp_path):
        path = tmp_path / "m.ckpt"
        ScoringModel(CFG, seed=17).save(path)
        return path

    @pytest.mark.parametrize("old,new,message", [
        ("dims 41 10 3 8 ", "dims 41 10 3 8.5 ", "malformed dims line"),
        ("dims 41 10 3 8 ", "dims 41 10 3 -8 ", "non-positive dims"),
        (*VOCAB_50, "has vocabulary 50, expected 41"),
    ], ids=["dims 41 10 3 8 -dims 41 10 3 8.5 ", "dims 41 10 3 8 -dims 41 10 3 -8 ", "vocab-50"])
    def test_malformed_index_field(self, ckpt, old, new, message):
        def replace(dims, payload):
            assert old in dims
            if (old, new) == VOCAB_50:
                payload += bytes(4 * 9 * CFG.embed_dim)
            return dims.replace(old, new), payload

        edit_checkpoint(ckpt, replace)
        with pytest.raises(FormatError, match=message):
            ScoringModel.load(ckpt)

    @pytest.mark.parametrize("position,field", [
        (1, "vocabulary"), (5, "functional count"), (6, "class count"),
    ])
    def test_fixed_dims_field_named(self, ckpt, position, field):
        def bump(dims, payload):
            fields = dims.split()
            fields[position] = str(int(fields[position]) + 1)
            return " ".join(fields), payload

        edit_checkpoint(ckpt, bump)
        with pytest.raises(FormatError, match=f"has {field} "):
            ScoringModel.load(ckpt)

    def test_empty_index(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(CKPT_MAGIC)
        with pytest.raises(FormatError, match="malformed dims line"):
            ScoringModel.load(path)

    @pytest.mark.parametrize("edit", [
        lambda payload: payload[: -4 * N_CLASSES],
        lambda payload: payload + b"\0",
    ], ids=["one-tensor-short", "one-trailing-byte"])
    def test_payload_size_checked(self, ckpt, edit):
        edit_checkpoint(ckpt, lambda dims, payload: (dims, edit(payload)))
        with pytest.raises(FormatError, match="its dims line needs"):
            ScoringModel.load(ckpt)

    def test_crc_mismatch(self, ckpt):
        blob = bytearray(ckpt.read_bytes())
        blob[-40] ^= 0x01  # a mantissa bit of a head bias: the value stays finite
        ckpt.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="fails its CRC32 check"):
            ScoringModel.load(ckpt)

    def test_forged_size_is_not_allocated(self, ckpt):
        edit_checkpoint(ckpt, lambda dims, payload: (dims.replace(" 8 ", " 1000000000 "), payload))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="its dims line needs"):
                ScoringModel.load(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_named(self, ckpt, value):
        def poison(dims, payload):
            start = payload_offset("u_b")
            return dims, payload[:start] + np.float32(value).tobytes() + payload[start + 4 :]

        edit_checkpoint(ckpt, poison)
        with pytest.raises(FormatError, match="'u_b' holds non-finite"):
            ScoringModel.load(ckpt)


@pytest.fixture(scope="module")
def tiny_ckpt_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    ScoringModel(CFG, seed=21).save(path)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_truncated_or_bit_flipped_checkpoint_fails_loud_or_loads_finite(
        tiny_ckpt_bytes, tmp_path_factory, data):
    """Any truncation or single-bit flip raises FormatError: the size check
    catches a truncation and the CRC32 any flip the dims line lets through."""
    blob = tiny_ckpt_bytes
    payload_start = blob.index(b"\n", len(CKPT_MAGIC)) + 1
    kind = data.draw(st.sampled_from(["truncate", "flip header", "flip payload"]))
    if kind == "truncate":
        corrupt = blob[: data.draw(st.integers(0, len(blob) - 1))]
    else:
        lo, hi = (0, payload_start) if kind == "flip header" else (payload_start, len(blob))
        corrupt = bytearray(blob)
        bit = data.draw(st.integers(8 * lo, 8 * hi - 1))
        corrupt[bit // 8] ^= 1 << (bit % 8)
    path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
    path.write_bytes(bytes(corrupt))
    with pytest.raises(FormatError):
        ScoringModel.load(path)


class TestSinglePath:
    """The single-utterance entry points run the batched forward path (for
    `score_utterance`, see TestBackward's batches of one)."""

    def test_batch_of_one_matches_mixed_length_batch(self):
        rng = np.random.default_rng(18)
        model = ScoringModel(CFG, seed=11)
        fusions = [make_fusion(rng, length) for length in (1, 3, 6)]
        p_all, *_ = model._encode_phones(fusions)
        for i, fusion in enumerate(fusions):
            np.testing.assert_allclose(model.phonecue_forward(fusion), p_all[i, : len(fusion)],
                                       rtol=0, atol=1e-12)


class TestFloat32Scoring:
    """A loaded checkpoint keeps its float32 precision and the forward pass
    runs in the parameters' dtype; scores stay within the 1e-6 gate of the
    same weights in float64."""

    def test_loaded_float32_scores_within_1e6_of_float64(self, tmp_path):
        cfg = ModelConfig()
        rng = np.random.default_rng(23)
        batch = [make_utt(rng, length, t, cfg=cfg)
                 for length, t in ((2, 26), (9, 80), (40, 400), (4, 37))]
        for utt in batch:  # float32, as prepare_utterance reads them from MTX1
            utt.ct = utt.ct.astype(np.float32)
        fresh = ScoringModel(cfg, seed=14)
        assert all(p.dtype == np.float64 for p in fresh.params.values())
        assert fresh.phonecue_forward(batch[0].fusion).dtype == np.float64
        fresh.save(tmp_path / "m.ckpt")
        loaded = ScoringModel.load(tmp_path / "m.ckpt")
        assert all(p.dtype == np.float32 and p.flags.writeable for p in loaded.params.values())
        assert loaded.phonecue_forward(batch[0].fusion).dtype == np.float32
        upcast = ScoringModel.load(tmp_path / "m.ckpt")
        upcast.params = {name: p.astype(np.float64) for name, p in upcast.params.items()}
        _, dists32, _ = loaded.forward_batch(batch)
        _, dists64, _ = upcast.forward_batch(batch)
        for d32, d64 in zip(dists32, dists64):
            for a, b in zip(d32, d64):
                assert a.dtype == np.float64 and abs(a.sum() - 1.0) <= 1e-12
                assert abs(predict_score(a) - predict_score(b)) <= 1e-6


class TestMixedPrecisionGradients:
    """Training differentiates float32 parameters, its seeded float64 init
    cast once. On the same weights and a mixed-length batch, every float32
    gradient lies within GRAD_TOL of float64, relative to the tensor's
    largest float64 entry."""

    GRAD_TOL = 1e-4

    @pytest.mark.parametrize("cfg, shapes", [
        (TINY_CONFIG, ((1, 4), (3, 2), (6, 7), (2, 9))),
        (ModelConfig(), ((2, 26), (9, 80), (25, 250), (4, 37))),
    ], ids=["tiny", "full-size"])
    def test_float32_gradients_near_float64(self, cfg, shapes):
        rng = np.random.default_rng(29)
        batch = [make_utt(rng, length, t, int(rng.integers(11)), int(rng.integers(11)), cfg=cfg)
                 for length, t in shapes]
        for utt in batch:  # float32, as prepare_utterance reads them from MTX1
            utt.ct = utt.ct.astype(np.float32)
        init = ScoringModel(cfg, seed=15)
        work = ScoringModel.from_params(
            cfg, {k: p.astype(np.float32) for k, p in init.params.items()})
        ref = ScoringModel.from_params(
            cfg, {k: p.astype(np.float64) for k, p in work.params.items()})
        grads32 = work.backward(work.forward_batch(batch)[2])
        grads64 = ref.backward(ref.forward_batch(batch)[2])
        assert all(p.dtype == np.float64 for p in init.params.values())
        assert grads32["fu_fwd_wh"].dtype == grads32["embed"].dtype == np.float32
        for name, g in grads64.items():
            assert g.dtype == np.float64 and grads32[name].shape == g.shape
            rel = np.abs(grads32[name] - g).max() / np.abs(g).max()
            assert rel <= self.GRAD_TOL, f"{name}: max |dg| / max |g| = {rel:.2e}"


class TestFullSizeDefaults:
    def test_documented_dimensions(self):
        cfg = ModelConfig()
        assert INVENTORY_SIZE == 41 and cfg.embed_dim == 41
        assert cfg.ff_dim == 24 and cfg.fusion_in_dim == 29
        assert cfg.hidden == 512 and cfg.feature_dim == 1024
        assert len(FUNCTIONAL_NAMES) == 13 and N_CLASSES == 11

    def test_checkpoint_dims_line(self, tmp_path):
        ScoringModel(ModelConfig()).save(tmp_path / "full.ckpt")
        head = (tmp_path / "full.ckpt").read_bytes()[:64].split(b"\n")
        assert head[:2] == [b"CKPT3", b"dims 41 41 24 512 13 11"]

    def test_parameter_count_fixed_and_reported(self):
        model = ScoringModel(ModelConfig(), seed=0)
        assert model.num_parameters() == sum(p.size for p in model.params.values())
        assert model.num_parameters() == 8_555_159
