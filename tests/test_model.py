"""Scoring-network forward/backward behaviour on the tiny configuration."""

import numpy as np
import pytest

from pronassess.assembly import FusionInput
from pronassess.errors import FormatError, InventoryError, ValidationError
from pronassess.model import (
    TINY_CONFIG,
    ModelConfig,
    ScoringModel,
    UtteranceFeatures,
    cross_attention,
    loss_fn,
    softmax,
)

CFG = TINY_CONFIG


def make_fusion(rng, length, vocab=CFG.vocab_size):
    return FusionInput(
        gopd=rng.normal(-4.0, 1.5, length),
        pooled=np.column_stack([
            rng.uniform(0, 2, length), rng.normal(0, 10, length),
            rng.uniform(25, 40, length), rng.uniform(0, 0.05, length),
        ]),
        phone_indices=rng.integers(0, vocab, length),
    )


def make_utt(rng, length=3, t_frames=5, fluency=4, prosody=7, cfg=CFG):
    return UtteranceFeatures(
        fusion=make_fusion(rng, length, cfg.vocab_size),
        ct=rng.normal(0, 1, (t_frames, cfg.feature_dim)),
        u_nv=rng.normal(0, 1, cfg.u_dim),
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
        fusion.phone_indices[0] = CFG.vocab_size
        with pytest.raises(InventoryError):
            model.phonecue_forward(fusion)


class TestAttention:
    def test_single_value_row(self):
        rng = np.random.default_rng(4)
        p = rng.normal(size=(3, 8))
        ct = rng.normal(size=(1, 8))
        out, _ = cross_attention(p, ct)
        for row in out:
            np.testing.assert_array_equal(row, ct[0])

    def test_identical_value_rows(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=(2, 8))
        ct = np.tile(rng.normal(size=(1, 8)), (6, 1))
        out, _ = cross_attention(p, ct)
        np.testing.assert_allclose(out, np.tile(ct[0], (2, 1)), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        _, weights = cross_attention(rng.normal(size=(4, 16)), rng.normal(size=(9, 16)))
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_convex_envelope(self):
        rng = np.random.default_rng(7)
        ct = rng.normal(size=(7, 16))
        out, _ = cross_attention(rng.normal(size=(5, 16)), ct)
        lo, hi = ct.min(axis=0), ct.max(axis=0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            cross_attention(np.zeros((2, 8)), np.zeros((3, 6)))


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
                assert dist_f.shape == dist_p.shape == (CFG.n_classes,)

    def test_uniform_loss_is_log11(self):
        u = np.full(11, 1.0 / 11)
        assert loss_fn(u, u, 3, 9) == pytest.approx(np.log(11.0), abs=1e-12)

    def test_point_mass_loss_vanishes(self):
        d = np.full(11, 1e-13)
        d[7] = 1.0 - 1e-12
        assert loss_fn(d, d, 7, 7) == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_heads_equal_single_ce(self):
        rng = np.random.default_rng(11)
        d = softmax(rng.normal(size=11))
        assert loss_fn(d, d, 5, 5) == pytest.approx(-np.log(d[5]), abs=1e-12)

    def test_label_out_of_range(self):
        u = np.full(11, 1.0 / 11)
        with pytest.raises(ValidationError):
            loss_fn(u, u, 11, 0)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        model = ScoringModel(CFG, seed=4)
        batch = [make_utt(rng, 3, 5, 4, 7), make_utt(rng, 2, 4, 9, 1)]
        _, _, cache = model.forward_batch(batch)
        grads = model.backward(cache)
        h = 1e-5
        for name in ("pc_fwd_wh", "fu_bwd_wx", "embed", "u_w", "head_p_w"):
            flat = model.params[name].reshape(-1)
            g = grads[name].reshape(-1)
            for i in rng.choice(flat.size, size=10, replace=False):
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


def _edit_checkpoint(path, edit):
    """Rewrite a saved checkpoint: edit(index lines, payload) -> (index lines, payload)."""
    blob = path.read_bytes()
    end = blob.index(b"END\n")
    lines = blob[len(b"CKPT1\n") : end].decode("ascii").splitlines()
    lines, payload = edit(lines, blob[end + 4 :])
    path.write_bytes(b"CKPT1\n" + "\n".join(lines + ["END\n"]).encode("ascii") + payload)


class TestCheckpointIndex:
    @pytest.fixture()
    def ckpt(self, tmp_path):
        path = tmp_path / "m.ckpt"
        ScoringModel(CFG, seed=17).save(path)
        return path

    def test_missing_tensor(self, ckpt):
        def drop_last(lines, payload):
            assert lines[-1] == f"head_p_b 1 {CFG.n_classes}"
            return [lines[0], str(int(lines[1]) - 1)] + lines[2:-1], payload[: -4 * CFG.n_classes]

        _edit_checkpoint(ckpt, drop_last)
        with pytest.raises(FormatError, match="missing \\['head_p_b'\\]"):
            ScoringModel.load(ckpt)

    def test_duplicate_tensor(self, ckpt):
        _edit_checkpoint(ckpt, lambda lines, payload: (
            lines[:-1] + [lines[-1].replace("head_p_b", "head_f_b")], payload))
        with pytest.raises(FormatError, match="each model tensor once"):
            ScoringModel.load(ckpt)

    @pytest.mark.parametrize("old,new", [
        ("dims 41 10 3 8 ", "dims 41 10 3 8.5 "),
        ("dims 41 10 3 8 ", "dims 41 10 3 -8 "),
        ("\n21\n", "\ntwenty-one\n"),
        ("head_p_b 1 11", "head_p_b 1 eleven"),
        ("head_p_b 1 11", "head_p_b 11"),
    ])
    def test_malformed_index_field(self, ckpt, old, new):
        def replace(lines, payload):
            text = "\n".join(lines)
            assert old in text
            return text.replace(old, new).split("\n"), payload

        _edit_checkpoint(ckpt, replace)
        with pytest.raises(FormatError):
            ScoringModel.load(ckpt)

    def test_empty_index(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"CKPT1\nEND\n")
        with pytest.raises(FormatError):
            ScoringModel.load(path)


class TestSinglePath:
    """The single-utterance entry points run the batched forward path."""

    def test_batch_of_one_matches_mixed_length_batch(self):
        rng = np.random.default_rng(18)
        model = ScoringModel(CFG, seed=11)
        batch = [make_utt(rng, length, t) for length, t in ((1, 4), (3, 2), (6, 7))]
        _, dists, cache = model.forward_batch(batch)
        for i, utt in enumerate(batch):
            np.testing.assert_allclose(model.phonecue_forward(utt.fusion),
                                       cache["p_all"][i, : len(utt.fusion)], rtol=0, atol=1e-12)
            for single, batched in zip(model.score_utterance(utt), dists[i]):
                np.testing.assert_allclose(single, batched, rtol=0, atol=1e-12)


class TestFullSizeDefaults:
    def test_documented_dimensions(self):
        cfg = ModelConfig()
        assert cfg.vocab_size == 41 and cfg.embed_dim == 41
        assert cfg.ff_dim == 24 and cfg.fusion_in_dim == 29
        assert cfg.hidden == 512 and cfg.feature_dim == 1024
        assert cfg.u_dim == 13 and cfg.n_classes == 11

    def test_parameter_count_fixed_and_reported(self):
        model = ScoringModel(ModelConfig(), seed=0)
        assert model.num_parameters() == sum(p.size for p in model.params.values())
        assert model.num_parameters() == 8_555_159
