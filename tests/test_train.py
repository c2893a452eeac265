"""Training loop behaviour and the evaluation metrics."""

import importlib

import numpy as np
import pytest

from pronassess.errors import ValidationError
from pronassess.metrics import pcc, predict_score
from pronassess.model import TINY_CONFIG, ScoringModel
from pronassess.train import Adam, TrainConfig, history_csv, parse_train_config, train

from test_model import make_utt

# the module: `pronassess.train` is the function the package re-exports
train_module = importlib.import_module("pronassess.train")


def tiny_dataset(n=8, seed=20):
    rng = np.random.default_rng(seed)
    return [
        make_utt(rng, int(rng.integers(2, 5)), int(rng.integers(3, 7)),
                 int(rng.integers(0, 11)), int(rng.integers(0, 11)))
        for _ in range(n)
    ]


class TestTrainLoop:
    def test_zero_lr_keeps_parameters(self):
        data = tiny_dataset()
        cfg = TrainConfig(lr=0.0, epochs=3, seed=1, batch=4)
        result = train(data, TINY_CONFIG, cfg)
        fresh = ScoringModel(TINY_CONFIG, seed=1)
        for name, p in fresh.params.items():
            np.testing.assert_array_equal(result.model.params[name], p)

    def test_seed_determinism(self, tmp_path):
        data = tiny_dataset()
        cfg = TrainConfig(epochs=4, seed=5, batch=4)
        r1 = train(data, TINY_CONFIG, cfg)
        r2 = train(data, TINY_CONFIG, cfg)
        assert r1.history == r2.history
        r1.model.save(tmp_path / "a.ckpt")
        r2.model.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_loss_decreases_on_tiny_problem(self):
        data = tiny_dataset(12)
        cfg = TrainConfig(lr=3e-3, epochs=15, patience=15, seed=2, batch=4)
        result = train(data, TINY_CONFIG, cfg)
        assert result.history[-1][1] < result.history[0][1]

    def test_early_stopping_honors_patience(self):
        data = tiny_dataset(10)
        cfg = TrainConfig(lr=0.0, epochs=30, patience=2, seed=3, batch=4)
        result = train(data, TINY_CONFIG, cfg)
        # constant losses never improve on the first epoch's best
        assert result.history[-1][0] == 3
        assert result.best_epoch == 1

    @pytest.mark.parametrize("cfg, stopped_early", [
        (TrainConfig(lr=3e-3, epochs=4, patience=4, seed=2, batch=4), False),
        (TrainConfig(lr=0.05, epochs=30, patience=2, seed=2, batch=4), True)])
    def test_returns_the_best_epochs_parameters(self, cfg, stopped_early):
        """The returned parameters are the best epoch's, both when it is the
        last epoch (returned without a copy) and when patience stops later."""
        snapshots = {}

        def snapshot(epoch, model):
            snapshots[epoch] = {k: p.copy() for k, p in model.params.items()}

        result = train(tiny_dataset(12), TINY_CONFIG, cfg, epoch_callback=snapshot)
        last = result.history[-1][0]
        assert (last < cfg.epochs) == stopped_early
        assert (result.best_epoch < last) == stopped_early
        best = snapshots[result.best_epoch]
        for name, p in result.model.params.items():
            assert np.array_equal(p, best[name])
        if stopped_early:  # the last epoch moved the parameters away from the best
            assert any(not np.array_equal(p, snapshots[last][k]) for k, p in best.items())

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            train([], TINY_CONFIG, TrainConfig())

    def test_missing_labels_rejected(self):
        data = tiny_dataset(2)
        data[0].fluency = None
        with pytest.raises(ValidationError):
            train(data, TINY_CONFIG, TrainConfig())

    def test_validation_split_fraction(self):
        data = tiny_dataset(20)
        result = train(data, TINY_CONFIG, TrainConfig(epochs=1, seed=4, batch=8))
        assert len(result.val_indices) == 2
        assert len(result.train_indices) == 18
        assert sorted(result.val_indices + result.train_indices) == list(range(20))

    def test_zero_val_fraction_trains_on_everything(self):
        data = tiny_dataset(6)
        result = train(data, TINY_CONFIG, TrainConfig(epochs=2, seed=4, batch=4, val_fraction=0.0))
        assert result.val_indices == []
        assert sorted(result.train_indices) == list(range(6))
        assert [va for _, _, va in result.history] == [tr for _, tr, _ in result.history]

    def test_history_csv_format(self):
        text = history_csv([(1, 2.5, 2.4), (2, 2.0, 2.1)])
        lines = text.splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1].startswith("1,2.5")


class TestAdam:
    def test_in_place_step_matches_reference_formula(self):
        rng = np.random.default_rng(7)
        shapes = {"w": (6, 5), "b": (5,), "big": (40, 3), "empty": (0,)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref = {k: p.copy() for k, p in params.items()}
        ref_m = {k: np.zeros_like(p) for k, p in params.items()}
        ref_v = {k: np.zeros_like(p) for k, p in params.items()}
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        opt = Adam(params, lr)
        for t in range(1, 6):
            grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.shape)
                     for k, p in params.items()}
            opt.step(params, grads)
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for k, g in grads.items():  # the formula the in-place step must reproduce
                ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g
                ref_v[k] = b2 * ref_v[k] + (1.0 - b2) * g * g
                ref[k] -= lr * (ref_m[k] / bc1) / (np.sqrt(ref_v[k] / bc2) + eps)
        for k in params:
            assert np.array_equal(params[k], ref[k])
            assert np.array_equal(opt.m[k], ref_m[k])
            assert np.array_equal(opt.v[k], ref_v[k])

    def test_chunks_change_no_bit(self, monkeypatch):
        """Tensors spanning several chunks, one row wider than a chunk and a
        transposed (non-contiguous) parameter update as one whole-tensor pass."""
        rng = np.random.default_rng(8)
        shapes = {"rows": (70, 1000), "wide": (3, 20_000), "col": (40_000,), "t": (300, 200)}
        start = {k: rng.normal(size=s) for k, s in shapes.items()}
        start["t"] = start["t"].T
        grads = [{k: rng.normal(size=p.shape).astype(np.float32) for k, p in start.items()}
                 for _ in range(3)]
        results = []
        for chunk in (train_module.ADAM_CHUNK, 70_000):  # the latter holds every tensor
            monkeypatch.setattr(train_module, "ADAM_CHUNK", chunk)
            params = {k: p.copy(order="K") for k, p in start.items()}
            opt = Adam(params, 0.01)
            for g in grads:
                opt.step(params, g)
            results.append((params, opt.m, opt.v))
        assert not results[0][0]["t"].flags.c_contiguous
        for chunked, whole in zip(*results):
            for k in chunked:
                assert np.array_equal(chunked[k], whole[k])
        assert not np.array_equal(results[0][0]["t"], start["t"])

    def test_step_casts_each_updated_chunk_into_the_work_copy(self):
        """Given a float32 work copy, every step leaves it equal to the float32
        cast of the master, for tensors spanning several chunks, one row wider
        than a chunk and a transposed one, and updates the master as without it."""
        rng = np.random.default_rng(9)
        shapes = {"rows": (70, 1000), "wide": (3, 20_000), "col": (40_000,), "t": (300, 200)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        params["t"] = params["t"].T
        plain = {k: p.copy(order="K") for k, p in params.items()}
        work = {k: p.astype(np.float32) for k, p in params.items()}
        opt, opt_plain = Adam(params, 0.01), Adam(plain, 0.01)
        for _ in range(3):
            grads = {k: rng.normal(size=p.shape).astype(np.float32) for k, p in params.items()}
            opt.step(params, grads, work)
            opt_plain.step(plain, grads)
            for k, p in params.items():
                assert np.array_equal(p, plain[k])
                assert work[k].dtype == np.float32
                assert np.array_equal(work[k], p.astype(np.float32))
        assert not work["t"].flags.c_contiguous


class TestConfigFile:
    def test_parse_full_file(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text(
            "# training recipe\nlr=1e-4\nbatch=32\nepochs=50\npatience=2\n"
            "seed=7\nloss_weight_fluency=0.5\nloss_weight_prosody=0.5\n"
        )
        cfg = parse_train_config(p)
        assert cfg.lr == 1e-4 and cfg.batch == 32 and cfg.epochs == 50
        assert cfg.patience == 2 and cfg.seed == 7

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("momentum=0.9\n")
        with pytest.raises(ValidationError, match="momentum"):
            parse_train_config(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "c.txt"
        for line in ("epochs=fifty", "batch=0", "epochs=0", "seed=-1", "val_fraction=2",
                     "val_fraction=1", "val_fraction=-0.1", "lr=-1e-3", "lr=nan", "lr=inf",
                     "loss_weight_fluency=-0.5", "loss_weight_prosody=nan", "patience=0",
                     "patience=-3"):
            p.write_text(line + "\n")
            with pytest.raises(ValidationError, match=line.partition("=")[0]):
                parse_train_config(p)


class TestPredictScore:
    def test_uniform_gives_five(self):
        assert predict_score(np.full(11, 1 / 11)) == pytest.approx(5.0)

    def test_point_mass(self):
        d = np.zeros(11)
        d[7] = 1.0
        assert predict_score(d) == pytest.approx(7.0)

    def test_split_mass(self):
        d = np.zeros(11)
        d[4] = d[6] = 0.5
        assert predict_score(d) == pytest.approx(5.0)

    def test_invalid_distribution(self):
        with pytest.raises(ValidationError):
            predict_score(np.full(11, 0.2))

    def test_non_finite_distribution_rejected(self):
        # NaN compares false both ways, so a sum check alone lets it through
        one_nan = np.zeros(11)
        one_nan[[0, 5]] = np.nan, 1.0
        for dist in (one_nan, np.full(11, np.nan)):
            with pytest.raises(ValidationError):
                predict_score(dist)


class TestPcc:
    def test_perfect_positive(self):
        assert pcc([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pcc([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        assert pcc([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_constant_prediction_warns_zero(self):
        with pytest.warns(UserWarning):
            assert pcc([2, 2, 2], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pcc([1, 2], [1, 2, 3])

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            pcc([1], [1])
