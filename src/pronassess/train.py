"""Training loop: Adam, early stopping on validation loss, loss history.

Training is mixed precision (Micikevicius et al. 2018, arXiv:1710.03740):
the model's master parameters and Adam's moments are float64, and every
forward and backward pass runs on a float32 working copy of the master
parameters, which `Adam.step` refreshes chunk by chunk as it updates the
master. The float32 gradients update the float64 master. No loss
scaling is needed: float32 has the exponent range of these gradients.
The validation forward runs on the working copy too, which is bit for
bit what `ScoringModel.save` writes, so the validation loss measures the
model that `score` runs.

Determinism contract: a fixed seed fixes the parameter init, the
validation split and the per-epoch shuffling stream, so two runs with the
same numpy/BLAS build and BLAS thread count produce bit-identical
histories and checkpoints. float32 sums are more sensitive to the BLAS
summation order than float64 ones, so a different thread count can change
the trajectory (and the epoch early stopping picks).
"""

from dataclasses import dataclass, fields

import numpy as np

from .audio_io import read_text, table_text
from .errors import ValidationError
from .model import ModelConfig, ScoringModel, UtteranceFeatures

# Adam's fixed hyperparameters (Kingma & Ba 2015); only the step size is set.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per chunk of the Adam update, whose ~14 passes over a chunk then
# stay in cache instead of streaming each tensor from memory 14 times.
ADAM_CHUNK = 16_384


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch: int = 32
    epochs: int = 50
    patience: int = 2
    seed: int = 0
    loss_weight_fluency: float = 0.5
    loss_weight_prosody: float = 0.5
    val_fraction: float = 0.1

    def __post_init__(self):
        for key in ("batch", "epochs", "patience"):
            if getattr(self, key) < 1:
                raise ValidationError(f"{key} must be at least 1, got {getattr(self, key)!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValidationError(f"val_fraction must lie in [0, 1), got {self.val_fraction!r}")
        for key in ("lr", "loss_weight_fluency", "loss_weight_prosody"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValidationError(f"{key} must be finite and non-negative, got {value!r}")


def parse_train_config(path) -> TrainConfig:
    """key=value file; blank lines and # comments ignored; unknown keys rejected."""
    types = {f.name: f.type for f in fields(TrainConfig)}
    kwargs = {}
    for ln, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{ln}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in types:
            raise ValidationError(f"{path}:{ln}: unknown config key {key!r}")
        try:
            kwargs[key] = types[key](value)
        except ValueError as exc:
            raise ValidationError(f"{path}:{ln}: bad value for {key!r}: {value!r}") from exc
    try:
        return TrainConfig(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


class Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             work: dict[str, np.ndarray] | None = None) -> None:
        """One update, in place. Bit-identical to m = b1*m + (1-b1)*g,
        v = b2*v + (1-b2)*g*g, p -= lr*m_hat / (sqrt(v_hat) + eps).

        Given `work`, a lower-precision copy of `params`, each updated chunk
        is also cast into it while the chunk is still in cache."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        # Chunks of whole rows, ADAM_CHUNK elements where the row width allows.
        scratch = np.empty((2, max([ADAM_CHUNK, *(g[:1].size for g in grads.values())])))
        for k, grad in grads.items():
            n_rows = max(1, ADAM_CHUNK // (grad[:1].size or 1))
            for lo in range(0, len(grad), n_rows):
                rows = slice(lo, lo + n_rows)
                p, m, v, g = params[k][rows], self.m[k][rows], self.v[k][rows], grad[rows]
                a, b = (buf[: g.size].reshape(g.shape) for buf in scratch)
                m *= ADAM_BETA1
                m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
                v *= ADAM_BETA2
                np.multiply(1.0 - ADAM_BETA2, g, out=a)
                v += np.multiply(a, g, out=a)
                np.divide(m, bc1, out=a)
                a *= self.lr
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
                b += ADAM_EPS
                p -= np.divide(a, b, out=a)
                if work is not None:
                    np.copyto(work[k][rows], p)


@dataclass
class TrainResult:
    model: ScoringModel          # parameters of the best-validation epoch
    history: list[tuple[int, float, float]]  # (epoch, train_loss, val_loss)
    best_epoch: int
    train_indices: list[int]
    val_indices: list[int]


def history_csv(history) -> str:
    return table_text("epoch,train_loss,val_loss", history, ",")


def train(dataset: list[UtteranceFeatures], model_config: ModelConfig = ModelConfig(),
          config: TrainConfig = TrainConfig(), epoch_callback=None) -> TrainResult:
    """Train a fresh model on the dataset.

    A `val_fraction` share of the data (at least one utterance; none for
    `val_fraction=0` or a dataset of one) is held out for validation and
    early stopping; without a validation split the training loss stands in
    for the validation loss. Training stops once that loss has failed to
    improve for `patience` consecutive epochs. The returned model carries
    the parameters of the best epoch.
    """
    if not dataset:
        raise ValidationError("empty dataset")
    for utt in dataset:
        if utt.fluency is None or utt.prosody is None:
            raise ValidationError("every training utterance needs both labels")

    rng = np.random.default_rng(config.seed)
    model = ScoringModel(model_config, seed=config.seed)
    # The float32 working copy that every forward and backward pass runs on.
    work = ScoringModel.from_params(
        model_config, {k: p.astype(np.float32) for k, p in model.params.items()})
    weights = (config.loss_weight_fluency, config.loss_weight_prosody)

    order = rng.permutation(len(dataset))
    n_val = 0
    if config.val_fraction > 0 and len(dataset) > 1:
        n_val = max(1, int(round(config.val_fraction * len(dataset))))
    val_idx = [int(i) for i in order[:n_val]]
    train_idx = [int(i) for i in order[n_val:]]
    if not train_idx:
        raise ValidationError(
            f"val_fraction={config.val_fraction!r} holds out all {len(dataset)} utterances; "
            "no training utterance is left"
        )
    val_set = [dataset[i] for i in val_idx]
    train_set = [dataset[i] for i in train_idx]

    opt = Adam(model.params, lr=config.lr)
    history: list[tuple[int, float, float]] = []
    best_val = np.inf
    best_epoch = 0
    bad_epochs = 0

    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(train_set))
        epoch_losses = []
        for lo in range(0, len(train_set), config.batch):
            batch = [train_set[int(i)] for i in perm[lo : lo + config.batch]]
            loss, _, cache = work.forward_batch(batch, weights)
            if not np.isfinite(loss):
                raise ValidationError(
                    f"non-finite training loss at epoch {epoch}; aborting"
                )
            opt.step(model.params, work.backward(cache), work.params)
            del cache  # freed before the next forward builds its own
            epoch_losses.append((loss, len(batch)))

        for name, p in model.params.items():
            if not np.all(np.isfinite(p)):
                raise ValidationError(
                    f"non-finite values in {name!r} after epoch {epoch}; aborting"
                )

        train_loss = float(
            sum(l * n for l, n in epoch_losses) / sum(n for _, n in epoch_losses)
        )
        if val_set:
            val_loss, _, _ = work.forward_batch(val_set, weights)
            val_loss = float(val_loss)
        else:
            val_loss = train_loss
        if not np.isfinite(val_loss):
            raise ValidationError(f"non-finite validation loss at epoch {epoch}; aborting")
        history.append((epoch, train_loss, val_loss))

        if epoch_callback is not None:
            epoch_callback(epoch, model)

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            # nothing updates the parameters after the last epoch: no copy
            best_params = (model.params if epoch == config.epochs
                           else {k: v.copy() for k, v in model.params.items()})
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    model.params = best_params
    return TrainResult(model, history, best_epoch, train_idx, val_idx)
