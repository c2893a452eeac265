"""Training loop: Adam, early stopping on validation loss, loss history.

Training holds one parameter set: float32 arrays, bit for bit what
`ScoringModel.save` writes and `score` runs, so the validation loss
measures that model. The seeded init is drawn in float64 and cast once;
forward, backward, validation and Adam, whose moments take the
parameters' dtype, all run on those arrays. No loss scaling is needed:
float32 has the exponent range of these gradients.

Determinism contract: a fixed seed fixes the parameter init, the
validation split and the per-epoch shuffling stream, so two runs with the
same numpy/BLAS build produce bit-identical histories and checkpoints.
The BiLSTM passes run BLAS at one thread whatever the caller's count
(`lstm._each_direction`).
"""

from dataclasses import dataclass, fields

import numpy as np

from .audio_io import read_text, table_text
from .errors import ValidationError, named
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
    return named(path, TrainConfig, **kwargs)


class Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params  # the arrays `step` updates
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update of the parameters, in place, in their dtype. Bit-identical to
        m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        p -= lr*m_hat / (sqrt(v_hat) + eps)."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        # Chunks of whole rows, ADAM_CHUNK elements where the row width allows.
        scratch = np.empty((2, max([ADAM_CHUNK, *(g[:1].size for g in grads.values())])),
                           dtype=np.result_type(*self.params.values()))
        for k, grad in grads.items():
            n_rows = max(1, ADAM_CHUNK // (grad[:1].size or 1))
            for lo in range(0, len(grad), n_rows):
                rows = slice(lo, lo + n_rows)
                p, m, v, g = self.params[k][rows], self.m[k][rows], self.v[k][rows], grad[rows]
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
    for the validation loss. Both splits run `config.batch` utterances per
    forward pass, and each loss is the size-weighted mean of its batches'
    losses. Training stops once the validation loss has failed to improve
    on the best epoch's for `patience` consecutive epochs. The returned
    model carries the parameters of the best epoch.
    """
    if not dataset:
        raise ValidationError("empty dataset")
    for utt in dataset:
        if utt.fluency is None or utt.prosody is None:
            raise ValidationError("every training utterance needs both labels")

    rng = np.random.default_rng(config.seed)
    model = ScoringModel(model_config, seed=config.seed)
    # The seeded float64 draws, cast once: the one parameter set training holds.
    model.params = {k: p.astype(np.float32) for k, p in model.params.items()}
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

    def mean_loss(split, split_order, step: bool) -> float:
        """The loss over `split`, `config.batch` utterances at a time in
        `split_order`; with `step`, Adam steps on each batch's gradients."""
        losses = []
        for lo in range(0, len(split), config.batch):
            batch = [split[int(i)] for i in split_order[lo : lo + config.batch]]
            loss, _, cache = model.forward_batch(batch, weights)
            if not np.isfinite(loss):
                raise ValidationError(f"non-finite {'training' if step else 'validation'} "
                                      f"loss at epoch {epoch}; aborting")
            if step:
                opt.step(model.backward(cache))
            del cache  # freed before the next forward builds its own
            losses.append((loss, len(batch)))
        return float(sum(l * n for l, n in losses) / sum(n for _, n in losses))

    history: list[tuple[int, float, float]] = []
    best_epoch = 0
    for epoch in range(1, config.epochs + 1):
        train_loss = mean_loss(train_set, rng.permutation(len(train_set)), step=True)
        for name, p in model.params.items():
            if not np.all(np.isfinite(p)):
                raise ValidationError(
                    f"non-finite values in {name!r} after epoch {epoch}; aborting"
                )
        val_loss = mean_loss(val_set, range(len(val_set)), step=False) if val_set else train_loss
        history.append((epoch, train_loss, val_loss))

        if epoch_callback is not None:
            epoch_callback(epoch, model)

        if not best_epoch or val_loss < history[best_epoch - 1][2]:
            best_epoch = epoch
            # nothing updates the parameters after the last epoch: no copy
            best_params = (model.params if epoch == config.epochs
                           else {k: v.copy() for k, v in model.params.items()})
        elif epoch - best_epoch >= config.patience:
            break

    model.params = best_params
    return TrainResult(model, history, best_epoch, train_idx, val_idx)
