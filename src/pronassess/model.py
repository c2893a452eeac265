"""The trainable scoring head: phone-cue encoder, cross-attention fusion,
and two projection heads for fluency and prosody.

`ModelConfig` holds the size knobs only. The other shapes are fixed by the
inputs: `inventory.INVENTORY_SIZE` phone embeddings, one slot per
`functionals.FUNCTIONAL_NAMES` entry, and `metrics.N_CLASSES` score classes
(0..10) per head.

Over a zero-padded batch of utterances the forward pass runs:

1. phone embedding -> tanh feedforward, concatenated with the GoPD value
   and 4 pooled descriptors into per-phoneme rows;
2. a bidirectional LSTM over those rows (the phone-cue encoder);
3. scaled dot-product cross-attention with the encoder states as queries
   and the pair means of the contextual acoustic rows (`pair_means`) as
   keys and values, padding masked;
4. a fusion sequence [pair means of the contextual rows, one per 20 ms;
   attended rows; projected utterance functionals as one extra token]
   through a second bidirectional LSTM, mean-pooled, with the projected
   functionals added back as a residual;
5. two affine softmax heads over the score classes.

Raw descriptor scales differ by orders of magnitude (dB, semitones,
log-densities), which would saturate the recurrent gates at the pinned
uniform init, so the network standardizes its numeric inputs with the
fixed constants below before anything learnable sees them.

The forward and backward passes compute in the dtype of the parameters:
float64 for a model built here (the gradient checks) and float32 for a
model read by `ScoringModel.load` (the stored precision) or trained by
`train`, which casts its seeded float64 init to float32 once. Inputs are
cast to that dtype once on entry; the head logits, softmax, loss and head
gradients run in float64 whatever the encoders ran in, so each
distribution sums to 1 within ~1e-16. A float32 forward scores within
1e-6 of the same weights in float64, and its gradients lie within 1e-4 of
float64 relative to each tensor's largest entry (both tested). Gradients
are reverse-mode derivatives of the forward, checked in float64 against
central finite differences.
"""

import math
import os
import zlib
from dataclasses import astuple, dataclass

import numpy as np

from .assembly import FusionInput
from .errors import FormatError, InventoryError, ValidationError, named
from .functionals import FUNCTIONAL_NAMES
from .inventory import INVENTORY_SIZE
from .lstm import bilstm_backward, bilstm_forward, output_sums, padded_output
from .metrics import N_CLASSES

# Standardization of [gopd, loudness, alpha_db, f0_st, jitter] rows.
NUMERIC_OFFSET = np.array([-5.0, 1.0, 0.0, 30.0, 0.0])
NUMERIC_SCALE = np.array([1.5, 2.0, 8.0, 20.0, 0.02])
# Standardization of the utterance functionals, in FUNCTIONAL_NAMES order.
U_OFFSET = np.array([30.0, 0.0, 30.0, 30.0, 30.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
U_SCALE = np.array([20.0, 0.3, 8.0, 8.0, 8.0, 100.0, 100.0, 100.0, 100.0, 0.15, 0.1, 0.05, 0.075])

CKPT_MAGIC = b"CKPT3\n"


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 41
    ff_dim: int = 24
    hidden: int = 512  # per direction, both recurrent encoders

    @property
    def feature_dim(self) -> int:
        """Width of encoder outputs and of the contextual acoustic rows."""
        return 2 * self.hidden

    @property
    def fusion_in_dim(self) -> int:
        """Per-phoneme row width: 1 GoPD + 4 pooled + ff_dim phone features."""
        return 5 + self.ff_dim


TINY_CONFIG = ModelConfig(embed_dim=10, ff_dim=3, hidden=8)


@dataclass
class UtteranceFeatures:
    """Everything the network consumes for one utterance."""

    fusion: FusionInput
    ct: np.ndarray       # (T >= 1, feature_dim) contextual acoustic rows, float32 from MTX1
    u_nv: np.ndarray     # (len(FUNCTIONAL_NAMES),) utterance functionals
    fluency: int | None = None
    prosody: int | None = None
    id: str = ""         # the manifest entry's, which input errors name


def softmax(x: np.ndarray) -> np.ndarray:  # over the last axis
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_attention(p_nv: np.ndarray, ct: np.ndarray, t_lens) -> tuple[np.ndarray, np.ndarray]:
    """Single-head scaled dot-product attention over a padded batch: queries
    p_nv (B, L, d), keys and values ct (B, T, d) with t_lens[b] >= 1 valid
    rows in row b. Returns (attended rows, weights (B, L, T)). Padded keys
    are masked to -inf before the softmax, so each output row is a convex
    combination of its own valid ct rows, whatever the padding holds.
    """
    if p_nv.shape[2] != ct.shape[2]:
        raise ValidationError(f"query dim {p_nv.shape[2]} != key/value dim {ct.shape[2]}")
    scores = p_nv @ ct.transpose(0, 2, 1) / math.sqrt(ct.shape[2])
    scores = np.where(np.arange(ct.shape[1]) < t_lens[:, None, None], scores, -np.inf)
    weights = softmax(scores)
    return weights @ ct, weights


def pair_means(ct: np.ndarray) -> np.ndarray:
    """Rows of ct averaged in pairs, in ct's dtype: row k is
    0.5 * ct[2k] + 0.5 * ct[2k + 1], and an odd last row stands alone, so
    T rows give (T + 1) // 2. Halving each row before the sum keeps finite
    rows finite."""
    out = 0.5 * ct[0::2]
    out[: len(ct) // 2] += 0.5 * ct[1::2]
    if len(ct) % 2:
        out[-1] = ct[-1]
    return out


def fusion_steps(ct_rows, phones):
    """Steps of the fusion sequence of an utterance with ct_rows contextual
    rows and phones phonemes: its pair means, its attended rows and the
    functionals token."""
    return (ct_rows + 1) // 2 + phones + 1


def _numeric_rows(fusion: FusionInput, dtype) -> np.ndarray:
    """The standardized [gopd | pooled] rows of one utterance in dtype; a
    value beyond dtype's range becomes inf without a warning."""
    with np.errstate(over="ignore"):
        return ((fusion.numeric_block() - NUMERIC_OFFSET) / NUMERIC_SCALE).astype(dtype, copy=False)


def _check_inputs(utt: UtteranceFeatures, d: int, dtype) -> None:
    """Reject contextual rows that are not T x d with T >= 1, functionals of
    the wrong length, and GoPD or pooled-descriptor rows that are not
    finite in dtype once standardized (they would saturate the gates)."""
    if utt.ct.ndim != 2 or utt.ct.shape[1] != d or len(utt.ct) == 0:
        raise ValidationError(f"ct must be T x {d} with T >= 1, got {utt.ct.shape}")
    if len(utt.u_nv) != len(FUNCTIONAL_NAMES):
        raise ValidationError(f"u_nv must have {len(FUNCTIONAL_NAMES)} entries")
    if not np.isfinite(_numeric_rows(utt.fusion, dtype)).all():
        raise ValidationError(f"GoPD and pooled descriptors must be finite in {np.dtype(dtype)} "
                              "once standardized")


def _pool_ct(batch: list[UtteranceFeatures], out: np.ndarray) -> None:
    """Write the pair means of each utterance's contextual rows, cast to
    out's dtype first, into the leading rows of its row of the padded
    batch out."""
    for rows, utt in zip(out, batch):
        pooled = pair_means(utt.ct.astype(out.dtype, copy=False))
        rows[: len(pooled)] = pooled


def _valid(lengths: np.ndarray) -> np.ndarray:
    """(B, max length) mask of the valid positions of a padded batch."""
    return np.arange(lengths.max()) < lengths[:, None]


def _pad(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Zero-padded (B, max length, width) batch of the concatenated rows of
    B sequences, sequence b holding lengths[b] rows, in the rows' dtype."""
    out = np.zeros((len(lengths), lengths.max(), rows.shape[1]), dtype=rows.dtype)
    out[_valid(lengths)] = rows
    return out


_DIRECTIONS = ("fwd", "bwd")
_LSTM_PARTS = ("wx", "wh", "b")


def _param_table(c: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) of every parameter, in init draw order.

    The order is part of the determinism contract: it fixes which uniform
    draws each tensor receives for a given seed.
    """
    d = c.feature_dim
    n_u = len(FUNCTIONAL_NAMES)

    def encoder(prefix, d_in):
        h4 = 4 * c.hidden
        return [row for dr in _DIRECTIONS for row in (
            (f"{prefix}_{dr}_wx", (h4, d_in), d_in),
            (f"{prefix}_{dr}_wh", (h4, c.hidden), c.hidden),
            (f"{prefix}_{dr}_b", (h4,), d_in),
        )]

    return [
        ("embed", (INVENTORY_SIZE, c.embed_dim), c.embed_dim),
        ("ff_w", (c.ff_dim, c.embed_dim), c.embed_dim),
        ("ff_b", (c.ff_dim,), c.embed_dim),
        *encoder("pc", c.fusion_in_dim),
        ("u_w", (d, n_u), n_u),
        ("u_b", (d,), n_u),
        *encoder("fu", d),
        ("head_f_w", (N_CLASSES, d), d),
        ("head_f_b", (N_CLASSES,), d),
        ("head_p_w", (N_CLASSES, d), d),
        ("head_p_b", (N_CLASSES,), d),
    ]


class ScoringModel:
    """Parameter container plus forward/backward for batches of utterances."""

    def __init__(self, config: ModelConfig = ModelConfig(), seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {}
        for name, shape, fan_in in _param_table(config):
            bound = 1.0 / np.sqrt(fan_in)
            self.params[name] = rng.uniform(-bound, bound, size=shape)

    @classmethod
    def from_params(cls, config: ModelConfig, params: dict[str, np.ndarray]) -> "ScoringModel":
        """A model over the given parameter arrays (not copied), without
        the seeded draws of `__init__`."""
        model = cls.__new__(cls)
        model.config = config
        model.params = params
        return model

    def num_parameters(self) -> int:
        return sum(p.size for p in self.params.values())

    @property
    def dtype(self) -> np.dtype:
        """The dtype the forward pass computes in: that of the parameters."""
        return self.params["embed"].dtype

    def _encoder(self, prefix: str):
        """((wx, wh, b) forward, (wx, wh, b) backward) of encoder `prefix` ("pc" or "fu")."""
        return tuple(tuple(self.params[f"{prefix}_{dr}_{part}"] for part in _LSTM_PARTS)
                     for dr in _DIRECTIONS)

    def _encoder_backward(self, prefix: str, d_out, cache, grads, dx_tail=None) -> np.ndarray:
        """Backward through encoder `prefix`: stores its weight gradients in
        `grads` and returns its input gradient as `bilstm_backward` lays it
        out: row b holds its last dx_tail[b] steps (all its valid steps if
        dx_tail is not given), first step first, then zeros."""
        d_x, *dir_grads = bilstm_backward(d_out, cache, *self._encoder(prefix), dx_tail=dx_tail)
        for dr, gs in zip(_DIRECTIONS, dir_grads):
            for part, g in zip(_LSTM_PARTS, gs):
                grads[f"{prefix}_{dr}_{part}"] = g
        return d_x

    def _encode_phones(self, fusions: list[FusionInput]):
        """Phone-cue encoder over a batch of per-phoneme inputs.

        Each phoneme's row is its standardized numeric block joined with its
        tanh phone features. Returns (padded encoder outputs, lengths,
        encoder cache, phone indices, embeddings, tanh features); the last
        three hold the batch's phonemes concatenated in utterance order.
        """
        idx = np.concatenate([f.phone_indices for f in fusions])
        if idx.size and (idx.min() < 0 or idx.max() >= INVENTORY_SIZE):
            raise InventoryError(f"phone index out of range 0..{INVENTORY_SIZE - 1}")
        emb = self.params["embed"][idx]
        ptilde = np.tanh(emb @ self.params["ff_w"].T + self.params["ff_b"])
        numeric = np.concatenate([_numeric_rows(f, self.dtype) for f in fusions])
        lengths = np.array([len(f) for f in fusions])
        pc_cache = bilstm_forward(_pad(np.hstack([numeric, ptilde]), lengths), lengths,
                                  *self._encoder("pc"))
        return padded_output(pc_cache, lengths.max()), lengths, pc_cache, idx, emb, ptilde

    # -- spec-level single-utterance operations ------------------------------

    def phonecue_forward(self, fusion: FusionInput) -> np.ndarray:
        """Encode one utterance's per-phoneme rows to (L, feature_dim)."""
        p_all, *_ = self._encode_phones([fusion])
        return p_all[0, : len(fusion)]

    def score_utterance(self, utt: UtteranceFeatures) -> tuple[np.ndarray, np.ndarray]:
        """Full forward for one utterance, returning both head distributions."""
        _, dists, _ = self.forward_batch([utt])
        return dists[0][0], dists[0][1]

    # -- batched training path ----------------------------------------------

    def forward_batch(self, batch: list[UtteranceFeatures], loss_weights=(0.5, 0.5)):
        """Forward over a batch. Returns (mean loss or None, per-utterance
        head distributions, cache for backward)."""
        d = self.config.feature_dim
        for utt in batch:
            named(utt.id, _check_inputs, utt, d, self.dtype)
        p_all, l_lens, pc_cache, idx, emb, ptilde = self._encode_phones([u.fusion for u in batch])
        t_lens = np.array([len(u.ct) for u in batch])
        u_std = ((np.array([u.u_nv for u in batch], dtype=np.float64) - U_OFFSET) / U_SCALE
                 ).astype(self.dtype, copy=False)
        u = u_std @ self.params["u_w"].T + self.params["u_b"]

        # Fusion sequence per utterance: [pair means of its ct rows; attended
        # rows; u token]. Attention reads its keys and values from those rows.
        s_lens = fusion_steps(t_lens, l_lens)
        k_lens = s_lens - l_lens - 1
        f_pad = np.zeros((len(batch), s_lens.max(), d), dtype=self.dtype)
        keys = f_pad[:, : k_lens.max()]
        _pool_ct(batch, keys)
        attended, weights = cross_attention(p_all, keys, k_lens)
        b, j = np.nonzero(_valid(l_lens))
        f_pad[b, k_lens[b] + j] = attended[b, j]
        f_pad[np.arange(len(batch)), k_lens + l_lens] = u
        fu_cache = bilstm_forward(f_pad, s_lens, *self._encoder("fu"))

        # Mean pooling over valid steps, read from the packed outputs. From
        # here on float64, whatever dtype the encoders ran in.
        fvec = output_sums(fu_cache) / s_lens[:, None] + u
        w_f, b_f, w_p, b_p = (self.params[f"head_{h}_{part}"].astype(np.float64, copy=False)
                              for h in ("f", "p") for part in ("w", "b"))
        dist_f = softmax(fvec @ w_f.T + b_f)
        dist_p = softmax(fvec @ w_p.T + b_p)
        dists = list(zip(dist_f, dist_p))
        loss = None
        if all(utt.fluency is not None and utt.prosody is not None for utt in batch):
            loss = float(np.mean([loss_fn(f, p, utt.fluency, utt.prosody, loss_weights)
                                  for (f, p), utt in zip(dists, batch)]))
        cache = {
            "batch": batch, "loss_weights": loss_weights, "l_lens": l_lens, "idx": idx,
            "emb": emb, "ptilde": ptilde, "pc_cache": pc_cache, "weights": weights,
            "u_std": u_std, "fu_cache": fu_cache, "fvec": fvec, "dist_f": dist_f, "dist_p": dist_p,
        }
        return loss, dists, cache

    def backward(self, cache) -> dict[str, np.ndarray]:
        """Exact gradients of the mean batch loss for every parameter."""
        d = self.config.feature_dim
        batch = cache["batch"]
        n = len(batch)
        rows = np.arange(n)
        wf, wp = cache["loss_weights"]
        l_lens, s_lens = cache["l_lens"], cache["fu_cache"].lengths
        grads = {"embed": np.zeros_like(self.params["embed"])}  # np.add.at accumulates into it

        dlf = cache["dist_f"].copy()
        dlf[rows, [utt.fluency for utt in batch]] -= 1.0
        dlf *= wf / n
        dlp = cache["dist_p"].copy()
        dlp[rows, [utt.prosody for utt in batch]] -= 1.0
        dlp *= wp / n
        grads["head_f_w"] = dlf.T @ cache["fvec"]
        grads["head_f_b"] = dlf.sum(axis=0)
        grads["head_p_w"] = dlp.T @ cache["fvec"]
        grads["head_p_b"] = dlp.sum(axis=0)
        dfvec = dlf @ self.params["head_f_w"] + dlp @ self.params["head_p_w"]

        # Mean pooling spreads dfvec over each utterance's valid steps; the
        # encoder ignores the broadcast values at padded positions. Cast to
        # the encoders' dtype, which their backward computes in.
        d_hs = np.broadcast_to((dfvec / s_lens[:, None]).astype(self.dtype, copy=False)[:, None, :],
                               (n, s_lens.max(), d))
        # Only the attended rows and the u token (the last l_lens + 1 steps)
        # carry gradient further back; the pooled ct rows are data. Row b of
        # d_tail holds its l_lens[b] attended rows, then its u token.
        d_tail = self._encoder_backward("fu", d_hs, cache["fu_cache"], grads, dx_tail=l_lens + 1)

        d_u = dfvec + d_tail[rows, l_lens]  # residual path plus the u token
        grads["u_w"] = d_u.T @ cache["u_std"]
        grads["u_b"] = d_u.sum(axis=0)

        # Attention over the keys the forward read: padded queries get zero
        # gradient and masked keys zero weight, so neither contributes.
        weights = cache["weights"]
        keys = np.zeros((n, weights.shape[2], d), dtype=self.dtype)
        _pool_ct(batch, keys)
        d_att = d_tail[:, :-1]
        d_att[~_valid(l_lens)] = 0.0
        d_w = d_att @ keys.transpose(0, 2, 1)
        d_scores = weights * (d_w - (d_w * weights).sum(axis=2, keepdims=True))
        d_p = d_scores @ keys / math.sqrt(d)
        d_rows = self._encoder_backward("pc", d_p, cache["pc_cache"], grads)

        da = d_rows[_valid(l_lens)][:, 5:] * (1.0 - cache["ptilde"] ** 2)
        grads["ff_w"] = da.T @ cache["emb"]
        grads["ff_b"] = da.sum(axis=0)
        np.add.at(grads["embed"], cache["idx"], da @ self.params["ff_w"])
        return {name: grads[name] for name in self.params}

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        """Single-file checkpoint: the magic `CKPT3`, the line
        `dims V E F H U K` (the vocabulary, the three `ModelConfig` knobs, the
        functional count and the class count), every tensor as float32-LE in
        `_param_table` order, and a u32-LE `zlib.crc32` of all bytes before it.
        The table derives each tensor's name, shape and place from the dims
        line, so the file stores no index."""
        c = self.config
        header = CKPT_MAGIC + (f"dims {INVENTORY_SIZE} {c.embed_dim} {c.ff_dim} {c.hidden} "
                               f"{len(FUNCTIONAL_NAMES)} {N_CLASSES}\n").encode("ascii")
        crc = zlib.crc32(header)
        with open(path, "wb") as fh:
            fh.write(header)
            for name, _, _ in _param_table(c):
                block = np.ascontiguousarray(self.params[name], dtype="<f4")  # row-major
                fh.write(block)
                crc = zlib.crc32(block, crc)
            fh.write(crc.to_bytes(4, "little"))

    @classmethod
    def load(cls, path) -> "ScoringModel":
        """Read a checkpoint written by `save`. The dims line's fixed fields
        must match this model's vocabulary, functional count and class count;
        the file size must be the one the dims line implies, checked before
        anything is allocated; the CRC32 must match; and every tensor must be
        finite. The model keeps the stored float32 precision, so its forward
        pass runs in float32; its tensors are writable views of one buffer."""
        with open(path, "rb") as fh:
            magic = fh.read(len(CKPT_MAGIC))
            if magic != CKPT_MAGIC:
                raise FormatError(
                    f"bad checkpoint magic {magic!r} in {path}, expected {CKPT_MAGIC!r}")
            dims_line = fh.readline(256)  # bounded, so a non-checkpoint is not read whole
            try:
                dims = dims_line.decode("ascii").split()
                if not dims_line.endswith(b"\n") or len(dims) != 7 or dims[0] != "dims":
                    raise ValueError("expected 'dims V E F H U K'")
                vocab, *knobs, n_functionals, n_classes = (int(v) for v in dims[1:])
            except ValueError as exc:
                raise FormatError(f"checkpoint {path} has a malformed dims line: {exc}") from None
            for field, value, fixed in (("vocabulary", vocab, INVENTORY_SIZE),
                                        ("functional count", n_functionals, len(FUNCTIONAL_NAMES)),
                                        ("class count", n_classes, N_CLASSES)):
                if value != fixed:
                    raise FormatError(f"checkpoint {path} has {field} {value}, expected {fixed}")
            cfg = ModelConfig(*knobs)
            if min(astuple(cfg)) < 1:
                raise FormatError(f"checkpoint {path} has non-positive dims {astuple(cfg)}")
            table = _param_table(cfg)
            header = magic + dims_line
            n_floats = sum(math.prod(shape) for _, shape, _ in table)
            size = len(header) + 4 * n_floats + 4
            got = os.fstat(fh.fileno()).st_size
            if got == size:  # sized by the file, so a forged dims line cannot over-allocate
                body = np.empty(n_floats + 1, dtype="<f4")  # the payload, then the CRC word
                got = len(header) + fh.readinto(body)  # short only if the file shrank since fstat
        if got != size:
            raise FormatError(f"checkpoint {path} holds {got} bytes, its dims line needs {size}")
        stored, crc = int(body[-1:].view("<u4")[0]), zlib.crc32(body[:-1], zlib.crc32(header))
        if crc != stored:
            raise FormatError(f"checkpoint {path} fails its CRC32 check "
                              f"(stored {stored:#010x}, computed {crc:#010x})")
        payload = body[:-1].astype(np.float32, copy=False)  # a no-op on little-endian hosts
        params, offset = {}, 0
        for name, shape, _ in table:
            n = math.prod(shape)
            params[name] = payload[offset : offset + n].reshape(shape)
            if not np.isfinite(params[name]).all():
                raise FormatError(f"checkpoint {path}: tensor {name!r} holds non-finite values")
            offset += n
        return cls.from_params(cfg, params)


def loss_fn(dist_f, dist_p, fluency, prosody, loss_weights) -> float:
    """Weighted cross-entropy over the two heads (natural log)."""
    if not (0 <= fluency < N_CLASSES and 0 <= prosody < N_CLASSES):
        raise ValidationError(f"labels must lie in 0..{N_CLASSES - 1}")
    wf, wp = loss_weights
    return float(-wf * np.log(dist_f[fluency]) - wp * np.log(dist_p[prosody]))
