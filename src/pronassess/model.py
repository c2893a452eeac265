"""The trainable scoring head: phone-cue encoder, cross-attention fusion,
and two 11-class projection heads for fluency and prosody.

Per utterance the forward pass runs:

1. phone embedding -> tanh feedforward, concatenated with the GoPD value
   and 4 pooled descriptors into per-phoneme rows;
2. a bidirectional LSTM over those rows (the phone-cue encoder);
3. scaled dot-product cross-attention with the encoder states as queries
   and the contextual acoustic rows as keys and values;
4. a fusion sequence [acoustic rows; attention rows; projected utterance
   functionals as one extra token] through a second bidirectional LSTM,
   mean-pooled, with the projected functionals added back as a residual;
5. two affine softmax heads over score classes 0..10.

Raw descriptor scales differ by orders of magnitude (dB, semitones,
log-densities), which would saturate the recurrent gates at the pinned
uniform init, so the network standardizes its numeric inputs with the
fixed constants below before anything learnable sees them.

All parameters are float64. Gradients are exact reverse-mode derivatives,
checked against central finite differences in the test suite.
"""

from dataclasses import astuple, dataclass

import numpy as np

from .assembly import FusionInput
from .errors import FormatError, InventoryError, ValidationError
from .lstm import bilstm_backward, bilstm_forward

# Standardization of [gopd, loudness, alpha_db, f0_st, jitter] rows.
NUMERIC_OFFSET = np.array([-5.0, 1.0, 0.0, 30.0, 0.0])
NUMERIC_SCALE = np.array([1.5, 2.0, 8.0, 20.0, 0.02])
# Standardization of the 13 utterance functionals.
U_OFFSET = np.array([30.0, 0.0, 30.0, 30.0, 30.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
U_SCALE = np.array([20.0, 0.3, 8.0, 8.0, 8.0, 100.0, 100.0, 100.0, 100.0, 0.15, 0.1, 0.05, 0.075])

CKPT_MAGIC = b"CKPT1\n"


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 41
    embed_dim: int = 41
    ff_dim: int = 24
    hidden: int = 512  # per direction, both recurrent encoders
    u_dim: int = 13
    n_classes: int = 11

    @property
    def feature_dim(self) -> int:
        """Width of encoder outputs and of the contextual acoustic rows."""
        return 2 * self.hidden

    @property
    def fusion_in_dim(self) -> int:
        """Per-phoneme row width: 1 GoPD + 4 pooled + ff_dim phone features."""
        return 5 + self.ff_dim


TINY_CONFIG = ModelConfig(vocab_size=41, embed_dim=10, ff_dim=3, hidden=8, u_dim=13, n_classes=11)


@dataclass
class UtteranceFeatures:
    """Everything the network consumes for one utterance."""

    fusion: FusionInput
    ct: np.ndarray       # (T, feature_dim) contextual acoustic rows
    u_nv: np.ndarray     # (u_dim,) utterance functionals
    fluency: int | None = None
    prosody: int | None = None


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def cross_attention(p_nv: np.ndarray, ct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-head scaled dot-product attention, queries p_nv, keys/values ct.

    Returns (attended rows, attention weights). Each output row is a convex
    combination of ct rows.
    """
    if p_nv.shape[1] != ct.shape[1]:
        raise ValidationError(
            f"query dim {p_nv.shape[1]} != key/value dim {ct.shape[1]}"
        )
    scores = p_nv @ ct.T / np.sqrt(ct.shape[1])
    weights = softmax(scores, axis=1)
    return weights @ ct, weights


def _pad(rows_list: list[np.ndarray], width: int) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.array([len(r) for r in rows_list])
    out = np.zeros((len(rows_list), int(lengths.max()), width))
    for b, r in enumerate(rows_list):
        out[b, : len(r)] = r
    return out, lengths


_DIRECTIONS = ("fwd", "bwd")
_LSTM_PARTS = ("wx", "wh", "b")


def _param_table(c: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) of every parameter, in init draw order.

    The order is part of the determinism contract: it fixes which uniform
    draws each tensor receives for a given seed.
    """
    d = c.feature_dim

    def encoder(prefix, d_in):
        h4 = 4 * c.hidden
        return [row for dr in _DIRECTIONS for row in (
            (f"{prefix}_{dr}_wx", (h4, d_in), d_in),
            (f"{prefix}_{dr}_wh", (h4, c.hidden), c.hidden),
            (f"{prefix}_{dr}_b", (h4,), d_in),
        )]

    return [
        ("embed", (c.vocab_size, c.embed_dim), c.embed_dim),
        ("ff_w", (c.ff_dim, c.embed_dim), c.embed_dim),
        ("ff_b", (c.ff_dim,), c.embed_dim),
        *encoder("pc", c.fusion_in_dim),
        ("u_w", (d, c.u_dim), c.u_dim),
        ("u_b", (d,), c.u_dim),
        *encoder("fu", d),
        ("head_f_w", (c.n_classes, d), d),
        ("head_f_b", (c.n_classes,), d),
        ("head_p_w", (c.n_classes, d), d),
        ("head_p_b", (c.n_classes,), d),
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

    def num_parameters(self) -> int:
        return sum(p.size for p in self.params.values())

    def _encoder(self, prefix: str):
        """((wx, wh, b) forward, (wx, wh, b) backward) of encoder `prefix` ("pc" or "fu")."""
        return tuple(tuple(self.params[f"{prefix}_{dr}_{part}"] for part in _LSTM_PARTS)
                     for dr in _DIRECTIONS)

    def _encoder_backward(self, prefix: str, d_out, cache, grads) -> np.ndarray:
        """Backward through encoder `prefix`: adds its weight gradients to
        `grads` and returns the gradient of its padded input."""
        d_x, *dir_grads = bilstm_backward(d_out, cache, *self._encoder(prefix))
        for dr, gs in zip(_DIRECTIONS, dir_grads):
            for part, g in zip(_LSTM_PARTS, gs):
                grads[f"{prefix}_{dr}_{part}"] += g
        return d_x

    def _encode_phones(self, fusions: list[FusionInput]):
        """Phone-cue encoder over a batch of per-phoneme inputs.

        Each utterance's rows are its standardized numeric block joined with
        tanh phone features. Returns (padded encoder outputs, lengths, encoder
        cache, embeddings, tanh features); the last two are per utterance.
        """
        rows_list, embs, ptildes = [], [], []
        for fusion in fusions:
            idx = fusion.phone_indices
            if idx.size and (idx.min() < 0 or idx.max() >= self.config.vocab_size):
                raise InventoryError(
                    f"phone index out of range 0..{self.config.vocab_size - 1}"
                )
            emb = self.params["embed"][idx]
            ptilde = np.tanh(emb @ self.params["ff_w"].T + self.params["ff_b"])
            numeric = (fusion.numeric_block() - NUMERIC_OFFSET) / NUMERIC_SCALE
            rows_list.append(np.hstack([numeric, ptilde]))
            embs.append(emb)
            ptildes.append(ptilde)
        r_pad, lengths = _pad(rows_list, self.config.fusion_in_dim)
        p_all, pc_cache = bilstm_forward(r_pad, lengths, *self._encoder("pc"))
        return p_all, lengths, pc_cache, embs, ptildes

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
        cfg = self.config
        d = cfg.feature_dim
        for utt in batch:
            if utt.ct.ndim != 2 or utt.ct.shape[1] != d:
                raise ValidationError(f"ct must be T x {d}, got {utt.ct.shape}")
            if len(utt.u_nv) != cfg.u_dim:
                raise ValidationError(f"u_nv must have {cfg.u_dim} entries")
        p_all, l_lens, pc_cache, embs, ptildes = self._encode_phones([u.fusion for u in batch])

        fseqs, attns, us, u_stds = [], [], [], []
        for i, utt in enumerate(batch):
            p = p_all[i, : l_lens[i]]
            alpha, weights = cross_attention(p, utt.ct)
            u_std = (np.asarray(utt.u_nv, dtype=np.float64) - U_OFFSET) / U_SCALE
            u = self.params["u_w"] @ u_std + self.params["u_b"]
            fseqs.append(np.vstack([utt.ct, alpha, u[None, :]]))
            attns.append(weights)
            us.append(u)
            u_stds.append(u_std)

        f_pad, s_lens = _pad(fseqs, d)
        hs_all, fu_cache = bilstm_forward(f_pad, s_lens, *self._encoder("fu"))

        dists, fvecs, losses = [], [], []
        has_labels = all(u.fluency is not None and u.prosody is not None for u in batch)
        for i, utt in enumerate(batch):
            pooled = hs_all[i, : s_lens[i]].mean(axis=0)
            fvec = pooled + us[i]
            dist_f = softmax(self.params["head_f_w"] @ fvec + self.params["head_f_b"])
            dist_p = softmax(self.params["head_p_w"] @ fvec + self.params["head_p_b"])
            dists.append((dist_f, dist_p))
            fvecs.append(fvec)
            if has_labels:
                losses.append(loss_fn(dist_f, dist_p, utt.fluency, utt.prosody, loss_weights))

        loss = float(np.mean(losses)) if has_labels else None
        cache = {
            "batch": batch, "embs": embs, "ptildes": ptildes,
            "l_lens": l_lens, "pc_cache": pc_cache, "p_all": p_all,
            "attns": attns, "us": us, "u_stds": u_stds,
            "s_lens": s_lens, "fu_cache": fu_cache, "hs_all": hs_all,
            "fvecs": fvecs, "dists": dists, "loss_weights": loss_weights,
        }
        return loss, dists, cache

    def backward(self, cache) -> dict[str, np.ndarray]:
        """Exact gradients of the mean batch loss for every parameter."""
        d = self.config.feature_dim
        batch = cache["batch"]
        n = len(batch)
        wf, wp = cache["loss_weights"]
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}

        hs_all = cache["hs_all"]
        s_lens = cache["s_lens"]
        d_hs = np.zeros_like(hs_all)
        d_us = []
        for i, utt in enumerate(batch):
            dist_f, dist_p = cache["dists"][i]
            dlf = dist_f.copy()
            dlf[utt.fluency] -= 1.0
            dlf *= wf / n
            dlp = dist_p.copy()
            dlp[utt.prosody] -= 1.0
            dlp *= wp / n
            fvec = cache["fvecs"][i]
            grads["head_f_w"] += np.outer(dlf, fvec)
            grads["head_f_b"] += dlf
            grads["head_p_w"] += np.outer(dlp, fvec)
            grads["head_p_b"] += dlp
            dfvec = self.params["head_f_w"].T @ dlf + self.params["head_p_w"].T @ dlp
            d_hs[i, : s_lens[i]] = dfvec / s_lens[i]
            d_us.append(dfvec.copy())  # residual path into u

        d_fseq = self._encoder_backward("fu", d_hs, cache["fu_cache"], grads)

        p_all = cache["p_all"]
        l_lens = cache["l_lens"]
        d_p = np.zeros_like(p_all)
        for i, utt in enumerate(batch):
            t_i = len(utt.ct)
            l_i = l_lens[i]
            d_alpha = d_fseq[i, t_i : t_i + l_i]
            d_us[i] += d_fseq[i, t_i + l_i]
            weights = cache["attns"][i]
            d_w = d_alpha @ utt.ct.T
            d_scores = weights * (d_w - (d_w * weights).sum(axis=1, keepdims=True))
            d_p[i, :l_i] = d_scores @ utt.ct / np.sqrt(d)
            grads["u_w"] += np.outer(d_us[i], cache["u_stds"][i])
            grads["u_b"] += d_us[i]

        d_rows = self._encoder_backward("pc", d_p, cache["pc_cache"], grads)

        for i, utt in enumerate(batch):
            dr = d_rows[i, : l_lens[i]]
            dptilde = dr[:, 5:]
            da = dptilde * (1.0 - cache["ptildes"][i] ** 2)
            grads["ff_w"] += da.T @ cache["embs"][i]
            grads["ff_b"] += da.sum(axis=0)
            de = da @ self.params["ff_w"]
            np.add.at(grads["embed"], utt.fusion.phone_indices, de)
        return grads

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        """Single-file checkpoint: text index, then float32 blocks in index order."""
        c = self.config
        header = [
            f"dims {c.vocab_size} {c.embed_dim} {c.ff_dim} {c.hidden} {c.u_dim} {c.n_classes}",
            str(len(self.params)),
        ]
        blocks = []
        for name, p in self.params.items():
            mat = p if p.ndim == 2 else p[None, :]
            header.append(f"{name} {mat.shape[0]} {mat.shape[1]}")
            blocks.append(mat.astype("<f4").tobytes())
        header.append("END\n")
        with open(path, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write("\n".join(header).encode("ascii"))
            for b in blocks:
                fh.write(b)

    @classmethod
    def load(cls, path) -> "ScoringModel":
        with open(path, "rb") as fh:
            blob = fh.read()
        if not blob.startswith(CKPT_MAGIC):
            raise FormatError(f"bad checkpoint magic in {path}")
        try:
            end = blob.index(b"END\n")
        except ValueError:
            raise FormatError(f"checkpoint {path} has no END marker") from None
        try:
            lines = blob[len(CKPT_MAGIC) : end].decode("ascii").strip().splitlines()
            dims = lines[0].split()
            if dims[0] != "dims" or len(dims) != 7:
                raise FormatError("checkpoint dims line malformed")
            cfg = ModelConfig(*[int(v) for v in dims[1:]])
            n_tensors = int(lines[1])
            entries = [(name, int(rows), int(cols))
                       for name, rows, cols in (line.split() for line in lines[2:])]
        except (IndexError, ValueError) as exc:
            raise FormatError(f"checkpoint {path} has a malformed index: {exc}") from None
        if min(astuple(cfg)) < 1:
            raise FormatError(f"checkpoint {path} has non-positive dims {astuple(cfg)}")
        if len(entries) != n_tensors:
            raise FormatError(f"checkpoint {path} declares {n_tensors} tensors, lists {len(entries)}")
        expected = {name: shape if len(shape) == 2 else (1, shape[0])
                    for name, shape, _ in _param_table(cfg)}
        names = [name for name, _, _ in entries]
        if sorted(names) != sorted(expected):
            raise FormatError(
                f"checkpoint {path} must list each model tensor once: lists {len(names)} of "
                f"{len(expected)}, missing {sorted(set(expected) - set(names))}, "
                f"unknown {sorted(set(names) - set(expected))}"
            )
        for name, rows, cols in entries:
            if (rows, cols) != expected[name]:
                raise FormatError(
                    f"tensor {name!r} has shape {(rows, cols)}, expected {expected[name]}"
                )
        # Checked before the model is built, so a forged index cannot make
        # load allocate more than the file holds.
        payload = len(blob) - (end + 4)
        needed = 4 * sum(rows * cols for _, rows, cols in entries)
        if payload != needed:
            raise FormatError(f"checkpoint {path} holds {payload} tensor bytes, index needs {needed}")
        model = cls(cfg, seed=0)
        offset = end + 4
        for name, rows, cols in entries:
            vals = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=offset)
            model.params[name] = vals.astype(np.float64).reshape(model.params[name].shape)
            offset += 4 * rows * cols
        return model


def loss_fn(dist_f, dist_p, fluency, prosody, loss_weights=(0.5, 0.5)) -> float:
    """Weighted cross-entropy over the two heads (natural log)."""
    n_classes = len(dist_f)
    if not (0 <= fluency < n_classes and 0 <= prosody < n_classes):
        raise ValidationError(f"labels must lie in 0..{n_classes - 1}")
    wf, wp = loss_weights
    return float(-wf * np.log(dist_f[fluency]) - wp * np.log(dist_p[prosody]))
