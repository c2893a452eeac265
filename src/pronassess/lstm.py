"""Bidirectional LSTM over padded batches, with exact reverse-mode gradients.

Sequences are padded at the end with zeros. Trailing padding is safe
without masking: valid outputs never depend on later inputs, and in the
backward pass padded positions receive zero upstream gradient, which
makes every padded step's contribution exactly zero.

Each direction's cache keeps its post-activation gates and each step's
output h_t and cell state c_t; the backward pass reads the previous
step's states h_{t-1} and c_{t-1} from them, shifted by one step, with
zeros at t = 0. The bidirectional cache keeps the input once: the
backward direction's time-reversed input is rebuilt from it in the
backward pass with `reverse_padded`, an exact copy.

Gate order in the stacked weight matrices is input, forget, cell, output.
"""

from dataclasses import dataclass

import numpy as np


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class LSTMCache:
    gates: np.ndarray      # (B, T, 4H) post-activation [i, f, g, o]
    c: np.ndarray          # (B, T, H) cell state after each step; c[:, t-1] is c_{t-1}
    hs: np.ndarray         # (B, T, H) output after each step; hs[:, t-1] is h_{t-1}


def lstm_forward(x, w_x, w_h, b):
    """Single-direction pass. x: (B, T, D); returns ((B, T, H), cache)."""
    bsz, t_max, _ = x.shape
    hid = w_h.shape[1]
    z_in = x @ w_x.T + b  # input contribution for every step at once

    gates = np.empty((bsz, t_max, 4 * hid))
    cs = np.empty((bsz, t_max, hid))
    hs = np.empty((bsz, t_max, hid))

    h = np.zeros((bsz, hid))
    c = np.zeros((bsz, hid))
    for t in range(t_max):
        z = z_in[:, t] + h @ w_h.T
        i = _sigmoid(z[:, :hid])
        f = _sigmoid(z[:, hid : 2 * hid])
        g = np.tanh(z[:, 2 * hid : 3 * hid])
        o = _sigmoid(z[:, 3 * hid :])
        c = f * c + i * g
        h = o * np.tanh(c)
        gates[:, t, :hid] = i
        gates[:, t, hid : 2 * hid] = f
        gates[:, t, 2 * hid : 3 * hid] = g
        gates[:, t, 3 * hid :] = o
        cs[:, t] = c
        hs[:, t] = h
    return hs, LSTMCache(gates, cs, hs)


def lstm_backward(d_hs, x, cache, w_x, w_h):
    """Gradients for lstm_forward over input x. d_hs must be zero at padded positions."""
    bsz, t_max, hid = cache.c.shape
    dz_all = np.empty((bsz, t_max, 4 * hid))

    zeros = np.zeros((bsz, hid))
    dh_next = zeros
    dc_next = zeros
    for t in range(t_max - 1, -1, -1):
        i = cache.gates[:, t, :hid]
        f = cache.gates[:, t, hid : 2 * hid]
        g = cache.gates[:, t, 2 * hid : 3 * hid]
        o = cache.gates[:, t, 3 * hid :]
        tanh_c = np.tanh(cache.c[:, t])

        dh = d_hs[:, t] + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        di = dc * g
        dg = dc * i
        df = dc * (cache.c[:, t - 1] if t else zeros)
        dc_next = dc * f

        dz = dz_all[:, t]
        dz[:, :hid] = di * i * (1.0 - i)
        dz[:, hid : 2 * hid] = df * f * (1.0 - f)
        dz[:, 2 * hid : 3 * hid] = dg * (1.0 - g**2)
        dz[:, 3 * hid :] = do * o * (1.0 - o)
        dh_next = dz @ w_h

    flat_dz = dz_all.reshape(-1, 4 * hid)
    d_wx = flat_dz.T @ x.reshape(-1, x.shape[-1])
    h_in = np.zeros_like(cache.hs)  # h_{t-1} for every step, contiguous for the GEMM
    h_in[:, 1:] = cache.hs[:, :-1]
    d_wh = flat_dz.T @ h_in.reshape(-1, hid)
    d_b = flat_dz.sum(axis=0)
    d_x = dz_all @ w_x
    return d_x, d_wx, d_wh, d_b


def reverse_padded(x, lengths):
    """Flip each sequence's valid prefix in time, leaving padding in place."""
    out = np.zeros_like(x)
    for b, n in enumerate(lengths):
        out[b, :n] = x[b, :n][::-1]
    return out


def bilstm_forward(x, lengths, fwd_params, bwd_params):
    """Bidirectional pass; output is (B, T, 2H), forward features first."""
    hs_f, cache_f = lstm_forward(x, *fwd_params)
    hs_b_rev, cache_b = lstm_forward(reverse_padded(x, lengths), *bwd_params)
    hs_b = reverse_padded(hs_b_rev, lengths)
    out = np.concatenate([hs_f, hs_b], axis=2)
    return out, (x, cache_f, cache_b, lengths)


def bilstm_backward(d_out, cache, fwd_params, bwd_params):
    x, cache_f, cache_b, lengths = cache
    hid = cache_f.c.shape[2]
    d_f = d_out[:, :, :hid]
    d_b_rev = reverse_padded(d_out[:, :, hid:], lengths)
    dx_f, dwx_f, dwh_f, db_f = lstm_backward(d_f, x, cache_f, fwd_params[0], fwd_params[1])
    dx_b_rev, dwx_b, dwh_b, db_b = lstm_backward(
        d_b_rev, reverse_padded(x, lengths), cache_b, bwd_params[0], bwd_params[1]
    )
    dx = dx_f + reverse_padded(dx_b_rev, lengths)
    return dx, (dwx_f, dwh_f, db_f), (dwx_b, dwh_b, db_b)
