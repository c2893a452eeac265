"""Bidirectional LSTM over packed sequences, with exact reverse-mode gradients.

Callers pass a zero-padded batch x of shape (B, T, D) and the number of
valid steps in each row. `bilstm_forward` packs the valid positions once
(`pack_plan`): rows are ordered longest-first by a stable sort and laid
out time-major, so step t occupies packed rows offsets[t] : offsets[t+1]
and holds the n_t sequences longer than t, longest first. A sequence
still running at step t was running at step t-1 in the same slot, so
each step's h_{t-1} and c_{t-1} are the first n_t rows of the previous
step's slice, and the recurrent GEMM runs over those n_t rows only. No
padded position is computed, cached or differentiated.

The backward direction reads each sequence from its last valid step
back: its packed row for (sequence, step s) holds input step
lengths - 1 - s. Both directions share one layout, so the reversal is a
permutation of packed rows (`PackPlan.rev`, its own inverse), not a
padded copy.

Each direction's cache keeps its post-activation gates and each step's
output h_t and cell state c_t as packed (N, ·) arrays, N being the
number of valid positions; the bidirectional cache adds the plan and the
packed input, once. The backward pass computes d_wx, d_wh, d_b and the
input gradient as single GEMMs over packed rows. Outputs and input
gradients are scattered back to padded (B, T, ·) arrays whose padded
positions are exactly zero.

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
class PackPlan:
    rows: np.ndarray       # (N,) batch row of each packed row
    steps: np.ndarray      # (N,) time step of each packed row
    offsets: np.ndarray    # (T+1,) step t occupies packed rows offsets[t] : offsets[t+1]
    rev: np.ndarray        # (N,) packed row of the same sequence at the mirrored step


def pack_plan(lengths) -> PackPlan:
    """Time-major packing of sequences with the given lengths, longest first."""
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    sorted_lens = lengths[order]
    active = np.arange(sorted_lens.max(initial=0))[:, None] < sorted_lens[None, :]
    steps, slots = np.nonzero(active)  # row-major: time-major, slots 0..n_t-1 per step
    offsets = np.concatenate([[0], np.cumsum(active.sum(axis=1))])
    rev = offsets[sorted_lens[slots] - 1 - steps] + slots
    return PackPlan(order[slots], steps, offsets, rev)


@dataclass
class LSTMCache:
    gates: np.ndarray      # (N, 4H) post-activation [i, f, g, o]
    c: np.ndarray          # (N, H) cell state after each step
    hs: np.ndarray         # (N, H) output after each step


def lstm_forward(x, offsets, w_x, w_h, b):
    """Single-direction pass over packed rows x: (N, D); returns ((N, H), cache)."""
    hid = w_h.shape[1]
    gates = x @ w_x.T  # input contribution for every step at once, activated in place
    gates += b
    cs = np.empty((len(x), hid))
    hs = np.empty((len(x), hid))
    for t in range(len(offsets) - 1):
        lo, hi = offsets[t], offsets[t + 1]
        z = gates[lo:hi]
        if t:  # h_{t-1}, c_{t-1}: the first hi - lo rows of the previous step
            prev = slice(offsets[t - 1], offsets[t - 1] + hi - lo)
            z += hs[prev] @ w_h.T
        z[:, : 2 * hid] = _sigmoid(z[:, : 2 * hid])
        z[:, 2 * hid : 3 * hid] = np.tanh(z[:, 2 * hid : 3 * hid])
        z[:, 3 * hid :] = _sigmoid(z[:, 3 * hid :])
        i, f, g, o = (z[:, k * hid : (k + 1) * hid] for k in range(4))
        c = cs[lo:hi]
        np.multiply(i, g, out=c)
        if t:
            c += f * cs[prev]
        hs[lo:hi] = o * np.tanh(c)
    return hs, LSTMCache(gates, cs, hs)


def lstm_backward(d_hs, x, cache, offsets, w_x, w_h):
    """Gradients for lstm_forward over packed input x, given d_hs: (N, H)."""
    n_rows, hid = cache.c.shape
    dz_all = np.empty((n_rows, 4 * hid))
    first = offsets[1] if len(offsets) > 1 else 0  # rows of step 0 have h_{t-1} = 0
    h_in = np.empty((n_rows - first, hid))  # h_{t-1} of every later row, for the d_wh GEMM

    dh_next = dc_next = np.zeros((0, hid))
    for t in range(len(offsets) - 2, -1, -1):
        lo, hi = offsets[t], offsets[t + 1]
        gates = cache.gates[lo:hi]
        i, f, g, o = (gates[:, k * hid : (k + 1) * hid] for k in range(4))
        tanh_c = np.tanh(cache.c[lo:hi])
        n_next = len(dh_next)  # sequences still running at step t + 1

        dh = d_hs[lo:hi].copy()
        dh[:n_next] += dh_next
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c**2)
        dc[:n_next] += dc_next

        dz = dz_all[lo:hi]
        dz[:, :hid] = dc * g * i * (1.0 - i)
        dz[:, 2 * hid : 3 * hid] = dc * i * (1.0 - g**2)
        dz[:, 3 * hid :] = do * o * (1.0 - o)
        if t:
            prev = slice(offsets[t - 1], offsets[t - 1] + hi - lo)
            dz[:, hid : 2 * hid] = dc * cache.c[prev] * f * (1.0 - f)
            h_in[lo - first : hi - first] = cache.hs[prev]
            dc_next = dc * f
            dh_next = dz @ w_h
        else:
            dz[:, hid : 2 * hid] = 0.0

    d_wx = dz_all.T @ x
    d_wh = dz_all[first:].T @ h_in
    d_b = dz_all.sum(axis=0)
    d_x = dz_all @ w_x
    return d_x, d_wx, d_wh, d_b


def reverse_padded(x, lengths):
    """Flip each sequence's valid prefix in time, leaving padding in place.

    The packed LSTM does not call it; the session benchmark's traced run
    still wraps it by name (`benchmarks/layers.py`)."""
    out = np.zeros_like(x)
    for b, n in enumerate(lengths):
        out[b, :n] = x[b, :n][::-1]
    return out


def bilstm_forward(x, lengths, fwd_params, bwd_params):
    """Bidirectional pass over a zero-padded batch x: (B, T, D) whose row b
    holds lengths[b] valid steps. Returns the (B, T, 2H) output, forward
    features first and zero at padded positions, and the backward cache."""
    plan = pack_plan(lengths)
    x_p = x[plan.rows, plan.steps]
    hs_f, cache_f = lstm_forward(x_p, plan.offsets, *fwd_params)
    hs_b, cache_b = lstm_forward(x_p[plan.rev], plan.offsets, *bwd_params)
    hid = hs_f.shape[1]
    out = np.zeros(x.shape[:2] + (2 * hid,))
    out[plan.rows, plan.steps, :hid] = hs_f
    out[plan.rows, plan.steps, hid:] = hs_b[plan.rev]
    return out, (plan, x_p, cache_f, cache_b)


def bilstm_backward(d_out, cache, fwd_params, bwd_params):
    """Gradients for bilstm_forward: (d_x padded like x, forward-direction
    (d_wx, d_wh, d_b), backward-direction (d_wx, d_wh, d_b)). Upstream
    gradients at padded positions of d_out are ignored."""
    plan, x_p, cache_f, cache_b = cache
    hid = cache_f.c.shape[1]
    d_p = d_out[plan.rows, plan.steps]
    dx_f, *grads_f = lstm_backward(d_p[:, :hid], x_p, cache_f, plan.offsets, *fwd_params[:2])
    dx_b, *grads_b = lstm_backward(
        d_p[plan.rev, hid:], x_p[plan.rev], cache_b, plan.offsets, *bwd_params[:2]
    )
    d_x = np.zeros(d_out.shape[:2] + (x_p.shape[1],))
    d_x[plan.rows, plan.steps] = dx_f + dx_b[plan.rev]
    return d_x, tuple(grads_f), tuple(grads_b)
