"""Packed BiLSTM against each sequence run alone, without padding."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pronassess.lstm import bilstm_backward, bilstm_forward

TOL = 1e-12


@st.composite
def batches(draw):
    bsz = draw(st.integers(1, 5))
    t_max = draw(st.integers(1, 9))
    lengths = np.array(draw(st.lists(st.integers(1, t_max), min_size=bsz, max_size=bsz)))
    return (bsz, t_max, draw(st.integers(1, 6)), draw(st.integers(1, 4)), lengths,
            draw(st.integers(0, 2**32 - 1)))


def _setup(bsz, t_max, d_in, hid, lengths, seed):
    rng = np.random.default_rng(seed)

    def direction():
        return (rng.uniform(-0.8, 0.8, (4 * hid, d_in)), rng.uniform(-0.8, 0.8, (4 * hid, hid)),
                rng.uniform(-0.8, 0.8, 4 * hid))

    x = np.zeros((bsz, t_max, d_in))
    for b, n in enumerate(lengths):
        x[b, :n] = rng.normal(size=(n, d_in))
    # upstream gradients everywhere, padding included: padded positions must be ignored
    d_out = rng.normal(size=(bsz, t_max, 2 * hid))
    return x, d_out, direction(), direction()


def _valid(t_max, lengths):
    return np.arange(t_max)[None, :] < np.asarray(lengths)[:, None]


@settings(max_examples=150, deadline=None)
@given(batches())
def test_padded_batch_matches_each_sequence_alone(case):
    bsz, t_max, d_in, hid, lengths, seed = case
    x, d_out, fwd, bwd = _setup(*case)
    out, cache = bilstm_forward(x, lengths, fwd, bwd)
    dx, g_fwd, g_bwd = bilstm_backward(d_out, cache, fwd, bwd)

    assert out.shape == (bsz, t_max, 2 * hid) and dx.shape == x.shape
    pad = ~_valid(t_max, lengths)
    assert np.all(out[pad] == 0.0) and np.all(dx[pad] == 0.0)

    ref_fwd = [np.zeros_like(p) for p in fwd]
    ref_bwd = [np.zeros_like(p) for p in bwd]
    for b, n in enumerate(lengths):
        out_b, cache_b = bilstm_forward(x[b : b + 1, :n], np.array([n]), fwd, bwd)
        dx_b, gf, gb = bilstm_backward(d_out[b : b + 1, :n], cache_b, fwd, bwd)
        np.testing.assert_allclose(out[b, :n], out_b[0], rtol=0, atol=TOL)
        np.testing.assert_allclose(dx[b, :n], dx_b[0], rtol=0, atol=TOL)
        for acc, g in zip(ref_fwd + ref_bwd, gf + gb):
            acc += g
    for got, ref in zip(g_fwd + g_bwd, ref_fwd + ref_bwd):
        np.testing.assert_allclose(got, ref, rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None)
@given(batches(), st.randoms(use_true_random=False))
def test_permuting_the_batch_permutes_the_outputs(case, rnd):
    bsz, t_max, d_in, hid, lengths, seed = case
    x, d_out, fwd, bwd = _setup(*case)
    perm = np.array(rnd.sample(range(bsz), bsz))
    out, cache = bilstm_forward(x, lengths, fwd, bwd)
    dx, *grads = bilstm_backward(d_out, cache, fwd, bwd)
    out_p, cache_p = bilstm_forward(x[perm], lengths[perm], fwd, bwd)
    dx_p, *grads_p = bilstm_backward(d_out[perm], cache_p, fwd, bwd)
    np.testing.assert_allclose(out_p, out[perm], rtol=0, atol=TOL)
    np.testing.assert_allclose(dx_p, dx[perm], rtol=0, atol=TOL)
    for got, ref in zip(sum(grads_p, ()), sum(grads, ())):
        np.testing.assert_allclose(got, ref, rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None)
@given(batches())
def test_gradients_match_central_differences(case):
    # the loss sum(d_out * out) along one random direction in (x, weights)
    x, d_out, fwd, bwd = _setup(*case)
    lengths = case[4]
    d_out = d_out * _valid(x.shape[1], lengths)[:, :, None]
    rng = np.random.default_rng(case[5] + 1)
    point = [x, *fwd, *bwd]
    direction = [rng.normal(size=p.shape) for p in point]
    direction[0] *= _valid(x.shape[1], lengths)[:, :, None]

    def loss(step):
        moved = [p + step * v for p, v in zip(point, direction)]
        out, _ = bilstm_forward(moved[0], lengths, tuple(moved[1:4]), tuple(moved[4:]))
        return float(np.sum(d_out * out))

    _, cache = bilstm_forward(x, lengths, fwd, bwd)
    dx, g_fwd, g_bwd = bilstm_backward(d_out, cache, fwd, bwd)
    analytic = sum(float(np.sum(g * v)) for g, v in zip([dx, *g_fwd, *g_bwd], direction))
    eps = 1e-6
    numeric = (loss(eps) - loss(-eps)) / (2 * eps)
    assert abs(numeric - analytic) <= 1e-6 * max(1.0, abs(analytic))
