"""Packed BiLSTM against each sequence run alone, without padding."""

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pronassess import lstm
from pronassess.lstm import (_activate, _recurrent, bilstm_backward, bilstm_forward, output_sums,
                             padded_output)

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


def _forward(x, lengths, fwd, bwd):
    """(padded output, cache) of `bilstm_forward`, padded to x's length."""
    cache = bilstm_forward(x, lengths, fwd, bwd)
    return padded_output(cache, x.shape[1]), cache


def _valid(t_max, lengths):
    return np.arange(t_max)[None, :] < np.asarray(lengths)[:, None]


@settings(max_examples=150, deadline=None)
@given(batches())
def test_padded_batch_matches_each_sequence_alone(case):
    bsz, t_max, d_in, hid, lengths, seed = case
    x, d_out, fwd, bwd = _setup(*case)
    out, cache = _forward(x, lengths, fwd, bwd)
    dx, g_fwd, g_bwd = bilstm_backward(d_out, cache, fwd, bwd)

    assert out.shape == (bsz, t_max, 2 * hid) and dx.shape == x.shape
    pad = ~_valid(t_max, lengths)
    assert np.all(out[pad] == 0.0) and np.all(dx[pad] == 0.0)

    ref_fwd = [np.zeros_like(p) for p in fwd]
    ref_bwd = [np.zeros_like(p) for p in bwd]
    for b, n in enumerate(lengths):
        out_b, cache_b = _forward(x[b : b + 1, :n], np.array([n]), fwd, bwd)
        dx_b, gf, gb = bilstm_backward(d_out[b : b + 1, :n], cache_b, fwd, bwd)
        np.testing.assert_allclose(out[b, :n], out_b[0], rtol=0, atol=TOL)
        np.testing.assert_allclose(dx[b, :n], dx_b[0], rtol=0, atol=TOL)
        for acc, g in zip(ref_fwd + ref_bwd, gf + gb):
            acc += g
    for got, ref in zip(g_fwd + g_bwd, ref_fwd + ref_bwd):
        np.testing.assert_allclose(got, ref, rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None)
@given(batches())
def test_float32_forward_stays_float32_near_float64(case):
    """float32 inputs and weights run float32 end to end: output and cache
    are float32 and within float32 rounding (atol 1e-5, ~100 ulp at 1) of
    the float64 pass."""
    x, _, fwd, bwd = _setup(*case)
    lengths = case[4]
    out, _ = _forward(x, lengths, fwd, bwd)
    out32, cache = _forward(x.astype(np.float32), lengths,
                            *(tuple(p.astype(np.float32) for p in ps) for ps in (fwd, bwd)))
    assert all(a.dtype == np.float32 for a in (out32, cache.x, cache.gates, cache.c, cache.hs))
    np.testing.assert_allclose(out32, out, rtol=0, atol=1e-5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=6), st.integers(1, 4),
       st.integers(1, 4), st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
@example([1], 1, 1, np.float32, 0)
@example([3, 60, 1, 60, 7], 2, 3, np.float32, 1)
def test_output_sums_are_the_padded_sums_bit_for_bit(lengths, d_in, hid, dtype, seed):
    """`output_sums` gives the bits of numpy's float64 sum over the time
    axis of the padded output, the pooling `forward_batch` used to run."""
    lengths = np.array(lengths)
    x, _, fwd, bwd = _setup(len(lengths), lengths.max(), d_in, hid, lengths, seed)
    x = x.astype(dtype)
    fwd, bwd = (tuple(p.astype(dtype) for p in ps) for ps in (fwd, bwd))
    out, cache = _forward(x, lengths, fwd, bwd)
    sums = output_sums(cache)
    ref = out.sum(axis=1, dtype=np.float64)
    assert out.dtype == dtype and sums.dtype == np.float64
    assert sums.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(batches())
def test_backward_computes_in_the_cache_dtype(case):
    """A float64 cache gives float64 gradients; a float32 cache gives float32
    input and weight gradients, whatever the upstream gradient's dtype,
    within float32 rounding (1e-4 of the largest entry) of float64."""
    x, d_out, fwd, bwd = _setup(*case)
    lengths = case[4]
    cache = bilstm_forward(x, lengths, fwd, bwd)
    dx, g_fwd, g_bwd = bilstm_backward(d_out, cache, fwd, bwd)
    fwd32, bwd32 = (tuple(p.astype(np.float32) for p in ps) for ps in (fwd, bwd))
    cache32 = bilstm_forward(x.astype(np.float32), lengths, fwd32, bwd32)
    dx32, g_fwd32, g_bwd32 = bilstm_backward(d_out, cache32, fwd32, bwd32)
    for g, g32 in zip([dx, *g_fwd, *g_bwd], [dx32, *g_fwd32, *g_bwd32]):
        assert g.dtype == np.float64 and g32.dtype == np.float32
        np.testing.assert_allclose(g32, g, rtol=0, atol=1e-4 * max(1.0, np.abs(g).max()))


@settings(max_examples=60, deadline=None)
@given(batches(), st.randoms(use_true_random=False))
def test_permuting_the_batch_permutes_the_outputs(case, rnd):
    bsz, t_max, d_in, hid, lengths, seed = case
    x, d_out, fwd, bwd = _setup(*case)
    perm = np.array(rnd.sample(range(bsz), bsz))
    out, cache = _forward(x, lengths, fwd, bwd)
    dx, *grads = bilstm_backward(d_out, cache, fwd, bwd)
    out_p, cache_p = _forward(x[perm], lengths[perm], fwd, bwd)
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
        out, _ = _forward(moved[0], lengths, tuple(moved[1:4]), tuple(moved[4:]))
        return float(np.sum(d_out * out))

    cache = bilstm_forward(x, lengths, fwd, bwd)
    dx, g_fwd, g_bwd = bilstm_backward(d_out, cache, fwd, bwd)
    analytic = sum(float(np.sum(g * v)) for g, v in zip([dx, *g_fwd, *g_bwd], direction))
    eps = 1e-6
    numeric = (loss(eps) - loss(-eps)) / (2 * eps)
    assert abs(numeric - analytic) <= 1e-6 * max(1.0, abs(analytic))


def _branchy_sigmoid(x):
    """The sigmoid the gates used before the tanh form, kept as the reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=64), st.integers(1, 3))
@example([-800.0, 800.0, 0.0, -1000.0, 1000.0, 1.189], 1)
def test_tanh_form_gates_match_the_branchy_sigmoid(values, hid):
    x = np.array(values)
    z = np.repeat(x[:, None], 4 * hid, axis=1)  # every gate column holds x
    # numpy ignores underflow by default; halving a subnormal input underflows
    # to the same gate value, so only the warnings a caller would see are raised.
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        _activate(z, hid)
    sig = _branchy_sigmoid(x)[:, None]
    for cols in (slice(0, 2 * hid), slice(3 * hid, 4 * hid)):  # i, f, o
        assert np.max(np.abs(z[:, cols] - sig)) <= 2.3e-16
    assert np.array_equal(z[:, 2 * hid : 3 * hid], np.tanh(np.repeat(x[:, None], hid, axis=1)))
    saturated = np.array([[-800.0] * 4, [800.0] * 4])
    _activate(saturated, 1)
    assert saturated[0, [0, 1, 3]].tolist() == [0.0] * 3
    assert saturated[1, [0, 1, 3]].tolist() == [1.0] * 3


@st.composite
def tails(draw):
    case = draw(batches())
    lengths = case[4]
    return case, np.array([draw(st.integers(1, n)) for n in lengths])


@settings(max_examples=150, deadline=None)
@given(tails())
@example(((1, 1, 3, 2, np.array([1]), 0), np.array([1])))
@example(((1, 6, 2, 3, np.array([6]), 1), np.array([6])))
@example(((3, 5, 4, 2, np.array([5, 1, 3]), 2), np.array([5, 1, 3])))
def test_input_gradient_at_selected_tail_matches_full_path(case_tail):
    case, tail = case_tail
    bsz, t_max, d_in, hid, lengths, seed = case
    x, d_out, fwd, bwd = _setup(*case)
    cache = bilstm_forward(x, lengths, fwd, bwd)
    dx_full, *grads_full = bilstm_backward(d_out, cache, fwd, bwd)
    dx_tail, *grads_tail = bilstm_backward(d_out, cache, fwd, bwd, dx_tail=tail)

    steps = np.arange(t_max)[None, :]
    selected = (steps >= (lengths - tail)[:, None]) & _valid(t_max, lengths)
    np.testing.assert_allclose(dx_tail[selected], dx_full[selected], rtol=0, atol=TOL)
    assert np.all(dx_tail[~selected] == 0.0)
    for got, ref in zip(sum(grads_tail, ()), sum(grads_full, ())):
        np.testing.assert_array_equal(got, ref)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(512, 2048), (2048, 512), (64, 96), (8, 32)]), st.integers(1, 40),
       st.integers(0, 2**32 - 1))
def test_blocked_recurrent_product_matches_plain_matmul(shape, n_rows, seed):
    # (512, 2048) and (2048, 512) are the full-size forward and backward
    # products; n_rows spans blocks of 32, of 16 and no blocking.
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, shape)
    recurrent = _recurrent(w, n_rows)
    for _ in range(2):  # every call writes into the same buffer
        a = rng.normal(size=(int(rng.integers(1, n_rows + 1)), shape[0]))
        got = recurrent(a)
        ref = a @ w
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=TOL * np.abs(ref).max())
    assert np.shares_memory(got, recurrent(a[:1]))


def _full_size(dtype=np.float32, seed=4):
    rng = np.random.default_rng(seed)
    hid, d_in, lengths = 512, 1024, np.array([23, 5, 40, 17])

    def direction():
        return tuple(rng.uniform(-0.1, 0.1, s).astype(dtype)
                     for s in ((4 * hid, d_in), (4 * hid, hid), (4 * hid,)))

    x = np.zeros((len(lengths), lengths.max(), d_in), dtype=dtype)
    for b, n in enumerate(lengths):
        x[b, :n] = rng.normal(size=(n, d_in))
    d_out = rng.normal(size=(len(lengths), lengths.max(), 2 * hid)).astype(dtype)
    return x, lengths, d_out, direction(), direction()


def _forward_and_gradients(x, lengths, d_out, fwd, bwd, dx_tail=None):
    out, cache = _forward(x, lengths, fwd, bwd)
    dx, g_fwd, g_bwd = bilstm_backward(d_out, cache, fwd, bwd, dx_tail=dx_tail)
    return [out, dx, *g_fwd, *g_bwd]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tail", [None, np.array([3, 1, 40, 2])])
def test_gemm_placement_changes_no_bit(monkeypatch, dtype, tail):
    """The full-size forward and every gradient are the same bits with each
    direction's GEMMs and loop on its own thread and with both directions
    run one after the other on the caller, so no two threads race on a
    shared buffer."""
    case = _full_size(dtype)
    threaded = _forward_and_gradients(*case, dx_tail=tail)
    monkeypatch.setattr(lstm, "_each_direction", lambda run: (run(0), run(1)))
    inline = _forward_and_gradients(*case, dx_tail=tail)
    for got, ref in zip(threaded, inline):
        assert got.dtype == dtype and np.array_equal(got, ref)


def test_gemms_run_on_their_directions_thread(monkeypatch):
    """Each direction's projection, time loop and GEMMs run as one function:
    direction 0's on the worker and direction 1's on the caller."""
    caller = threading.get_ident()
    calls = []  # per _each_direction call: {direction: thread that ran it}
    each_direction = lstm._each_direction

    def spy(run):
        seen = {}
        calls.append(seen)

        def recorded(d):
            seen[d] = threading.get_ident()
            run(d)

        each_direction(recorded)

    monkeypatch.setattr(lstm, "_each_direction", spy)
    x, d_out, fwd, bwd = _setup(3, 6, 4, 2, np.array([6, 2, 4]), 9)
    cache = bilstm_forward(x, [6, 2, 4], fwd, bwd)
    bilstm_backward(d_out, cache, fwd, bwd)

    assert len(calls) == 2  # one forward pass, one backward pass
    for seen in calls:
        assert seen[0] != caller and seen[1] == caller


def test_gemm_error_on_the_worker_reaches_the_caller():
    """A GEMM that fails on the worker (direction 0's input weights have a
    row too many) raises on the caller, and the worker is joined."""
    lengths = np.array([6, 2, 4])
    x, d_out, fwd, bwd = _setup(3, 6, 4, 2, lengths, 9)
    cache = bilstm_forward(x, lengths, fwd, bwd)
    bad = (np.zeros((fwd[0].shape[0] + 1, fwd[0].shape[1])), *fwd[1:])
    threads = threading.active_count()
    for call in (lambda: bilstm_forward(x, lengths, bad, bwd),
                 lambda: bilstm_backward(d_out, cache, bad, bwd)):
        with pytest.raises(ValueError):
            call()
        assert threading.active_count() == threads


@pytest.fixture()
def blas_at_three_threads():
    """The get-num-threads function of numpy's OpenBLAS, with the count set
    to 3 for the test: neither OpenBLAS's default here nor the pin's 1."""
    get, set_ = lstm._blas_thread_probe()
    assert set_ is not None, "numpy's OpenBLAS has no thread setter"
    before = get()
    set_(3)
    assert get() == 3
    yield get
    set_(before)


def test_each_direction_runs_blas_at_one_thread_and_restores_the_callers(
        blas_at_three_threads):
    """Both directions read one BLAS thread; the caller's count comes back
    after the call, and after either direction raises."""
    get = blas_at_three_threads
    seen = []

    def read(d):
        seen.append((d, get()))

    lstm._each_direction(read)
    assert sorted(seen) == [(0, 1), (1, 1)]
    assert get() == 3
    for failing in (0, 1):
        def run(d):
            if d == failing:
                raise FloatingPointError(f"direction {d} failed")

        with pytest.raises(FloatingPointError, match=f"direction {failing} failed"):
            lstm._each_direction(run)
        assert get() == 3


def test_overlapping_pins_restore_the_first_callers_count(blas_at_three_threads):
    """Pins may nest and overlap on two threads: the count stays 1 until
    the last one exits, which restores the count found by the first."""
    get = blas_at_three_threads
    entered, release = threading.Event(), threading.Event()

    def other():
        with lstm.one_blas_thread():
            entered.set()
            release.wait(timeout=60)

    thread = threading.Thread(target=other)
    with lstm.one_blas_thread():
        with lstm.one_blas_thread():
            assert get() == 1
        assert get() == 1
        thread.start()
        assert entered.wait(timeout=60)
    assert get() == 1  # the other thread's pin is still open
    release.set()
    thread.join()
    assert get() == 3


def test_no_blas_setter_leaves_the_count_and_changes_no_bit(monkeypatch, blas_at_three_threads):
    """Where the probe finds no setter (another BLAS build), the pass still
    runs, at the caller's BLAS count, and gives the same bits."""
    get = blas_at_three_threads
    case = _full_size()
    pinned = _forward_and_gradients(*case)
    counts = []

    def activate(z, hid):
        counts.append(get())
        _activate(z, hid)

    monkeypatch.setattr(lstm, "_blas_thread_probe", lambda: (None, None))
    monkeypatch.setattr(lstm, "_activate", activate)
    unpinned = _forward_and_gradients(*case)
    assert set(counts) == {3}
    for got, ref in zip(unpinned, pinned):
        assert np.array_equal(got, ref)


def test_worker_error_reaches_the_caller_and_the_thread_is_joined(monkeypatch):
    caller = threading.get_ident()

    def on_worker_raise(fn):
        def wrapped(*args):
            if threading.get_ident() != caller:
                raise FloatingPointError("worker direction failed")
            return fn(*args)
        return wrapped

    lengths = np.array([6, 2, 4])
    x, d_out, fwd, bwd = _setup(3, 6, 4, 2, lengths, 9)
    cache = bilstm_forward(x, lengths, fwd, bwd)
    threads = threading.active_count()
    monkeypatch.setattr(lstm, "_activate", on_worker_raise(_activate))
    with pytest.raises(FloatingPointError, match="worker direction failed"):
        bilstm_forward(x, lengths, fwd, bwd)
    assert threading.active_count() == threads
    # backward runs no _activate; its worker fails in the recurrent product
    monkeypatch.setattr(lstm, "_recurrent", lambda w, n: on_worker_raise(_recurrent(w, n)))
    with pytest.raises(FloatingPointError, match="worker direction failed"):
        bilstm_backward(d_out, cache, fwd, bwd)
    assert threading.active_count() == threads


def test_both_directions_see_the_callers_error_state(monkeypatch):
    seen = []

    def recording(z, hid):
        seen.append((threading.get_ident(), np.geterr()["over"]))
        _activate(z, hid)

    x, _, fwd, bwd = _setup(2, 5, 3, 2, np.array([5, 3]), 1)
    monkeypatch.setattr(lstm, "_activate", recording)
    with np.errstate(over="ignore"):
        bilstm_forward(x, [5, 3], fwd, bwd)
    assert len({ident for ident, _ in seen}) == 2
    assert {over for _, over in seen} == {"ignore"}
