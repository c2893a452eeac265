"""Bidirectional LSTM over packed sequences, with exact reverse-mode gradients.

Callers pass a zero-padded batch x of shape (B, T, D) and the number of
valid steps in each row. `bilstm_forward` packs the valid positions once
(`pack_plan`): rows are ordered longest-first by a stable sort and laid
out time-major, so step t occupies packed rows offsets[t] : offsets[t+1]
and holds the n_t sequences longer than t, longest first. A sequence
still running at step t was running at step t-1 in the same slot, so
each step's h_{t-1} and c_{t-1} are the first n_t rows of the previous
step's slice. No padded position is computed, cached or differentiated.

The backward direction reads each sequence from its last valid step
back: its packed row for (sequence, step s) holds input step
lengths - 1 - s. So both directions share one layout and the reversal is
a permutation of packed rows (`PackPlan.rev`, its own inverse). Gates
(2, N, 4H), cell states and outputs (2, N, H) are stacked per direction,
N being the number of valid positions. A step is one `np.matmul` with
the direction's recurrent weights, laid out once per call (`_recurrent`),
and one elementwise pass; the sigmoid gates use 0.5 * (1 + tanh(x / 2)).

The two directions share nothing from the input projection to the
output, so each direction runs as one function on a thread of its own:
its input projection and bias before its time loop, or its d_wx, d_wh,
d_b and term of d_x after it (the caller adds the two d_x terms).
Direction 0 runs on a thread-pool worker and direction 1 on the calling
thread, joined before the pass goes on (`_each_direction`; Appleyard et
al. 2016, arXiv:1604.01946). numpy releases the interpreter lock inside
its calls, so the directions overlap on a second core. Meanwhile numpy's
OpenBLAS runs one thread, set there and the caller's count restored
after (`one_blas_thread`), so two GEMMs at once take one core each:
on a 2-vCPU host whose OpenBLAS defaults to 2 threads, 6 epochs of the
acceptance tests' training fell from 2.52-2.72 s to 1.86-1.93 s. The
count is process-wide: while any pass runs, every thread's BLAS calls
run on one thread. Where no OpenBLAS setter is found (another BLAS
build), the placement is the same, and a BLAS that runs more than one
thread oversubscribes the cores.

A direction gathers its operands (x and h_{t-1} in its row order) inside
its GEMM function and frees its loop scratch before it, so no thread
holds both directions' gathers for the whole pass. The caller allocates
the arrays that the loops fill and that the GEMMs write (d_wx, d_wh and
the d_x terms), so that the worker allocates little in its own malloc
arena: allocating the backward's outputs on the worker raised peak RSS
over `mixed` training by another 2.6 %. Every product and elementwise
operation is the one a single thread would run, on the same operands, at
one BLAS thread whatever the caller's count, so the result depends
neither on the split nor on that count: it is bit-identical to running
the directions one after the other.

`bilstm_backward` first turns the cached gates into each gate's local
derivative coefficient over all packed rows at once, so a step only
multiplies its rows of those coefficients by its dc or dh. d_wx, d_wh
and d_b are single GEMMs over packed rows. The input gradient is
computed only where the caller reads it: at every valid step, or, given
`dx_tail`, at the last few steps of each sequence. The input gradient is
scattered back to a padded (B, T, D) array that is zero everywhere else.

The outputs stay packed in the cache that `bilstm_forward` returns, and a
caller reads what it uses: `padded_output` scatters them to a zero-padded
(B, T, 2H) array, and `output_sums` adds them over each sequence's valid
steps in float64, bit for bit the sum over the padded array's time axis,
without building it.

The forward pass computes in x's dtype: gates, cell states and outputs
are allocated in it, and `_recurrent` lays the recurrent weights out in
theirs, so float32 inputs and weights run float32 end to end. The
backward pass computes in the cache's dtype: its gate coefficients,
carries and input gradient are allocated in it, so a float32 forward
(scoring and training) is differentiated in float32 and a float64 one
(the gradient checks) in float64.

Gate order in the stacked weight matrices is input, forget, cell, output.
"""

import contextlib
import contextvars
import ctypes
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class PackPlan:
    rows: np.ndarray       # (N,) batch row of each packed row
    steps: np.ndarray      # (N,) time step of each packed row
    offsets: np.ndarray    # (T+1,) step t occupies packed rows offsets[t] : offsets[t+1]
    rev: np.ndarray        # (N,) packed row of the same sequence at the mirrored step
    order: np.ndarray      # (B,) batch rows longest first: slot s of every step is order[s]


def pack_plan(lengths) -> PackPlan:
    """Time-major packing of sequences with the given lengths, longest first."""
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    sorted_lens = lengths[order]
    active = np.arange(sorted_lens.max(initial=0))[:, None] < sorted_lens[None, :]
    steps, slots = np.nonzero(active)  # row-major: time-major, slots 0..n_t-1 per step
    offsets = np.concatenate([[0], np.cumsum(active.sum(axis=1))])
    rev = offsets[sorted_lens[slots] - 1 - steps] + slots
    return PackPlan(order[slots], steps, offsets, rev, order)


@dataclass
class BiLSTMCache:
    plan: PackPlan
    lengths: np.ndarray    # (B,) valid steps of each batch row
    x: np.ndarray          # (N, D) packed input, forward-direction order
    gates: np.ndarray      # (2, N, 4H) post-activation [i, f, g, o] per direction
    c: np.ndarray          # (2, N, H) cell state after each step
    hs: np.ndarray         # (2, N, H) output after each step


def _activate(z, hid):
    """Gate activations, in place, of pre-activations z: (..., 4H) ordered
    [i, f, g, o]: tanh on g, sigmoid(x) = 0.5 * (1 + tanh(x / 2)) on i, f, o."""
    sig = (z[..., : 2 * hid], z[..., 3 * hid :])
    for s in sig:
        s *= 0.5
    np.tanh(z, out=z)
    for s in sig:
        s *= 0.5
        s += 0.5


def _recurrent(w, n_rows):
    """a -> a @ w for a: (n <= n_rows, K), given (K, N) weights w laid out
    once as (N / b, K, b) blocks. The product is written into one buffer
    that every call reuses, and the (n, N) result is a view of it, valid
    until the next call.

    A GEMM call repacks the whole weight matrix, which dominates a step of
    a few rows. OpenBLAS runs products of at most 1e6 multiply-adds through
    a small-matrix kernel without packing, so b is 32 or 16 if an
    (n_rows, K) @ (K, b) product stays within that bound, else N."""
    k, n = w.shape
    b = next((b for b in (32, 16) if n % b == 0 and n_rows * k * b <= 1e6), n)
    blocks = np.ascontiguousarray(w.reshape(k, n // b, b).transpose(1, 0, 2))
    buf = np.empty((n_rows, n // b, b), dtype=blocks.dtype)

    def product(a):
        out = buf[: len(a)]
        np.matmul(a, blocks, out=out.transpose(1, 0, 2))
        return out.reshape(len(a), n)

    return product


@functools.cache
def _blas_thread_probe():
    """The (get, set) num-threads functions of the OpenBLAS that numpy
    loaded, or (None, None) where none is found (another BLAS, or another
    numpy layout)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, set_ = (getattr(handle, name.format(op), None) for op in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None, None


_pin_lock = threading.Lock()
_pin_depth = 0  # open `one_blas_thread` blocks
_saved_count = None  # the count the first of them found


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS at one thread inside the block; nothing where
    `_blas_thread_probe` finds no setter. The count is process-wide, so
    blocks may nest or overlap on several threads: it stays 1 until the
    last one exits, an error included, which restores the count found by
    the first."""
    global _pin_depth, _saved_count
    get, set_ = _blas_thread_probe()
    if set_ is None:
        yield
        return
    with _pin_lock:
        if not _pin_depth:
            _saved_count = get()
        _pin_depth += 1
        set_(1)
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if not _pin_depth:
                set_(_saved_count)


def _each_direction(run):
    """run(d) for both directions d, each on a thread of its own: direction
    0 on a thread-pool worker and direction 1 on the calling thread, with
    numpy's BLAS at one thread (`one_blas_thread`).

    The worker runs in a copy of the caller's context, so numpy's error
    state (`np.errstate`) holds in both directions. It is joined before
    this returns or raises; an error raised in it is raised here, unless
    direction 1 raised too, whose error then wins."""
    with one_blas_thread(), ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(contextvars.copy_context().run, run, 0)
        run(1)
        worker.result()


def _prev_rows(offsets):
    """(slice of rows at step t, slice of their h_{t-1} and c_{t-1} rows) per step."""
    return [(slice(offsets[t], offsets[t + 1]),
             slice(offsets[t - 1], offsets[t - 1] + offsets[t + 1] - offsets[t]) if t else None)
            for t in range(len(offsets) - 1)]


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
    holds lengths[b] valid steps. Returns the backward cache, which holds
    the outputs packed: `padded_output` and `output_sums` read them."""
    lengths = np.asarray(lengths)
    plan = pack_plan(lengths)
    x_p = x[plan.rows, plan.steps]
    params = (fwd_params, bwd_params)
    hid = fwd_params[1].shape[1]
    gates = np.empty((2, len(x_p), 4 * hid), dtype=x.dtype)
    cs = np.empty((2, len(x_p), hid), dtype=x.dtype)
    hs = np.empty_like(cs)
    recurrent = [_recurrent(p[1].T, len(lengths)) for p in params]
    step_rows = _prev_rows(plan.offsets)

    def run(d):
        # the backward direction's input, gathered only while its GEMM runs
        np.matmul(x_p[plan.rev] if d else x_p, params[d][0].T, out=gates[d])
        gates[d] += params[d][2]
        for now, prev in step_rows:
            z = gates[d, now]
            if prev:
                z += recurrent[d](hs[d, prev])
            _activate(z, hid)
            c = cs[d, now]
            np.multiply(z[:, :hid], z[:, 2 * hid : 3 * hid], out=c)
            if prev:
                c += z[:, hid : 2 * hid] * cs[d, prev]
            h = hs[d, now]
            np.tanh(c, out=h)
            h *= z[:, 3 * hid :]

    _each_direction(run)
    return BiLSTMCache(plan, lengths, x_p, gates, cs, hs)


def padded_output(cache, steps):
    """The (B, steps, 2H) output of `bilstm_forward`, forward features
    first and zero at padded positions; steps >= the longest length."""
    plan, hid = cache.plan, cache.hs.shape[2]
    out = np.zeros((len(cache.lengths), steps, 2 * hid), dtype=cache.hs.dtype)
    out[plan.rows, plan.steps, :hid] = cache.hs[0]
    out[plan.rows, plan.steps, hid:] = cache.hs[1, plan.rev]
    return out


def output_sums(cache):
    """(B, 2H) float64 sum of each sequence's outputs over its valid steps.

    The sums start at zero and add one step at a time in time order, which
    is the order of numpy's `padded_output(cache, T).sum(axis=1,
    dtype=np.float64)`; its padded zeros change no sum, so the two are the
    same bits. Step t adds the first n_t rows, kept longest first as
    packed, and the sums are put back in batch order at the end."""
    plan, hid = cache.plan, cache.hs.shape[2]
    sums = np.zeros((len(cache.lengths), 2 * hid))
    for now, _ in _prev_rows(plan.offsets):
        n = now.stop - now.start
        sums[:n, :hid] += cache.hs[0, now]
        sums[:n, hid:] += cache.hs[1, plan.rev[now]]
    out = np.empty_like(sums)
    out[plan.order] = sums
    return out


def bilstm_backward(d_out, cache, fwd_params, bwd_params, *, dx_tail=None):
    """Gradients for bilstm_forward: (d_x padded like x, forward-direction
    (d_wx, d_wh, d_b), backward-direction (d_wx, d_wh, d_b)). Upstream
    gradients at padded positions of d_out are ignored.

    d_x holds the input gradient at every valid step, or, given dx_tail
    (B,), only at the last dx_tail[b] valid steps of row b; it is zero
    everywhere else."""
    plan = cache.plan
    n_rows, hid = cache.c.shape[1:]
    dtype = cache.gates.dtype
    first = plan.offsets[1] if len(plan.offsets) > 1 else 0  # step 0 rows: h, c_{t-1} = 0
    dz_all = np.empty((2, n_rows, 4 * hid), dtype=dtype)
    coef_c = [np.empty((n_rows, hid), dtype=dtype) for _ in range(2)]
    params = (fwd_params, bwd_params)
    recurrent = [_recurrent(p[1], len(cache.lengths)) for p in params]
    # Upstream gradient of (direction, packed row): the backward direction's
    # row r sits at input position (rows, steps)[rev[r]].
    at = ((plan.rows, plan.steps, slice(None, hid)),
          (plan.rows[plan.rev], plan.steps[plan.rev], slice(hid, None)))
    step_rows = _prev_rows(plan.offsets)
    # h_{t-1} of every later row: packed row r at step t follows row r - n_{t-1}
    h_rows = np.arange(first, n_rows) - np.diff(plan.offsets)[plan.steps[first:] - 1]
    sel = np.arange(n_rows)
    if dx_tail is not None:
        sel = np.flatnonzero(plan.steps >= (cache.lengths - np.asarray(dx_tail))[plan.rows])

    # d_wx, d_wh and the direction's term of d_x, allocated here and not on
    # the worker: each direction's d_b is its only new array that outlives it.
    d_in = cache.x.shape[1]
    outs = [(np.empty((4 * hid, d_in), dtype=dtype), np.empty((4 * hid, hid), dtype=dtype),
             np.empty((len(sel), d_in), dtype=dtype)) for _ in range(2)]
    d_b = [None, None]

    def run(d):
        i, f, g, o = (cache.gates[d].reshape(n_rows, 4, hid)[:, k] for k in range(4))
        # dz = coefficient * dc for i, f, g and * dh for o (f still lacking its
        # factor c_{t-1}); dc = coef_c * dh plus the carry from step t + 1.
        dz = dz_all[d].reshape(n_rows, 4, hid)
        for k, s in ((0, i), (1, f)):
            np.subtract(1.0, s, out=dz[:, k])
            dz[:, k] *= s
        dz[:, 0] *= g
        dz[:first, 1] = 0.0
        np.square(g, out=dz[:, 2])
        np.subtract(1.0, dz[:, 2], out=dz[:, 2])
        dz[:, 2] *= i
        np.subtract(1.0, o, out=dz[:, 3])
        dz[:, 3] *= cache.hs[d]  # h = o * tanh(c)
        coef = coef_c[d]
        np.tanh(cache.c[d], out=coef)
        np.square(coef, out=coef)
        np.subtract(1.0, coef, out=coef)
        coef *= o

        rows, steps, cols = at[d]
        # carries into the sequences still running
        dh_next = dc_next = np.zeros((0, hid), dtype=dtype)
        for now, prev in reversed(step_rows):
            dh = d_out[rows[now], steps[now], cols].astype(dtype, copy=False)
            dh[: len(dh_next)] += dh_next
            dz[now, 3] *= dh
            dc = coef[now]
            dc *= dh
            dc[: len(dc_next)] += dc_next
            dz[now, :3] *= dc[:, None]
            if prev:
                dz[now, 1] *= cache.c[d, prev]
                dc_next = dc * f[now]
                dh_next = recurrent[d](dz_all[d, now])
        # the loop's scratch, freed before the GEMMs; the backward direction's
        # gathers live only while their GEMM runs
        coef_c[d] = recurrent[d] = coef = dc = dh = dc_next = dh_next = None
        dz = dz_all[d]
        d_wx, d_wh, dx_term = outs[d]
        np.matmul(dz.T, cache.x[plan.rev] if d else cache.x, out=d_wx)
        np.matmul(dz[first:].T, cache.hs[d, h_rows], out=d_wh)
        d_b[d] = dz.sum(axis=0)
        np.matmul(dz[plan.rev[sel] if d else sel], params[d][0], out=dx_term)

    _each_direction(run)

    d_x = np.zeros(d_out.shape[:2] + (d_in,), dtype=dtype)
    d_x[plan.rows[sel], plan.steps[sel]] = outs[0][2] + outs[1][2]
    grads = [(d_wx, d_wh, b) for (d_wx, d_wh, _), b in zip(outs, d_b)]
    return d_x, *grads
