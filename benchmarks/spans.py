"""Span tracer that times calls into the library from outside it.

`Tracer.wrap` replaces a function or method on the object where callers
look it up with a wrapper that records a span (name, start, end, parent)
and, optionally, computed counts derived from the call's arguments and
result. Spans stay in memory until `write_jsonl`. `Tracer.restore` puts
every original back.

A name bound with ``from module import name`` is a separate reference in
the importing module, so such a function must be wrapped in every module
that looks it up (for example ``pipeline.dtw_align`` as well as
``aligner.dtw_align``).
"""

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10
PERCENTILES = (50, 90, 99, 99.9)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float  # seconds since the tracer was created
    end: float
    phase: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = ""
        self._origin = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches = []
        # span name -> last error raised by its name or count function
        self.count_errors: dict[str, str] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None]:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, parent, start, end) -> None:
        self._stack().pop()
        self.spans.append(Span(sid, name, parent, start - self._origin,
                               end - self._origin, self.phase))

    def wrap(self, owner, attr: str, name, count=None) -> bool:
        """Replace owner.attr with a traced wrapper.

        `name` is a span name or a function of the call's positional
        arguments returning one. `count(counts, phase, args, result)` adds
        computed counts after a successful call. Returns False when owner
        has no such attribute, so a layer that a later version of the
        library removes is skipped instead of failing the run. Likewise a
        name or count function that no longer fits the library's call
        signature is recorded in `count_errors` instead of raising.
        """
        orig = vars(owner).get(attr)
        if orig is None:
            return False
        is_classmethod = isinstance(orig, classmethod)
        func = orig.__func__ if is_classmethod else orig
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name = f"{getattr(owner, '__name__', owner)}.{attr}"
            try:
                span_name = name(args) if callable(name) else name
            except Exception as exc:  # noqa: BLE001 - see docstring
                tracer.count_errors[span_name] = repr(exc)
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(sid, span_name, parent, start, time.perf_counter())
            if count is not None:
                try:
                    count(tracer.counts, tracer.phase, args, result)
                except Exception as exc:  # noqa: BLE001 - see docstring
                    tracer.count_errors[span_name] = repr(exc)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, orig))
        return True

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


@dataclass
class LayerStats:
    calls: int
    total_s: float
    self_s: float
    durations_s: list[float]

    def percentiles_ms(self) -> dict[str, float]:
        """Per-call ms at each percentile with enough samples beyond it:
        the median and the highest such percentile."""
        n = len(self.durations_s)
        usable = [q for q in PERCENTILES if n * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES]
        if not usable:
            return {}
        chosen = sorted({usable[0], usable[-1]})
        values = np.percentile(np.array(self.durations_s) * 1e3, chosen)
        return {f"ms_p{q:g}": float(v) for q, v in zip(chosen, values)}


def layer_stats(spans: list[Span], phases) -> dict[str, LayerStats]:
    """Calls, total and self seconds per span name, over spans recorded in
    the given phases. Self time is a span's duration minus the durations
    of its direct children; children of one span never overlap because
    each thread keeps its own stack."""
    child_s: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_s[sp.parent] += sp.end - sp.start
    out: dict[str, LayerStats] = {}
    for sp in spans:
        if sp.phase not in phases:
            continue
        dur = sp.end - sp.start
        st = out.setdefault(sp.name, LayerStats(0, 0.0, 0.0, []))
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_s[sp.id]
        st.durations_s.append(dur)
    return out
