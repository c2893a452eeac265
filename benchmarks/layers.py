"""The library functions a traced run wraps, and the per-layer metrics
derived from their spans and computed counts.

Counts labelled "computed" come from array shapes and file sizes, never
from timers, so they repeat exactly for a fixed workload and seed.
"""

import dataclasses
import importlib
import os

import numpy as np

from spans import Tracer, layer_stats

MB = float(2**20)
# Phases whose spans feed the metrics; "check" spans (the benchmark's own
# correctness gate) do not.
MEASURED_PHASES = ("setup", "featurize", "train", "save", "score")


def _lib(name):
    # importlib, not attribute access: the package re-exports the function
    # `train` under the name of its module.
    return importlib.import_module(f"pronassess.{name}")


def _encoder(width: int) -> str:
    """The phone-cue encoder reads fusion_in_dim-wide rows (29), the fusion
    encoder feature_dim-wide rows (1024)."""
    return "phonecue" if width == _lib("model").ModelConfig().fusion_in_dim else "fusion"


def _lstm_forward_flop(bsz, steps, d_in, hidden) -> float:
    """GEMM flops of one direction's forward: the hoisted input product and
    the per-step recurrent product. The backward does twice this."""
    return 2.0 * bsz * steps * 4 * hidden * (d_in + hidden)


def _count_bilstm_forward(counts, phase, args, result):
    x, lengths, fwd_params = args[0], args[1], args[2]
    bsz, steps, d_in = x.shape
    counts["lstm.flop"] += 2 * _lstm_forward_flop(bsz, steps, d_in, fwd_params[1].shape[1])
    if phase == "train":
        counts["lstm.train_valid_steps"] += int(np.sum(lengths))
        counts["lstm.train_padded_steps"] += bsz * steps


def _count_bilstm_backward(counts, phase, args, result):
    d_out, fwd_params = args[0], args[2]
    bsz, steps, _ = d_out.shape
    w_x, w_h = fwd_params[0], fwd_params[1]
    counts["lstm.flop"] += 2 * 2 * _lstm_forward_flop(bsz, steps, w_x.shape[1], w_h.shape[1])


def _cache_bytes(obj, seen) -> int:
    """nbytes of every array the forward pass keeps for backward. Inputs
    (UtteranceFeatures) are referenced by the cache but not allocated by it."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, _lib("model").UtteranceFeatures):
        return 0
    if isinstance(obj, dict):
        return sum(_cache_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_cache_bytes(v, seen) for v in obj)
    if dataclasses.is_dataclass(obj):
        return sum(_cache_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    return 0


def _count_forward_batch(counts, phase, args, result):
    cache_mb = _cache_bytes(result[2], set()) / MB
    counts["model.cache_mb"] = max(counts["model.cache_mb"], cache_mb)


def _count_dtw(counts, phase, args, result):
    counts["aligner.dp_cells"] += np.asarray(args[0]).shape[0] * len(args[1])


def _count_read_matrix(counts, phase, args, result):
    counts["audio_io.read_matrix.bytes"] += 12 + 4 * result.size  # MTX1 header + f32 payload


def _count_frames(counts, phase, args, result):
    counts["lld.frames"] += result.num_frames


def _count_ckpt(counts, phase, args, result):
    counts["model.ckpt_mb"] = os.path.getsize(args[1]) / MB


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer where the library looks it up. Returns the
    (owner, attribute) pairs not found, which a later library version may
    have removed."""
    audio_io, aligner, lld, lstm = (_lib(m) for m in ("audio_io", "aligner", "lld", "lstm"))
    pipeline, model, train, cli = (_lib(m) for m in ("pipeline", "model", "train", "cli"))
    sm = model.ScoringModel
    plan = [
        (audio_io, "load_wav", "audio_io.load_wav", None),
        (audio_io, "read_matrix", "audio_io.read_matrix", _count_read_matrix),
        (audio_io, "read_manifest", "audio_io.read_manifest", None),
        (audio_io, "read_duration_model", "audio_io.read_duration_model", None),
        (lld, "compute_loudness", "lld.compute_loudness", None),
        (lld, "compute_alpha_ratio", "lld.compute_alpha_ratio", None),
        (lld, "estimate_f0", "lld.estimate_f0", None),
        (lld, "compute_jitter", "lld.compute_jitter", None),
        (pipeline, "extract_frame_features", "lld.extract_frame_features", _count_frames),
        (pipeline, "compute_functionals", "functionals.compute_functionals", None),
        (pipeline, "validate_posteriors", "aligner.validate_posteriors", None),
        (aligner, "validate_posteriors", "aligner.validate_posteriors", None),
        (pipeline, "dtw_align", "aligner.dtw_align", _count_dtw),
        (pipeline, "gopd_vector", "durations.gopd_vector", None),
        (pipeline, "pool_to_phonemes", "assembly.pool_to_phonemes", None),
        (pipeline, "build_fusion_input", "assembly.build_fusion_input", None),
        (pipeline, "prepare_utterance", "pipeline.prepare_utterance", None),
        (cli, "prepare_utterance", "pipeline.prepare_utterance", None),
        (cli, "predict_score", "metrics.predict_score", None),
        (model, "bilstm_forward", lambda a: f"lstm.{_encoder(a[0].shape[2])}.forward",
         _count_bilstm_forward),
        (model, "bilstm_backward", lambda a: f"lstm.{_encoder(a[2][0].shape[1])}.backward",
         _count_bilstm_backward),
        (lstm, "reverse_padded", "lstm.reverse_padded", None),
        (model, "cross_attention", "model.cross_attention", None),
        (sm, "__init__", "model.init", None),
        (sm, "forward_batch", "model.forward_batch", _count_forward_batch),
        (sm, "backward", "model.backward", None),
        (sm, "save", "model.save", _count_ckpt),
        (sm, "load", "model.load", None),
        (train.Adam, "step", "train.Adam.step", None),
        (train, "train", "train.train", None),
        (cli, "main", "cli.score", None),
    ]
    missing = []
    for owner, attr, name, count in plan:
        if not tracer.wrap(owner, attr, name, count):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return missing


# Metrics derived from shapes and file sizes alone.
COMPUTED = ("aligner.dp_cells", "audio_io.read_matrix.mb", "lstm.gflop",
            "lstm.pad_efficiency", "model.cache_mb", "model.ckpt_mb")

# Layers whose self time is reported as <name>.self_s.
SELF_TIME_LAYERS = (
    "audio_io.load_wav", "audio_io.read_matrix",
    "lld.compute_loudness", "lld.compute_alpha_ratio", "lld.estimate_f0",
    "lld.compute_jitter", "lld.extract_frame_features",
    "functionals.compute_functionals", "aligner.validate_posteriors", "aligner.dtw_align",
    "durations.gopd_vector", "assembly.pool_to_phonemes", "assembly.build_fusion_input",
    "pipeline.prepare_utterance",
    "lstm.phonecue.forward", "lstm.phonecue.backward",
    "lstm.fusion.forward", "lstm.fusion.backward", "lstm.reverse_padded",
    "model.init", "model.cross_attention", "model.forward_batch", "model.backward",
    "train.Adam.step", "train.train", "cli.score",
)
_LLD = ("lld.compute_loudness", "lld.compute_alpha_ratio", "lld.estimate_f0",
        "lld.compute_jitter", "lld.extract_frame_features")
_ENCODERS = ("lstm.phonecue.forward", "lstm.phonecue.backward",
             "lstm.fusion.forward", "lstm.fusion.backward")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, n_scored: int, setups: int):
    """(metrics, units, stats): the per-layer metrics of one traced session
    with n_scored utterances scored and `setups` corpus generations."""
    stats = layer_stats(tracer.spans, MEASURED_PHASES)
    counts = tracer.counts

    def st(name, field):
        return getattr(stats[name], field) if name in stats else 0

    m, units = {}, {}

    def put(name, value, unit):
        m[name] = float(value)
        units[name] = unit

    for name in SELF_TIME_LAYERS:
        put(f"{name}.self_s", st(name, "self_s"), "s")
    put("lld.us_per_frame",
        _ratio(sum(st(n, "self_s") for n in _LLD) * 1e6, counts["lld.frames"]), "us")
    put("aligner.dp_cells", counts["aligner.dp_cells"], "count")
    put("aligner.ns_per_cell",
        _ratio(st("aligner.dtw_align", "self_s") * 1e9, counts["aligner.dp_cells"]), "ns")
    put("aligner.validate_posteriors.calls_per_utt",
        _ratio(st("aligner.validate_posteriors", "calls"),
               st("pipeline.prepare_utterance", "calls")), "count")
    put("audio_io.read_matrix.mb", counts["audio_io.read_matrix.bytes"] / MB, "MiB")
    if "pipeline.prepare_utterance" in stats:
        for key, value in stats["pipeline.prepare_utterance"].percentiles_ms().items():
            put(f"pipeline.prepare_utterance.{key}", value, "ms")
    gflop = counts["lstm.flop"] / 1e9
    put("lstm.gflop", gflop, "GFLOP")
    put("lstm.gflop_per_s", _ratio(gflop, sum(st(n, "total_s") for n in _ENCODERS)), "GFLOP/s")
    put("lstm.pad_efficiency",
        _ratio(counts["lstm.train_valid_steps"], counts["lstm.train_padded_steps"]), "ratio")
    put("model.cache_mb", counts["model.cache_mb"], "MiB")
    put("model.ckpt_mb", counts["model.ckpt_mb"], "MiB")
    for name in ("model.save", "model.load"):
        put(f"{name}.ms", _ratio(st(name, "total_s") * 1e3, st(name, "calls")), "ms")
    score_forwards = sum(1 for sp in tracer.spans
                         if sp.phase == "score" and sp.name == "model.forward_batch")
    put("cli.score.forward_calls_per_utt", _ratio(score_forwards, n_scored), "count")
    put("synth.generate_corpus.s", _ratio(st("synth.generate_corpus", "total_s"), setups), "s")
    return m, units, stats
