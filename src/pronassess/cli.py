"""Batch command-line front-end.

Subcommands: extract, align, fit-durations, gopd, assemble, train, score,
eval, synth. Data goes to stdout, diagnostics to stderr. Exit codes:

  0  success
  1  unexpected failure
  2  missing input file, or a file where a directory is expected
  3  malformed or unsupported input (format, schema, range, inventory)
  4  infeasible alignment (more phones than frames)
  5  empty input set
"""

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import audio_io
from .aligner import dtw_align, spans_to_durations
from .durations import fit_durations, gopd_vector
from .errors import InfeasibleAlignmentError, PronAssessError, ValidationError
from .functionals import compute_functionals
from .lld import FrameFeatures, extract_frame_features
from .metrics import pcc, predict_score
from .model import ScoringModel
from .pipeline import (
    compose_fusion,
    frame_features,
    load_signal,
    prepare_dataset,
    prepare_utterance,
)
from .synth import SyntheticSpec, generate_corpus
from .train import history_csv, parse_train_config, train


def _cmd_extract(args) -> int:
    buf = audio_io.load_wav(args.wav)
    ff = extract_frame_features(buf)
    audio_io.write_matrix(args.out_frames, ff.to_matrix())
    audio_io.write_matrix(args.out_functionals, compute_functionals(ff).to_vector()[None, :])
    return 0


def _cmd_align(args) -> int:
    posteriors = audio_io.read_matrix(args.posteriors)
    phones = args.phones.split()
    alignment, score = dtw_align(posteriors, phones)
    audio_io.write_alignment(args.out, alignment)
    print(f"{score!r}")
    return 0


def _cmd_fit_durations(args) -> int:
    root = Path(args.alignments)
    if not root.is_dir():
        print(f"error: no such directory: {root}", file=sys.stderr)
        return 2
    files = sorted(root.glob(args.pattern))
    if not files:
        print(f"error: no alignment files matching {args.pattern!r} in {args.alignments}",
              file=sys.stderr)
        return 5
    samples = []
    for f in files:
        samples.extend(spans_to_durations(audio_io.read_alignment(f)))
    audio_io.write_duration_model(args.out, fit_durations(samples))
    return 0


def _cmd_gopd(args) -> int:
    alignment = audio_io.read_alignment(args.alignment)
    model = audio_io.read_duration_model(args.model)
    values = gopd_vector(alignment, model)
    if args.out:
        audio_io.write_matrix(args.out, values[:, None])
    for (phone, dur), v in zip(spans_to_durations(alignment), values):
        print(f"{phone}\t{dur!r}\t{float(v)!r}")
    return 0


def _cmd_assemble(args) -> int:
    if (args.wav is None) == (args.frames is None):
        print("error: need exactly one of --wav or --frames", file=sys.stderr)
        return 3
    if args.frames is not None:
        ff = FrameFeatures.from_matrix(audio_io.read_matrix(args.frames))
    else:
        ff = extract_frame_features(audio_io.load_wav(args.wav))
    alignment = audio_io.read_alignment(args.alignment)
    model = audio_io.read_duration_model(args.duration_model)
    fusion = compose_fusion(ff, alignment, model)
    audio_io.write_matrix(args.out, fusion.numeric_block())
    sidecar = Path(str(args.out) + ".phones")
    rows = zip(alignment.phones, fusion.phone_indices)
    sidecar.write_text(audio_io.table_text("phone\tindex", rows, "\t"), encoding="utf-8")
    return 0


def _cmd_train(args) -> int:
    entries = audio_io.read_manifest(args.manifest)
    if not entries:
        print("error: manifest is empty", file=sys.stderr)
        return 5
    config = parse_train_config(args.config)
    duration_model = audio_io.read_duration_model(args.duration_model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the run, not after
    dataset = prepare_dataset(entries, duration_model)
    result = train(dataset, config=config)
    result.model.save(out / "checkpoint.ckpt")
    (out / "history.csv").write_text(history_csv(result.history))
    last = result.history[-1][0]
    print(f"epochs={last} best_epoch={result.best_epoch} "
          f"best_val_loss={result.history[result.best_epoch - 1][2]!r}")
    return 0


# Memory of a forward pass in `score`. A fusion sequence has frames +
# phones + 1 valid rows, and `forward_batch` pads a chunk to utterances
# times the longest. A full-size float32 pass peaks at about VALID_ROW_KIB
# per valid row (the fusion LSTM's packed input, gates, cell states and
# outputs, and the gather of its backward direction's input: ~32 KiB) plus
# PADDED_ROW_KIB per padded row (the padded fusion input, 4 KiB, and the
# padded phone-cue queries and attention). A tracemalloc fit over 24
# chunks gave 33.2 and 5.0 KiB plus 10.3 MiB fixed; the constants round it
# up so that the estimate bounds every chunk traced near the budget. A
# chunk's estimate stays within that of SCORE_ROWS all-valid rows, 172 MiB.
# Valid rows cost the most per KiB of estimate, so the worst pass is an
# all-valid one: traced at 155-166 MiB, against 171 MiB for the worst pass
# when chunks were sized by padded rows alone and the fusion encoder's
# padded output was built. That is below the 222 MiB traced peak of a
# full-size float32 training step on 16 mixed-length utterances. An entry's
# rows come from its WAV's frame count and its phone count, so a chunk's
# membership is known before it is featurized; each chunk is prepared just
# before its pass, so memory stays bounded by one chunk whatever the
# manifest size.
VALID_ROW_KIB = 37
PADDED_ROW_KIB = 6
SCORE_ROWS = 4096


def _pass_kib(rows) -> int:
    """Estimated peak KiB of a full-size float32 forward pass over fusion
    sequences of these lengths."""
    return VALID_ROW_KIB * sum(rows) + PADDED_ROW_KIB * len(rows) * max(rows)


def _prepare(group, duration_model):
    """prepare_utterance of each (entry, buffer) pair, in order, with one
    front-end pass over their signals."""
    ffs = frame_features([buf for _, buf in group])
    return [prepare_utterance(entry, duration_model, ff) for (entry, _), ff in zip(group, ffs)]


def _chunks(entries, duration_model):
    """Prepared entries in order, grouped so that each group's estimated
    pass memory (`_pass_kib`) stays within that of SCORE_ROWS all-valid
    rows; an entry over it alone is its own group.

    Each chunk is featurized in one front-end pass together with the entry
    that closes it, the next chunk's first. So every entry is prepared, and
    its error raised, at the same point relative to the forward passes as
    when entries were prepared one at a time."""
    chunk, group, lengths = [], [], []  # lengths: fusion rows of chunk + group
    for entry in entries:
        try:
            buf, frames = load_signal(entry)
        except (OSError, PronAssessError):
            _prepare(group, duration_model)  # an earlier entry's error comes first
            raise
        rows = frames + len(entry.phones) + 1  # len(ct) + len(fusion) + 1 once prepared
        group.append((entry, buf))
        if lengths and _pass_kib(lengths + [rows]) > _pass_kib([SCORE_ROWS]):
            *done, first = _prepare(group, duration_model)
            yield chunk + done
            chunk, group, lengths = [first], [], [rows]
        else:
            lengths.append(rows)
    chunk += _prepare(group, duration_model)
    if chunk:
        yield chunk


def _score_entries(get_model, entries, duration_model) -> list[tuple[float, float]]:
    """(fluency, prosody) of each entry, in order: one `forward_batch` per
    chunk, of the model that `get_model()` returns. A forward that overflows
    gives a non-finite distribution, which `predict_score` rejects, so
    numpy's overflow warnings are not shown."""
    scores = []
    for batch in _chunks(entries, duration_model):
        with np.errstate(over="ignore", invalid="ignore"):
            dists = get_model().forward_batch(batch)[1]
        scores.extend((predict_score(f), predict_score(p)) for f, p in dists)
    return scores


def _cmd_score(args) -> int:
    single = {"--wav": args.wav, "--posteriors": args.posteriors, "--ct": args.ct,
              "--phones": args.phones}
    if args.manifest is not None:
        extra = [flag for flag, value in single.items() if value is not None]
        if extra:
            print(f"error: {' '.join(extra)} cannot be combined with --manifest", file=sys.stderr)
            return 3
    elif args.out is not None:
        print("error: --out needs --manifest; one utterance's scores go to stdout",
              file=sys.stderr)
        return 3
    elif not all(single.values()):
        print("error: need either --manifest or all of --wav --posteriors --ct --phones",
              file=sys.stderr)
        return 3
    # The checkpoint loads on a worker thread while this one reads the
    # duration model and the manifest and featurizes the first chunk. It is
    # joined before the first forward pass, and on every early return or
    # error, so a checkpoint error still wins over any later one.
    with ThreadPoolExecutor(max_workers=1) as pool:
        loading = pool.submit(ScoringModel.load, args.checkpoint)
        try:
            return _score(args, loading.result)
        except BaseException:
            loading.result()
            raise


def _score(args, get_model) -> int:
    """`score` once its mode is checked; `get_model()` returns the checkpoint."""
    duration_model = audio_io.read_duration_model(args.duration_model)
    if args.manifest is not None:
        entries = audio_io.read_manifest(args.manifest)
        if not entries:
            get_model()
            print("error: manifest is empty", file=sys.stderr)
            return 5
        scores = _score_entries(get_model, entries, duration_model)
        text = audio_io.score_text((e.id, f, p) for e, (f, p) in zip(entries, scores))
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text, end="")
        return 0
    entry = audio_io.ManifestEntry(
        id="cli", wav_path=Path(args.wav), ct_path=Path(args.ct),
        posterior_path=Path(args.posteriors), phones=args.phones.split(),
        fluency=0, prosody=0,
    )
    [(f, p)] = _score_entries(get_model, [entry], duration_model)
    print(f"{f!r} {p!r}")
    return 0


def _cmd_eval(args) -> int:
    gold = audio_io.read_scores(args.gold)
    if not gold:
        print(f"error: gold file {args.gold} has no scores", file=sys.stderr)
        return 5
    ids = sorted(gold)
    ref_f = [gold[i][0] for i in ids]
    ref_p = [gold[i][1] for i in ids]
    all_f, all_p = [], []
    for k, pred_path in enumerate(args.pred, start=1):
        pred = audio_io.read_scores(pred_path)
        missing = set(ids) - set(pred)
        if missing:
            raise ValidationError(
                f"{pred_path}: missing predictions for {sorted(missing)[:3]}..."
            )
        unknown = set(pred) - set(ids)
        if unknown:
            raise ValidationError(f"{pred_path}: ids not in gold: {sorted(unknown)[:3]}...")
        r_f = pcc([pred[i][0] for i in ids], ref_f)
        r_p = pcc([pred[i][1] for i in ids], ref_p)
        all_f.append(r_f)
        all_p.append(r_p)
        print(f"run{k} fluency_pcc={r_f:.6f} prosody_pcc={r_p:.6f}")
    if len(args.pred) > 1:
        print(f"average fluency_pcc={np.mean(all_f):.6f} prosody_pcc={np.mean(all_p):.6f}")
    return 0


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        n_utterances=args.n, seed=args.seed,
        min_phones=args.min_phones, max_phones=args.max_phones,
    )
    manifest = generate_corpus(spec, args.out, jobs=args.jobs)
    print(str(manifest))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pronassess",
        description="Pronunciation-assessment pipeline: features, alignment, "
                    "duration scoring, training and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="frame features + functionals from a wav")
    p.add_argument("--wav", required=True)
    p.add_argument("--out-frames", required=True)
    p.add_argument("--out-functionals", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("align", help="DTW-align phones to a posterior matrix")
    p.add_argument("--posteriors", required=True)
    p.add_argument("--phones", required=True, help="space-separated canonical phones")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("fit-durations", help="fit a duration model from alignments")
    p.add_argument("--alignments", required=True, help="directory of alignment TSVs")
    p.add_argument("--pattern", default="*.tsv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_durations)

    p = sub.add_parser("gopd", help="score aligned durations under a duration model")
    p.add_argument("--alignment", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gopd)

    p = sub.add_parser("assemble", help="build the per-phoneme fusion input")
    p.add_argument("--wav")
    p.add_argument("--frames", help="precomputed frame-feature MTX1 (alternative to --wav)")
    p.add_argument("--alignment", required=True)
    p.add_argument("--duration-model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("train", help="train the scoring network")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--duration-model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score utterances with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--duration-model", required=True)
    p.add_argument("--manifest")
    p.add_argument("--out", help="write the CSV here instead of stdout (needs --manifest)")
    p.add_argument("--wav")
    p.add_argument("--posteriors")
    p.add_argument("--ct")
    p.add_argument("--phones")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="PCC of predictions against gold scores")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", action="append", required=True,
                   help="prediction CSV; repeat for multi-run averaging")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--min-phones", type=int, default=2)
    p.add_argument("--max-phones", type=int, default=4)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError) as exc:
        # FileExistsError: `mkdir(exist_ok=True)` on a path that is a file
        reason = {FileNotFoundError: "no such file",
                  IsADirectoryError: "is a directory, not a file"}.get(
                      type(exc), "a file where a directory is expected")
        print(f"error: {reason}: {exc.filename}", file=sys.stderr)
        return 2
    except InfeasibleAlignmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PronAssessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
