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
import warnings
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
from .pipeline import compose_fusion, prepare_dataset, prepared_chunks
from .pipeline import prepare_utterance  # noqa: F401 - benchmarks/layers.py wraps it
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


def _score_entries(get_model, entries, duration_model) -> list[tuple[float, float]]:
    """(fluency, prosody) of each entry, in order: one `forward_batch` per
    chunk of `prepared_chunks`, of the model that `get_model()` returns. A
    forward that overflows gives a non-finite distribution, which
    `predict_score` rejects, so numpy's overflow warnings are not shown."""
    scores = []
    for batch in prepared_chunks(entries, duration_model):
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


def _some_ids(ids) -> str:
    """'N ids [first three]' for a message, with '...' when ids are left out."""
    ids = sorted(ids)
    shown = [repr(i) for i in ids[:3]] + ["..."] * (len(ids) > 3)
    return f"{len(ids)} id{'s' * (len(ids) > 1)} [{', '.join(shown)}]"


def _pcc(run: str, head: str, predictions, references) -> float:
    """pcc, with its warning on a constant side as one `warning:` line;
    any other warning passes through."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        r = pcc(predictions, references)
    for w in caught:
        if issubclass(w.category, UserWarning):
            print(f"warning: {run}: {head} scores are constant; PCC reported as 0",
                  file=sys.stderr)
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return r


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
            raise ValidationError(f"{pred_path}: missing predictions for {_some_ids(missing)}")
        unknown = set(pred) - set(ids)
        if unknown:
            raise ValidationError(f"{pred_path}: {_some_ids(unknown)} not in gold")
        r_f = _pcc(f"run{k}", "fluency", [pred[i][0] for i in ids], ref_f)
        r_p = _pcc(f"run{k}", "prosody", [pred[i][1] for i in ids], ref_p)
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
