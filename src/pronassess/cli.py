"""Batch command-line front-end.

Subcommands: extract, align, fit-durations, gopd, assemble, train, score,
eval, synth. Data goes to stdout, diagnostics to stderr. Each command that
writes checks all its outputs in one call before any work: one it cannot
write, two that name one file, or one that is the same file as an input
(a file a manifest lists too; links included) is refused. Exit codes:

  0  success
  1  unexpected failure
  2  a path the OS refuses: missing, the wrong kind (a directory where a file
     is expected, or a file where a directory is), a name too long, a
     symlink loop, no permission
  3  malformed or unsupported input (format, schema, range, inventory)
  4  infeasible alignment (more phones than frames)
  5  empty input set
"""

import argparse
import contextlib
import errno
import os
import stat
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import audio_io
from .aligner import dtw_align, spans_to_durations, validate_posteriors
from .durations import fit_durations, gopd_vector
from .errors import (EmptyInputError, InfeasibleAlignmentError, PronAssessError, ValidationError,
                     named)
from .functionals import compute_functionals
from .lld import FrameFeatures, extract_frame_features
from .metrics import pcc, predict_score
from .model import ScoringModel
from .pipeline import compose_fusion, prepare_dataset, prepared_chunks
from .pipeline import prepare_utterance  # noqa: F401 - benchmarks/layers.py wraps it
from .synth import SyntheticSpec, generate_corpus
from .train import history_csv, parse_train_config, train

# Exit codes of the package's errors (see the table above); any other exits 3.
EXIT_CODES = {InfeasibleAlignmentError: 4, EmptyInputError: 5}


def _require_dir(path, name) -> os.stat_result:
    """The stat of directory `path`, else the OSError, naming `name`, that
    opening a file in it would raise (missing, a regular file, a loop)."""
    try:  # a trailing "/", so that a regular file fails too
        return os.stat(os.path.join(path, ""))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, name) from None


def _check_outputs(outputs, inputs) -> None:
    """Refuse two outputs that name one file, then an output that is the same
    file as an input (both exit 3), then the OSError that writing an output
    would raise (exit 2). Both are (flag, path) pairs, path None for a flag
    not given; an output not there yet is named by its directory and name."""
    named, refused = {}, []
    for flag, path in outputs:
        if path is None:
            continue
        try:
            try:
                st = os.stat(path)
                key = st.st_dev, st.st_ino
                if stat.S_ISDIR(st.st_mode):
                    refused.append(IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path))
            except FileNotFoundError:  # a new file
                st = _require_dir(os.path.dirname(path) or ".", path)
                key = st.st_dev, st.st_ino, os.path.basename(path)
        except OSError as exc:  # a missing or non-directory parent, a name too long, a loop
            refused.append(exc)
            continue
        if key in named:
            raise ValidationError(f"{named[key][0]} and {flag} name one file: {named[key][1]}")
        named[key] = flag, path
    # only an output that exists, keyed by its (device, inode), can be an input
    for in_flag, in_path in inputs if any(len(key) == 2 for key in named) else ():
        with contextlib.suppress(OSError, TypeError):  # not there, or None: no match
            st = os.stat(in_path)
            if (st.st_dev, st.st_ino) in named:
                flag, path = named[st.st_dev, st.st_ino]
                raise ValidationError(f"{flag} {path} would overwrite the input "
                                      f"{in_flag} {in_path}")
    if refused:
        raise refused[0]


def _entry_files(entries):
    """('<id> <field>', path) of each file that manifest `entries` name."""
    return ((f"{e.id} {field}", getattr(e, field))
            for e in entries for field in audio_io.MANIFEST_PATHS)


def _cmd_extract(args) -> None:
    _check_outputs([("--out-frames", args.out_frames), ("--out-functionals", args.out_functionals)],
                   [("--wav", args.wav)])
    ff = extract_frame_features(audio_io.load_wav(args.wav))
    audio_io.write_matrix(args.out_frames, ff.to_matrix())
    audio_io.write_matrix(args.out_functionals, compute_functionals(ff).to_vector()[None, :])


def _cmd_align(args) -> None:
    _check_outputs([("--out", args.out)], [("--posteriors", args.posteriors)])
    posteriors = audio_io.read_matrix(args.posteriors)
    validate_posteriors(posteriors)
    alignment, score = dtw_align(posteriors, args.phones.split())
    audio_io.write_alignment(args.out, alignment)
    print(f"{score!r}")


def _cmd_fit_durations(args) -> None:
    _require_dir(args.alignments, args.alignments)
    try:
        files = sorted(Path(args.alignments).glob(args.pattern))
    except (ValueError, NotImplementedError) as exc:  # '' or an absolute pattern
        raise ValidationError(f"bad --pattern {args.pattern!r}: {exc}") from None
    if not files:
        raise EmptyInputError(f"no alignment files matching {args.pattern!r} in {args.alignments}")
    _check_outputs([("--out", args.out)], [("--alignments", f) for f in files])
    samples = [s for f in files for s in spans_to_durations(audio_io.read_alignment(f))]
    audio_io.write_duration_model(args.out, fit_durations(samples))


def _cmd_gopd(args) -> None:
    _check_outputs([("--out", args.out)],
                   [("--alignment", args.alignment), ("--model", args.model)])
    alignment = audio_io.read_alignment(args.alignment)
    model = audio_io.read_duration_model(args.model)
    values = gopd_vector(alignment, model)
    if args.out:
        audio_io.write_matrix(args.out, values[:, None])
    for (phone, dur), v in zip(spans_to_durations(alignment), values):
        print(f"{phone}\t{dur!r}\t{float(v)!r}")


def _cmd_assemble(args) -> None:
    if (args.wav is None) == (args.frames is None):
        raise ValidationError("need exactly one of --wav or --frames")
    sidecar = f"{args.out}.phones"
    _check_outputs([("--out", args.out), ("--out", sidecar)],
                   [("--wav", args.wav), ("--frames", args.frames),
                    ("--alignment", args.alignment), ("--duration-model", args.duration_model)])
    if args.frames is not None:
        ff = FrameFeatures.from_matrix(audio_io.read_matrix(args.frames))
    else:
        ff = extract_frame_features(audio_io.load_wav(args.wav))
    alignment = audio_io.read_alignment(args.alignment)
    model = audio_io.read_duration_model(args.duration_model)
    fusion = compose_fusion(ff, alignment, model)
    audio_io.write_matrix(args.out, fusion.numeric_block())
    rows = zip(alignment.phones, fusion.phone_indices)
    audio_io.write_text(sidecar, audio_io.table_text("phone\tindex", rows, "\t"))


def _cmd_train(args) -> None:
    entries = audio_io.read_manifest(args.manifest)
    if not entries:
        raise EmptyInputError(f"manifest {args.manifest} is empty")
    config = parse_train_config(args.config)
    duration_model = audio_io.read_duration_model(args.duration_model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the run, not after
    _check_outputs([("--out", out / "checkpoint.ckpt"), ("--out", out / "history.csv")],
                   [("--manifest", args.manifest), ("--config", args.config),
                    ("--duration-model", args.duration_model), *_entry_files(entries)])
    result = train(prepare_dataset(entries, duration_model), config=config)
    result.model.save(out / "checkpoint.ckpt")
    audio_io.write_text(out / "history.csv", history_csv(result.history))
    print(f"epochs={result.history[-1][0]} best_epoch={result.best_epoch} "
          f"best_val_loss={result.history[result.best_epoch - 1][2]!r}")


def _score_entries(get_model, entries, duration_model) -> list[tuple[float, float]]:
    """(fluency, prosody) of each entry, in order: one `forward_batch` per
    chunk of `prepared_chunks`, of the model that `get_model()` returns. A
    forward that overflows gives a non-finite distribution, which
    `predict_score` rejects naming the entry, so numpy's overflow warnings
    are not shown."""
    scores = []
    for batch in prepared_chunks(entries, duration_model):
        with np.errstate(over="ignore", invalid="ignore"):
            dists = get_model().forward_batch(batch)[1]
        scores.extend((named(utt.id, predict_score, f), named(utt.id, predict_score, p))
                      for utt, (f, p) in zip(batch, dists))
    return scores


def _cmd_score(args) -> None:
    single = {"--wav": args.wav, "--posteriors": args.posteriors, "--ct": args.ct,
              "--phones": args.phones}
    if args.manifest is not None:
        extra = [flag for flag, value in single.items() if value is not None]
        if extra:
            raise ValidationError(f"{' '.join(extra)} cannot be combined with --manifest")
    elif args.out is not None:
        raise ValidationError("--out needs --manifest; one utterance's scores go to stdout")
    elif None in single.values():
        raise ValidationError("need either --manifest or all of --wav --posteriors --ct --phones")
    # The checkpoint loads on a worker thread while this one reads the
    # duration model and the manifest and featurizes the first chunk. It is
    # joined before the first forward pass, and on any error, so a
    # checkpoint error still wins over any later one.
    with ThreadPoolExecutor(max_workers=1) as pool:
        loading = pool.submit(ScoringModel.load, args.checkpoint)
        try:
            _score(args, loading.result)
        except BaseException:
            loading.result()
            raise


def _score(args, get_model) -> None:
    """`score` once its mode is checked; `get_model()` returns the checkpoint."""
    duration_model = audio_io.read_duration_model(args.duration_model)
    if args.manifest is None:
        entry = audio_io.ManifestEntry(args.wav, Path(args.wav), Path(args.ct),
                                       Path(args.posteriors), args.phones.split(), 0, 0)
        [(f, p)] = _score_entries(get_model, [entry], duration_model)
        print(f"{f!r} {p!r}")
        return
    entries = audio_io.read_manifest(args.manifest)
    if not entries:
        raise EmptyInputError(f"manifest {args.manifest} is empty")
    _check_outputs([("--out", args.out)],
                   [("--checkpoint", args.checkpoint), ("--manifest", args.manifest),
                    ("--duration-model", args.duration_model), *_entry_files(entries)])
    scores = _score_entries(get_model, entries, duration_model)
    text = audio_io.score_text((e.id, f, p) for e, (f, p) in zip(entries, scores))
    if args.out:
        audio_io.write_text(args.out, text)
    else:
        print(text, end="")


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


def _cmd_eval(args) -> None:
    gold = audio_io.read_scores(args.gold)
    if not gold:
        raise EmptyInputError(f"gold file {args.gold} has no scores")
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


def _cmd_synth(args) -> None:
    spec = SyntheticSpec(n_utterances=args.n, seed=args.seed,
                         min_phones=args.min_phones, max_phones=args.max_phones)
    print(generate_corpus(spec, args.out, jobs=args.jobs))


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
        args.func(args)
    except OSError as exc:
        if exc.filename is None:  # no path at fault: a broken pipe, say
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if isinstance(exc, FileExistsError):  # `mkdir(exist_ok=True)` on no directory
            try:
                _require_dir(exc.filename, exc.filename)
            except OSError as why:  # a file, a symlink loop, a dangling symlink
                exc = why
        reason = {FileNotFoundError: "no such file",
                  IsADirectoryError: "is a directory, not a file",
                  NotADirectoryError: "a file where a directory is expected"}.get(
                      type(exc), exc.strerror)
        print(f"error: {reason}: {exc.filename}", file=sys.stderr)
        return 2
    except PronAssessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 3)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
