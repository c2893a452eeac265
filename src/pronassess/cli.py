"""Batch command-line front-end.

Subcommands: extract, align, fit-durations, gopd, assemble, train, score,
eval, synth. Data goes to stdout, diagnostics to stderr. Exit codes:

  0  success
  1  unexpected failure
  2  missing input file
  3  malformed or unsupported input (format, schema, range, inventory)
  4  infeasible alignment (more phones than frames)
  5  empty input set
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import audio_io
from .aligner import dtw_align, spans_to_durations
from .durations import fit_durations, gopd_vector
from .errors import FormatError, InfeasibleAlignmentError, PronAssessError, ValidationError
from .functionals import compute_functionals
from .lld import FrameFeatures, extract_frame_features
from .metrics import pcc, predict_score
from .model import ScoringModel
from .pipeline import compose_fusion, prepare_dataset, prepare_utterance
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
    files = sorted(Path(args.alignments).glob(args.pattern))
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
    if args.frames:
        ff = FrameFeatures.from_matrix(audio_io.read_matrix(args.frames))
    else:
        ff = extract_frame_features(audio_io.load_wav(args.wav))
    alignment = audio_io.read_alignment(args.alignment)
    model = audio_io.read_duration_model(args.duration_model)
    fusion = compose_fusion(ff, alignment, model)
    audio_io.write_matrix(args.out, fusion.numeric_block())
    sidecar = Path(str(args.out) + ".phones")
    lines = ["phone\tindex"]
    for p, i in zip(alignment.phones, fusion.phone_indices):
        lines.append(f"{p}\t{i}")
    sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _cmd_train(args) -> int:
    entries = audio_io.read_manifest(args.manifest)
    if not entries:
        print("error: manifest is empty", file=sys.stderr)
        return 5
    config = parse_train_config(args.config)
    duration_model = audio_io.read_duration_model(args.duration_model)
    dataset = prepare_dataset(entries, duration_model)
    result = train(dataset, config=config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.model.save(out / "checkpoint.ckpt")
    (out / "history.csv").write_text(history_csv(result.history))
    last = result.history[-1][0]
    print(f"epochs={last} best_epoch={result.best_epoch} "
          f"best_val_loss={result.history[result.best_epoch - 1][2]!r}")
    return 0


# Utterances per forward pass in `score`. Each chunk is prepared just
# before its pass, so memory stays bounded by one chunk's features and
# forward cache whatever the manifest size.
SCORE_CHUNK = 16


def _score_entries(model, entries, duration_model) -> list[tuple[float, float]]:
    """(fluency, prosody) of each entry, in order: one `forward_batch` per
    chunk of SCORE_CHUNK consecutive entries."""
    scores = []
    for start in range(0, len(entries), SCORE_CHUNK):
        batch = [prepare_utterance(e, duration_model) for e in entries[start : start + SCORE_CHUNK]]
        dists = model.forward_batch(batch)[1]
        scores.extend((predict_score(f), predict_score(p)) for f, p in dists)
    return scores


def _cmd_score(args) -> int:
    model = ScoringModel.load(args.checkpoint)
    duration_model = audio_io.read_duration_model(args.duration_model)
    if args.manifest:
        entries = audio_io.read_manifest(args.manifest)
        if not entries:
            print("error: manifest is empty", file=sys.stderr)
            return 5
        lines = ["id,fluency,prosody"]
        for entry, (f, p) in zip(entries, _score_entries(model, entries, duration_model)):
            lines.append(f"{entry.id},{f!r},{p!r}")
        text = "\n".join(lines) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text, end="")
        return 0
    if not (args.wav and args.posteriors and args.ct and args.phones):
        print("error: need either --manifest or all of --wav --posteriors --ct --phones",
              file=sys.stderr)
        return 3
    entry = audio_io.ManifestEntry(
        id="cli", wav_path=Path(args.wav), ct_path=Path(args.ct),
        posterior_path=Path(args.posteriors), phones=args.phones.split(),
        fluency=0, prosody=0,
    )
    [(f, p)] = _score_entries(model, [entry], duration_model)
    print(f"{f!r} {p!r}")
    return 0


def _read_score_csv(path) -> dict[str, tuple[float, float]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "id,fluency,prosody":
        raise FormatError(f"bad score CSV header in {path}")
    out = {}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise FormatError(f"{path}:{ln}: expected 3 fields, got {len(fields)}")
        uid, f, p = fields
        try:
            scores = (float(f), float(p))
        except ValueError:
            raise FormatError(f"{path}:{ln}: non-numeric score in {line!r}") from None
        if not np.all(np.isfinite(scores)):
            raise FormatError(f"{path}:{ln}: non-finite score in {line!r}")
        if uid in out:
            raise FormatError(f"{path}:{ln}: duplicate id {uid!r}")
        out[uid] = scores
    return out


def _cmd_eval(args) -> int:
    gold = _read_score_csv(args.gold)
    ids = sorted(gold)
    ref_f = [gold[i][0] for i in ids]
    ref_p = [gold[i][1] for i in ids]
    all_f, all_p = [], []
    for k, pred_path in enumerate(args.pred, start=1):
        pred = _read_score_csv(pred_path)
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
    p.add_argument("--out", help="write CSV here instead of stdout (manifest mode)")
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
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except IsADirectoryError as exc:
        print(f"error: is a directory, not a file: {exc.filename}", file=sys.stderr)
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
