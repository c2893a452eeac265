"""Corrupted input files end in a typed exit code, never in exit 1.

Each reader is driven through `cli.main` on a corrupted copy of one file
of a small synthetic corpus: cut to any shorter length, or with any one
bit flipped. The command must exit 0 (the file still parses), 2 (a path
it names is missing or a directory), 3 (malformed input) or, for a
manifest or score CSV left with no entry, 5; never 1 or a traceback.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pronassess import ScoringModel, SyntheticSpec, generate_corpus, read_manifest
from pronassess.cli import main

TYPED_EXITS = {0, 2, 3}

# ("cut", n): keep the first n % len bytes; ("flip", k): flip bit k % (8 len).
edits = st.tuples(st.sampled_from(["cut", "flip"]), st.integers(0, 2**31))


def corrupt(blob: bytes, edit) -> bytes:
    kind, pos = edit
    if kind == "cut":
        return blob[: pos % len(blob)]
    out = bytearray(blob)
    bit = pos % (8 * len(blob))
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_corpus")
    manifest = generate_corpus(SyntheticSpec(n_utterances=2, seed=6), out)
    ScoringModel(seed=0).save(out / "full.ckpt")
    return out, manifest, read_manifest(manifest)[0]


def run_corrupted(source, edit, argv):
    """Write `source` corrupted by `edit` next to it and run the CLI with
    "{}" in argv standing for the corrupted file; returns the exit code."""
    target = source.with_name("fuzzed" + "".join(source.suffixes))
    target.write_bytes(corrupt(source.read_bytes(), edit))
    return main([str(target) if a == "{}" else a for a in argv])


@settings(max_examples=200, deadline=None)
@given(edit=edits)
@example(edit=("cut", 45))  # 44-byte header and one byte of a sample
@example(edit=("flip", 8 * 41 + 4))  # lowers the data size from 6880 to 2784 bytes
def test_corrupted_wav(corpus, edit):
    out, _, entry = corpus
    rc = run_corrupted(entry.wav_path, edit,
                       ["extract", "--wav", "{}", "--out-frames", str(out / "f.mtx"),
                        "--out-functionals", str(out / "u.mtx")])
    assert rc in TYPED_EXITS


@settings(max_examples=200, deadline=None)
@given(edit=edits)
def test_corrupted_matrix(corpus, edit):
    out, _, entry = corpus
    rc = run_corrupted(entry.posterior_path, edit,
                       ["align", "--posteriors", "{}", "--phones", " ".join(entry.phones),
                        "--out", str(out / "a.tsv")])
    assert rc in TYPED_EXITS


@settings(max_examples=200, deadline=None)
@given(edit=edits)
@example(edit=("flip", 7))  # "phone" -> b"\xf0hone", not UTF-8
def test_corrupted_alignment(corpus, edit):
    out, _, entry = corpus
    rc = run_corrupted(out / "alignments" / f"{entry.id}.tsv", edit,
                       ["gopd", "--alignment", "{}", "--model", str(out / "durations.tsv")])
    assert rc in TYPED_EXITS


@settings(max_examples=200, deadline=None)
@given(edit=edits)
@example(edit=("flip", 7))
def test_corrupted_duration_model(corpus, edit):
    out, _, entry = corpus
    rc = run_corrupted(out / "durations.tsv", edit,
                       ["gopd", "--alignment", str(out / "alignments" / f"{entry.id}.tsv"),
                        "--model", "{}"])
    assert rc in TYPED_EXITS


@settings(max_examples=60, deadline=None)
@given(edit=edits)
@example(edit=("flip", 7))
def test_corrupted_manifest(corpus, edit):
    out, manifest, _ = corpus
    rc = run_corrupted(manifest, edit,
                       ["score", "--checkpoint", str(out / "full.ckpt"),
                        "--duration-model", str(out / "durations.tsv"),
                        "--manifest", "{}", "--out", str(out / "s.csv")])
    assert rc in TYPED_EXITS | {5}


@settings(max_examples=200, deadline=None)
@given(edit=edits)
@example(edit=("cut", 19))  # the header line alone: no gold scores
@example(edit=("flip", 7))
def test_corrupted_score_csv(corpus, edit):
    out, _, _ = corpus
    rc = run_corrupted(out / "gold.csv", edit,
                       ["eval", "--gold", "{}", "--pred", str(out / "gold.csv")])
    assert rc in {0, 3, 5}


@pytest.mark.parametrize("kind", ["alignment", "duration model", "manifest", "train config",
                                  "score CSV"])
def test_non_utf8_text_exit_3_naming_the_file(corpus, tmp_path, capsys, kind):
    out, manifest, entry = corpus
    alignment = out / "alignments" / f"{entry.id}.tsv"
    config = tmp_path / "train.cfg"
    config.write_text("epochs=1\n")
    source = {"alignment": alignment, "duration model": out / "durations.tsv",
              "manifest": manifest, "train config": config, "score CSV": out / "gold.csv"}[kind]
    bad = tmp_path / ("bad" + source.suffix)
    bad.write_bytes(b"\xff\xfe" + source.read_bytes())

    argv = {
        "alignment": ["gopd", "--alignment", str(bad), "--model", str(out / "durations.tsv")],
        "duration model": ["gopd", "--alignment", str(alignment), "--model", str(bad)],
        "manifest": ["score", "--checkpoint", str(out / "full.ckpt"),
                     "--duration-model", str(out / "durations.tsv"), "--manifest", str(bad)],
        "train config": ["train", "--manifest", str(manifest), "--config", str(bad),
                         "--duration-model", str(out / "durations.tsv"),
                         "--out", str(tmp_path / "run")],
        "score CSV": ["eval", "--gold", str(bad), "--pred", str(out / "gold.csv")],
    }[kind]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err
