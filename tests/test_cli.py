"""Subcommand behaviour, exit codes, and stdout payloads."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pronassess import (
    Alignment,
    AudioBuffer,
    Span,
    read_alignment,
    read_duration_model,
    read_matrix,
    write_alignment,
    write_matrix,
    write_wav,
)
from pronassess.audio_io import read_scores
from pronassess.cli import main
from pronassess.inventory import PHONE_TO_INDEX
from pronassess.model import TINY_CONFIG, fusion_steps
from pronassess.train import TrainConfig, train

from test_model import edit_checkpoint, make_utt, payload_offset


@pytest.fixture()
def silence_wav(tmp_path):
    p = tmp_path / "sil.wav"
    write_wav(p, AudioBuffer(np.zeros(16000)))
    return p


class TestExtract:
    def test_silence(self, tmp_path, silence_wav):
        frames = tmp_path / "f.mtx"
        utt = tmp_path / "u.mtx"
        rc = main(["extract", "--wav", str(silence_wav),
                   "--out-frames", str(frames), "--out-functionals", str(utt)])
        assert rc == 0
        assert np.all(read_matrix(frames) == 0.0)
        assert np.all(read_matrix(utt)[:, :9] == 0.0)

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["extract", "--wav", str(tmp_path / "nope.wav"),
                   "--out-frames", "f", "--out-functionals", "u"])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_stereo_rejected(self, tmp_path):
        import wave

        p = tmp_path / "st.wav"
        with wave.open(str(p), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(b"\x00" * 1600)
        rc = main(["extract", "--wav", str(p), "--out-frames", "f", "--out-functionals", "u"])
        assert rc == 3

    @pytest.mark.parametrize("bad", ["frames", "functionals"])
    @pytest.mark.parametrize("kind", ["missing-parent", "parent-is-file", "out-is-a-directory",
                                      "too-long"])
    def test_both_outputs_checked_before_either_is_written(self, tmp_path, capsys, silence_wav,
                                                           bad, kind):
        (tmp_path / "a-file").write_text("")
        (tmp_path / "a-dir").mkdir()
        path, reason = {
            "missing-parent": (tmp_path / "nope" / "o.mtx", "no such file"),
            "parent-is-file": (tmp_path / "a-file" / "o.mtx",
                               "a file where a directory is expected"),
            "out-is-a-directory": (tmp_path / "a-dir", "is a directory, not a file"),
            "too-long": (tmp_path / ("x" * 300), os.strerror(errno.ENAMETOOLONG)),
        }[kind]
        outs = {"frames": tmp_path / "f.mtx", "functionals": tmp_path / "u.mtx", bad: path}
        rc = main(["extract", "--wav", str(silence_wav), "--out-frames", str(outs["frames"]),
                   "--out-functionals", str(outs["functionals"])])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {reason}: {path}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir", "a-file", "sil.wav"]
        assert not any((tmp_path / "a-dir").iterdir())

    @pytest.mark.parametrize("alias", ["same-path", "through-a-symlink", "hard-link"])
    def test_one_file_for_both_outputs_exit_3(self, tmp_path, capsys, silence_wav, alias):
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        frames = tmp_path / "f.mtx"
        functionals = {"same-path": frames, "through-a-symlink": tmp_path / "link" / "f.mtx",
                       "hard-link": tmp_path / "h.mtx"}[alias]
        if alias == "hard-link":
            frames.write_bytes(b"frames\n")
            functionals.hardlink_to(frames)
        before = {p.name: p.is_file() and p.read_bytes() for p in tmp_path.iterdir()}
        rc = main(["extract", "--wav", str(silence_wav), "--out-frames", str(frames),
                   "--out-functionals", str(functionals)])
        assert rc == 3
        assert capsys.readouterr().err == \
            f"error: --out-frames and --out-functionals name one file: {frames}\n"
        assert {p.name: p.is_file() and p.read_bytes() for p in tmp_path.iterdir()} == before


class TestRefusedPaths:
    """A path the OS refuses exits 2 with its reason, whether it is read,
    written, or loaded on `score`'s checkpoint thread."""

    def _path(self, tmp_path, kind):
        if kind == "too-long":
            return tmp_path / ("x" * 300), errno.ENAMETOOLONG
        loop = tmp_path / "loop"
        loop.symlink_to(loop)
        return loop, errno.ELOOP

    @pytest.mark.parametrize("kind", ["too-long", "symlink-loop"])
    @pytest.mark.parametrize("use", ["read", "write", "checkpoint"])
    def test_exit_2_with_the_reason(self, tmp_path, capsys, silence_wav, kind, use):
        path, code = self._path(tmp_path, kind)
        if use == "checkpoint":
            argv = ["score", "--checkpoint", str(path), "--duration-model", str(tmp_path / "d"),
                    "--manifest", str(tmp_path / "m.jsonl")]
        else:
            wav, frames = (path, tmp_path / "f.mtx") if use == "read" else (silence_wav, path)
            argv = ["extract", "--wav", str(wav), "--out-frames", str(frames),
                    "--out-functionals", str(tmp_path / "u.mtx")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {os.strerror(code)}: {path}\n"


class TestAlign:
    def test_single_frame(self, tmp_path, capsys):
        post = tmp_path / "p.mtx"
        mat = np.full((1, 41), -2.0)
        mat[0, PHONE_TO_INDEX["AA"]] = -0.5
        write_matrix(post, mat)
        out = tmp_path / "a.tsv"
        rc = main(["align", "--posteriors", str(post), "--phones", "AA", "--out", str(out)])
        assert rc == 0
        alignment = read_alignment(out)
        assert alignment.spans == [Span("AA", 0, 0)]
        assert float(capsys.readouterr().out.strip()) == pytest.approx(-0.5)

    def test_infeasible_exit_code(self, tmp_path):
        post = tmp_path / "p.mtx"
        write_matrix(post, np.full((1, 41), -1.0))
        rc = main(["align", "--posteriors", str(post), "--phones", "AA B", "--out", "x.tsv"])
        assert rc == 4

    def test_narrow_posteriors_exit_3(self, tmp_path, capsys):
        post = tmp_path / "p.mtx"
        write_matrix(post, np.full((3, 40), -1.0))
        out = tmp_path / "a.tsv"
        rc = main(["align", "--posteriors", str(post), "--phones", "AA", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == \
            "error: posterior matrix must be T x 41, got shape (3, 40)\n"
        assert not out.exists()

    def test_posteriors_path_through_a_file_exit_2(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        path = tmp_path / "f" / "p.mtx"
        rc = main(["align", "--posteriors", str(path), "--phones", "AA", "--out", "x.tsv"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err


class TestFitDurations:
    def test_floored_std(self, tmp_path, capsys):
        adir = tmp_path / "aligns"
        adir.mkdir()
        spans, start = [], 0
        for _ in range(12):
            spans.append(Span("AA", start, start + 9))
            start += 10
        write_alignment(adir / "a.tsv", Alignment(spans))
        out = tmp_path / "model.tsv"
        rc = main(["fit-durations", "--alignments", str(adir), "--out", str(out)])
        assert rc == 0
        model = read_duration_model(out)
        assert model.phones["AA"].std_ms == 5.0
        assert model.phones["AA"].count == 12

    @pytest.mark.parametrize("pattern", ["", "/abs/*.tsv"], ids=["empty", "absolute"])
    def test_bad_pattern_exit_3(self, tmp_path, capsys, pattern):
        rc = main(["fit-durations", "--alignments", str(tmp_path), "--pattern", pattern,
                   "--out", str(tmp_path / "m.tsv")])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: bad --pattern {pattern!r}: ")

    def test_empty_dir(self, tmp_path):
        adir = tmp_path / "empty"
        adir.mkdir()
        rc = main(["fit-durations", "--alignments", str(adir), "--out", "m.tsv"])
        assert rc == 5

    @pytest.mark.parametrize("kind, reason", [("missing", "no such file"),
                                              ("file", "a file where a directory is expected")],
                             ids=["missing", "file"])
    def test_alignments_not_a_directory_exit_2(self, tmp_path, capsys, kind, reason):
        adir = tmp_path / "aligns"
        if kind == "file":
            adir.write_text("")
        rc = main(["fit-durations", "--alignments", str(adir), "--out", str(tmp_path / "m.tsv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {reason}: {adir}\n"
        assert not (tmp_path / "m.tsv").exists()


class TestGopdAndAssemble:
    def _setup(self, tmp_path):
        adir = tmp_path / "a.tsv"
        write_alignment(adir, Alignment([Span("AA", 0, 9), Span("B", 10, 19)]))
        model = tmp_path / "m.tsv"
        model.write_text(
            "phone\tmean_ms\tstd_ms\tcount\n__GLOBAL__\t100.0\t20.0\t100\n"
            "AA\t100.0\t20.0\t50\nB\t100.0\t20.0\t50\n"
        )
        return adir, model

    def test_gopd_output(self, tmp_path, capsys):
        adir, model = self._setup(tmp_path)
        out = tmp_path / "g.mtx"
        rc = main(["gopd", "--alignment", str(adir), "--model", str(model), "--out", str(out)])
        assert rc == 0
        values = read_matrix(out)
        assert values.shape == (2, 1)
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and lines[0].startswith("AA\t100.0\t")

    def test_gopd_bad_model_exit_3(self, tmp_path, capsys):
        adir, model = self._setup(tmp_path)
        model.write_text(model.read_text().replace("B\t100.0\t20.0", "B\t100.0\t0.0"))
        rc = main(["gopd", "--alignment", str(adir), "--model", str(model)])
        assert rc == 3
        assert f"{model}:4:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra_row", ["AA\t150.0\t30.0\t7\n", "AH\t150.0\t30.0\t-7\n"],
                             ids=["duplicate-row", "negative-count"])
    def test_gopd_duplicate_row_or_negative_count_exit_3(self, tmp_path, capsys, extra_row):
        adir, model = self._setup(tmp_path)
        model.write_text(model.read_text() + extra_row)
        rc = main(["gopd", "--alignment", str(adir), "--model", str(model)])
        assert rc == 3
        assert f"{model}:5:" in capsys.readouterr().err

    def test_assemble_writes_block_and_sidecar(self, tmp_path):
        # 20-frame alignment needs a 20-frame wav: 400 + 19*160 samples
        write_wav(tmp_path / "w.wav", AudioBuffer(np.zeros(400 + 19 * 160)))
        adir, model = self._setup(tmp_path)
        out = tmp_path / "fusion.mtx"
        rc = main(["assemble", "--wav", str(tmp_path / "w.wav"), "--alignment", str(adir),
                   "--duration-model", str(model), "--out", str(out)])
        assert rc == 0
        assert read_matrix(out).shape == (2, 5)
        sidecar = (tmp_path / "fusion.mtx.phones").read_text().splitlines()
        assert sidecar[0] == "phone\tindex"
        assert sidecar[1].split("\t")[0] == "AA"

    def test_assemble_matches_pipeline(self, tmp_path, capsys):
        from pronassess import SyntheticSpec, generate_corpus, prepare_dataset, read_manifest

        corpus = tmp_path / "c"
        entry = read_manifest(generate_corpus(
            SyntheticSpec(n_utterances=1, seed=4, min_phones=5, max_phones=5), corpus))[0]
        durations = corpus / "durations.tsv"
        align = tmp_path / "a.tsv"
        assert main(["align", "--posteriors", str(entry.posterior_path),
                     "--phones", " ".join(entry.phones), "--out", str(align)]) == 0
        out = tmp_path / "fusion.mtx"
        assert main(["assemble", "--wav", str(entry.wav_path), "--alignment", str(align),
                     "--duration-model", str(durations), "--out", str(out)]) == 0
        fusion = prepare_dataset([entry], read_duration_model(durations))[0].fusion
        expected = fusion.numeric_block().astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(read_matrix(out), expected)
        sidecar = (tmp_path / "fusion.mtx.phones").read_text().splitlines()[1:]
        assert [int(line.split("\t")[1]) for line in sidecar] == list(fusion.phone_indices)

    @pytest.mark.parametrize("kind", ["sidecar-too-long", "sidecar-is-a-directory"])
    def test_assemble_checks_both_outputs_before_reading(self, tmp_path, capsys, monkeypatch,
                                                         kind):
        """A `--out` whose `.phones` sidecar cannot be written exits 2 with
        the reason before the WAV is read, and leaves no file behind."""
        from pronassess import audio_io

        def never(*args, **kwargs):
            pytest.fail("read the WAV before the outputs were checked")

        write_wav(tmp_path / "w.wav", AudioBuffer(np.zeros(400 + 19 * 160)))
        adir, model = self._setup(tmp_path)
        monkeypatch.setattr(audio_io, "load_wav", never)
        outs = tmp_path / "o"
        outs.mkdir()
        if kind == "sidecar-too-long":
            out = outs / ("x" * 250)
            reason = os.strerror(errno.ENAMETOOLONG)
        else:
            out = outs / "f.mtx"
            (outs / "f.mtx.phones").mkdir()
            reason = "is a directory, not a file"
        rc = main(["assemble", "--wav", str(tmp_path / "w.wav"), "--alignment", str(adir),
                   "--duration-model", str(model), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {reason}: {out}.phones\n"
        assert [p.name for p in outs.rglob("*")] == (
            [] if kind == "sidecar-too-long" else ["f.mtx.phones"])

    @pytest.mark.parametrize("inputs", [[], ["--wav", "w.wav", "--frames", "f.mtx"]],
                             ids=["neither", "both"])
    def test_assemble_needs_exactly_one_input(self, tmp_path, capsys, inputs):
        adir, model = self._setup(tmp_path)
        rc = main(["assemble", *inputs, "--alignment", str(adir),
                   "--duration-model", str(model), "--out", str(tmp_path / "fusion.mtx")])
        assert rc == 3
        assert "exactly one of --wav or --frames" in capsys.readouterr().err
        assert not (tmp_path / "fusion.mtx").exists()


class TestOutputIsAnInput:
    """Every command that writes refuses an output that is the same file as
    one of its inputs (exit 3) before it featurizes or writes anything, and
    the input keeps its bytes. The inputs of `train` and `score --manifest`
    include each file the manifest lists."""

    @pytest.mark.parametrize("case", ["extract-frames", "extract-functionals-through-a-symlink",
                                      "align", "fit-durations", "gopd", "assemble",
                                      "assemble-sidecar", "train", "train-listed-ct", "score",
                                      "score-listed-wav", "score-listed-ct",
                                      "score-listed-posteriors"])
    def test_exit_3_and_input_unchanged(self, tmp_path, capsys, case):
        from pronassess import ScoringModel, SyntheticSpec, dtw_align, generate_corpus, read_manifest

        manifest = generate_corpus(SyntheticSpec(n_utterances=2, seed=8), tmp_path / "c")
        entry = read_manifest(manifest)[0]
        wav, post, dm = entry.wav_path, entry.posterior_path, tmp_path / "c" / "durations.tsv"
        (tmp_path / "aligns").mkdir()
        align = tmp_path / "aligns" / "a.tsv"
        write_alignment(align, dtw_align(read_matrix(post), entry.phones)[0])
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        (tmp_path / "run").mkdir()
        config = tmp_path / "run" / "checkpoint.ckpt"
        config.write_text("epochs=1\n")
        sidecar = tmp_path / "fusion.mtx.phones"
        sidecar.write_bytes(align.read_bytes())
        ckpt = tmp_path / "full.ckpt"
        if case.startswith("score"):
            ScoringModel(seed=0).save(ckpt)
        listed_ct = tmp_path / "run" / "history.csv"
        if case == "train-listed-ct":
            listed_ct.write_bytes(entry.ct_path.read_bytes())
            (tmp_path / "config.txt").write_text("epochs=1\n")
            rows = [json.loads(line) for line in manifest.read_text().splitlines()]
            rows[0]["ct_path"] = str(listed_ct)
            manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        score = ["score", "--checkpoint", ckpt, "--duration-model", dm, "--manifest", manifest]
        via_link = tmp_path / "link" / wav.relative_to(tmp_path)
        other = str(tmp_path / "o.mtx")
        argv, out_flag, out, in_flag, path = {
            "extract-frames": (["extract", "--wav", wav, "--out-frames", wav,
                                "--out-functionals", other], "--out-frames", wav, "--wav", wav),
            "extract-functionals-through-a-symlink": (
                ["extract", "--wav", wav, "--out-frames", other, "--out-functionals", via_link],
                "--out-functionals", via_link, "--wav", wav),
            "align": (["align", "--posteriors", post, "--phones", " ".join(entry.phones),
                       "--out", post], "--out", post, "--posteriors", post),
            "fit-durations": (["fit-durations", "--alignments", tmp_path / "aligns", "--out", align],
                              "--out", align, "--alignments", align),
            "gopd": (["gopd", "--alignment", align, "--model", dm, "--out", dm],
                     "--out", dm, "--model", dm),
            "assemble": (["assemble", "--wav", wav, "--alignment", align, "--duration-model", dm,
                          "--out", align], "--out", align, "--alignment", align),
            "assemble-sidecar": (["assemble", "--wav", wav, "--alignment", sidecar,
                                  "--duration-model", dm, "--out", tmp_path / "fusion.mtx"],
                                 "--out", sidecar, "--alignment", sidecar),
            "train": (["train", "--manifest", manifest, "--config", config, "--duration-model", dm,
                       "--out", tmp_path / "run"], "--out", config, "--config", config),
            "train-listed-ct": (["train", "--manifest", manifest,
                                 "--config", tmp_path / "config.txt",
                                 "--duration-model", dm, "--out", tmp_path / "run"],
                                "--out", listed_ct, f"{entry.id} ct_path", listed_ct),
            "score": ([*score, "--out", manifest], "--out", manifest, "--manifest", manifest),
            "score-listed-wav": ([*score, "--out", wav], "--out", wav, f"{entry.id} wav_path", wav),
            "score-listed-ct": ([*score, "--out", entry.ct_path], "--out", entry.ct_path,
                                f"{entry.id} ct_path", entry.ct_path),
            "score-listed-posteriors": ([*score, "--out", post], "--out", post,
                                        f"{entry.id} posterior_path", post),
        }[case]
        before = Path(path).read_bytes()
        assert main([str(a) for a in argv]) == 3
        assert capsys.readouterr().err == \
            f"error: {out_flag} {out} would overwrite the input {in_flag} {path}\n"
        assert Path(path).read_bytes() == before


class TestTrainCli:
    @pytest.mark.parametrize("line", ["batch=0", "epochs=0", "val_fraction=2", "val_fraction=0.9"])
    def test_bad_config_exit_3(self, tmp_path, capsys, line):
        from pronassess import SyntheticSpec, generate_corpus

        manifest = generate_corpus(SyntheticSpec(n_utterances=4, seed=8), tmp_path / "c")
        config = tmp_path / "config.txt"
        config.write_text(line + "\n")
        rc = main(["train", "--manifest", str(manifest), "--config", str(config),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"),
                   "--out", str(tmp_path / "run")])
        assert rc == 3
        assert line.partition("=")[0] in capsys.readouterr().err

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        from pronassess import SyntheticSpec, generate_corpus

        manifest = generate_corpus(SyntheticSpec(n_utterances=2, seed=8), tmp_path / "c")
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\n")
        out = tmp_path / "run"
        out.write_text("")
        rc = main(["train", "--manifest", str(manifest), "--config", str(config),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_out_checked_before_featurizing(self, tmp_path, capsys, monkeypatch):
        from pronassess import SyntheticSpec, cli, generate_corpus

        def never(*args, **kwargs):
            pytest.fail("featurized or trained before --out was checked")

        monkeypatch.setattr(cli, "prepare_dataset", never)
        monkeypatch.setattr(cli, "train", never)
        manifest = generate_corpus(SyntheticSpec(n_utterances=2, seed=8), tmp_path / "c")
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\n")
        out = tmp_path / "run"
        out.write_text("")
        rc = main(["train", "--manifest", str(manifest), "--config", str(config),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: a file where a directory is expected: {out}\n"

    @pytest.mark.parametrize("name", ["checkpoint.ckpt", "history.csv"])
    def test_both_outputs_checked_before_featurizing(self, tmp_path, capsys, monkeypatch, name):
        """An output under `--out` that is a directory exits 2 with the
        reason before any utterance is featurized, and nothing is written."""
        from pronassess import SyntheticSpec, cli, generate_corpus

        def never(*args, **kwargs):
            pytest.fail("featurized or trained before the outputs were checked")

        monkeypatch.setattr(cli, "prepare_dataset", never)
        monkeypatch.setattr(cli, "train", never)
        manifest = generate_corpus(SyntheticSpec(n_utterances=2, seed=8), tmp_path / "c")
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\n")
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)
        rc = main(["train", "--manifest", str(manifest), "--config", str(config),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: is a directory, not a file: {out / name}\n"
        assert [p.name for p in out.rglob("*")] == [name]


@pytest.mark.parametrize("kind", ["nested-json", "nul-in-path"])
@pytest.mark.parametrize("command", ["train", "score"])
def test_bad_manifest_line_exit_3(tmp_path, capsys, command, kind):
    from pronassess import ScoringModel, SyntheticSpec, generate_corpus

    manifest = generate_corpus(SyntheticSpec(n_utterances=1, seed=8), tmp_path / "c")
    if kind == "nested-json":
        manifest.write_text("[" * 200_000 + "\n")
        message = f"error: {manifest}:1: invalid JSON (nested too deeply)\n"
    else:
        row = json.loads(manifest.read_text())
        row["wav_path"] = "a\0.wav"
        manifest.write_text(json.dumps(row) + "\n")
        message = f"error: {manifest}:1: wav_path contains a NUL byte: 'a\\x00.wav'\n"
    dm = str(tmp_path / "c" / "durations.tsv")
    if command == "train":
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\n")
        argv = ["train", "--config", str(config), "--out", str(tmp_path / "run")]
    else:
        ckpt = tmp_path / "tiny.ckpt"
        ScoringModel(TINY_CONFIG, seed=0).save(ckpt)
        argv = ["score", "--checkpoint", str(ckpt)]
    assert main([*argv, "--duration-model", dm, "--manifest", str(manifest)]) == 3
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("kind", ["short-wav", "unnormalized", "too-many-phones",
                                  "narrow-posteriors"])
@pytest.mark.parametrize("command", ["train", "score"])
def test_entry_error_names_the_entry(tmp_path, capsys, command, kind):
    """An error in preparing one manifest entry (here the second of three)
    starts with that entry's id and keeps the exit code of its type."""
    from pronassess import ScoringModel, SyntheticSpec, generate_corpus, read_manifest

    manifest = generate_corpus(SyntheticSpec(n_utterances=3, seed=8), tmp_path / "c")
    entry = read_manifest(manifest)[1]
    post = read_matrix(entry.posterior_path)
    if kind == "short-wav":
        write_wav(entry.wav_path, AudioBuffer(np.zeros(300)))
        rc, message = 3, "signal of 300 samples is shorter than one 400-sample window"
    elif kind == "unnormalized":
        write_matrix(entry.posterior_path, post + np.float32(0.5))
        rc, message = 3, "rows are not normalized (max |logsumexp| = 0.5)"
    elif kind == "too-many-phones":
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        rows[1]["phones"] = entry.phones[:1] * (len(post) + 1)
        manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
        rc, message = 4, f"cannot align {len(post) + 1} phones to {len(post)} frames (need T >= L)"
    else:
        write_matrix(entry.posterior_path, post[:, :40])
        rc, message = 3, f"posterior matrix must be T x 41, got shape ({len(post)}, 40)"
    if command == "train":
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\n")
        argv = ["train", "--config", str(config), "--out", str(tmp_path / "run")]
    else:
        ckpt = tmp_path / "tiny.ckpt"
        ScoringModel(TINY_CONFIG, seed=0).save(ckpt)
        argv = ["score", "--checkpoint", str(ckpt), "--out", str(tmp_path / "s.csv")]
    dm = str(tmp_path / "c" / "durations.tsv")
    assert main([*argv, "--duration-model", dm, "--manifest", str(manifest)]) == rc
    assert capsys.readouterr().err == f"error: {entry.id}: {message}\n"


class TestEval:
    def test_identical_pred_gold(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,fluency,prosody\nu1,3,4\nu2,7,2\nu3,5,9\n")
        rc = main(["eval", "--gold", str(gold), "--pred", str(gold)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fluency_pcc=1.000000" in out and "prosody_pcc=1.000000" in out

    def test_three_run_average(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,fluency,prosody\nu1,3,4\nu2,7,2\nu3,5,9\n")
        rc = main(["eval", "--gold", str(gold)] + ["--pred", str(gold)] * 3)
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("run") == 3
        assert "average fluency_pcc=1.000000" in out

    def test_huge_predictions_correlate(self, tmp_path, capsys):
        # squaring 1e200 overflowed, and the PCC printed was -0.000000
        gold = tmp_path / "gold.csv"
        gold.write_text("id,fluency,prosody\nu1,1,1\nu2,2,2\nu3,4,4\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("id,fluency,prosody\nu1,1e200,1\nu2,-1e200,2\nu3,0,4\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0
        assert capsys.readouterr() == ("run1 fluency_pcc=-0.327327 prosody_pcc=1.000000\n", "")

    @pytest.mark.parametrize("row", ["u2,7", "u2,7,2,1", "u2,seven,2", "u2,7,nan"])
    def test_malformed_row(self, tmp_path, capsys, row):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,fluency,prosody\nu1,3,4\nu2,7,2\n")
        pred = tmp_path / "pred.csv"
        pred.write_text(f"id,fluency,prosody\nu1,3,4\n{row}\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 3
        assert f"{pred}:3:" in capsys.readouterr().err

    def test_duplicate_id(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,fluency,prosody\nu1,3,4\nu2,7,2\nu1,5,9\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(gold)]) == 3
        assert "duplicate id 'u1'" in capsys.readouterr().err

    def test_empty_gold_exit_5(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,fluency,prosody\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(gold)]) == 5
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_id_exit_3(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,fluency,prosody\n,3,4\nu2,5,6\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(gold)]) == 3
        assert f"{gold}:2: empty id" in capsys.readouterr().err

    def test_prediction_not_in_gold(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,fluency,prosody\nu1,3,4\nu2,7,2\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("id,fluency,prosody\nu1,3,4\nu2,7,2\nu9,1,1\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 3
        assert "u9" in capsys.readouterr().err

    @pytest.mark.parametrize("gold_ids, pred_ids, message", [
        (3, [1], "missing predictions for 2 ids ['u2', 'u3']"),
        (6, [1], "missing predictions for 5 ids ['u2', 'u3', 'u4', ...]"),
        (3, [1, 2, 3, 9], "1 id ['u9'] not in gold"),
        (3, range(1, 8), "4 ids ['u4', 'u5', 'u6', ...] not in gold"),
    ], ids=["missing-all-listed", "missing-cut", "unknown-one", "unknown-cut"])
    def test_id_messages_count_and_cut_only_when_cut(self, tmp_path, capsys, gold_ids, pred_ids,
                                                     message):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,fluency,prosody\n" +
                        "".join(f"u{i},{i},2\n" for i in range(1, gold_ids + 1)))
        pred = tmp_path / "pred.csv"
        pred.write_text("id,fluency,prosody\n" + "".join(f"u{i},1,1\n" for i in pred_ids))
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 3
        assert capsys.readouterr().err == f"error: {pred}: {message}\n"

    def test_constant_scores_warn_in_one_line(self, tmp_path, capsys):
        # run 1 predicts one fluency score throughout; run 2 matches gold,
        # whose prosody scores are constant
        gold = tmp_path / "gold.csv"
        gold.write_text("id,fluency,prosody\nu1,3,4\nu2,7,4\nu3,5,4\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("id,fluency,prosody\nu1,6,1\nu2,6,2\nu3,6,3\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred), "--pred", str(gold)]) == 0
        out, err = capsys.readouterr()
        assert out == ("run1 fluency_pcc=0.000000 prosody_pcc=0.000000\n"
                       "run2 fluency_pcc=1.000000 prosody_pcc=0.000000\n"
                       "average fluency_pcc=0.500000 prosody_pcc=0.000000\n")
        assert err == ("warning: run1: fluency scores are constant; PCC reported as 0\n"
                       "warning: run1: prosody scores are constant; PCC reported as 0\n"
                       "warning: run2: prosody scores are constant; PCC reported as 0\n")

    def test_constant_tenths_warn(self, tmp_path, capsys):
        # the mean of three 0.1s is not 0.1, which gave a PCC of 1.19e-16
        gold = tmp_path / "gold.csv"
        gold.write_text("id,fluency,prosody\nu1,1,1\nu2,2,2\nu3,4,4\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("id,fluency,prosody\nu1,0.1,1\nu2,0.1,2\nu3,0.1,4\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0
        assert capsys.readouterr() == (
            "run1 fluency_pcc=0.000000 prosody_pcc=1.000000\n",
            "warning: run1: fluency scores are constant; PCC reported as 0\n")


class TestSynthCli:
    def test_determinism(self, tmp_path, capsys):
        for name in ("a", "b"):
            rc = main(["synth", "--n", "1", "--seed", "7", "--out", str(tmp_path / name)])
            assert rc == 0
        from test_synth import tree_digest

        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_3(self, tmp_path, capsys, jobs):
        rc = main(["synth", "--n", "1", "--jobs", jobs, "--out", str(tmp_path / "c")])
        assert rc == 3
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "c"
        out.write_text("")
        assert main(["synth", "--n", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_negative_seed_exit_3(self, tmp_path, capsys):
        rc = main(["synth", "--n", "1", "--seed", "-1", "--out", str(tmp_path / "c")])
        assert rc == 3
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


def _score_corpus(tmp_path):
    """(manifest, duration model, full-size checkpoint) of 17 synthetic
    utterances of 2-8 phones."""
    from pronassess import ScoringModel, SyntheticSpec, generate_corpus

    manifest = generate_corpus(
        SyntheticSpec(n_utterances=17, seed=4, min_phones=2, max_phones=8), tmp_path / "c"
    )
    ckpt = tmp_path / "full.ckpt"
    ScoringModel(seed=2).save(ckpt)
    return manifest, tmp_path / "c" / "durations.tsv", ckpt


def _score_in_chunks(budget, ckpt, dm_path, manifest, out):
    """Run `score --manifest` with a budget of `budget` all-valid fusion
    rows; returns each forward chunk as its utterances' fusion lengths,
    after checking them with `check_chunks`."""
    from pronassess import cli

    from test_synth import check_chunks, recorded_chunks

    with recorded_chunks(budget, cli) as chunks:
        rc = main(["score", "--checkpoint", str(ckpt), "--duration-model", str(dm_path),
                   "--manifest", str(manifest), "--out", str(out)])
    assert rc == 0
    check_chunks(chunks, budget)
    return chunks


def _assert_same_scores(a, b):
    """Score CSVs a and b list the same ids in order, with scores within 1e-6."""
    scores_a, scores_b = read_scores(a), read_scores(b)
    assert list(scores_a) == list(scores_b)
    for uid, (f, p) in scores_a.items():
        assert abs(f - scores_b[uid][0]) <= 1e-6
        assert abs(p - scores_b[uid][1]) <= 1e-6


def _overflow_score_args(tmp_path):
    """`score --manifest` arguments for one utterance whose contextual rows
    0-1 are +3.3e38 and rows 2-3 are -3.3e38, finite in float32, with a
    full-size checkpoint. Their pair means are +-3.3e38 too."""
    from pronassess import ScoringModel, SyntheticSpec, generate_corpus, read_manifest

    manifest = generate_corpus(SyntheticSpec(n_utterances=1, seed=6), tmp_path / "c")
    ct_path = read_manifest(manifest)[0].ct_path
    ct = read_matrix(ct_path)
    ct[:2], ct[2:4] = 3.3e38, -3.3e38
    write_matrix(ct_path, ct)
    ckpt = tmp_path / "full.ckpt"
    ScoringModel(seed=0).save(ckpt)
    return ["score", "--checkpoint", str(ckpt),
            "--duration-model", str(tmp_path / "c" / "durations.tsv"),
            "--manifest", str(manifest), "--out", str(tmp_path / "s.csv")]


class TestScore:
    def test_scores_in_range(self, tmp_path, capsys):
        # tiny checkpoint trained on random data; score one synthetic utterance
        rng = np.random.default_rng(31)
        data = [make_utt(rng, 3, 5, int(rng.integers(11)), int(rng.integers(11)))
                for _ in range(6)]
        result = train(data, TINY_CONFIG, TrainConfig(epochs=2, seed=1, batch=4))
        ckpt = tmp_path / "tiny.ckpt"
        result.model.save(ckpt)

        from pronassess import SyntheticSpec, generate_corpus
        from pronassess.synth import pseudo_ct
        from pronassess import extract_frame_features, load_wav, read_manifest, write_matrix

        manifest = generate_corpus(SyntheticSpec(n_utterances=1, seed=3), tmp_path / "c")
        entry = read_manifest(manifest)[0]
        # regenerate contextual rows at the tiny model's width
        ff = extract_frame_features(load_wav(entry.wav_path))
        ct16 = tmp_path / "ct16.mtx"
        write_matrix(ct16, pseudo_ct(ff.to_matrix())[:, :TINY_CONFIG.feature_dim])

        rc = main(["score", "--checkpoint", str(ckpt),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"),
                   "--wav", str(entry.wav_path), "--posteriors", str(entry.posterior_path),
                   "--ct", str(ct16), "--phones", " ".join(entry.phones)])
        assert rc == 0
        f, p = [float(v) for v in capsys.readouterr().out.split()]
        assert 0.0 <= f <= 10.0 and 0.0 <= p <= 10.0

    @pytest.mark.parametrize("mode_args, flag", [
        (["--wav", "u.wav", "--posteriors", "u.post.mtx", "--ct", "u.ct.mtx",
          "--phones", "AA", "--out", "single.csv"], "--out"),
        (["--manifest", "m.jsonl", "--wav", "nonexistent.wav"], "--wav"),
    ], ids=["out-without-manifest", "manifest-with-wav"])
    def test_one_mode_exit_3(self, tmp_path, capsys, monkeypatch, mode_args, flag):
        # checked before anything is read: the checkpoint does not exist
        monkeypatch.chdir(tmp_path)
        rc = main(["score", "--checkpoint", "missing.ckpt", "--duration-model", "d.tsv",
                   *mode_args])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not (tmp_path / "single.csv").exists()

    def test_empty_phones_reach_the_aligner(self, tmp_path, capsys):
        from pronassess import ScoringModel, SyntheticSpec, generate_corpus, read_manifest

        entry = read_manifest(generate_corpus(SyntheticSpec(n_utterances=1, seed=3),
                                              tmp_path / "c"))[0]
        ScoringModel(TINY_CONFIG).save(tmp_path / "tiny.ckpt")
        rc = main(["score", "--checkpoint", str(tmp_path / "tiny.ckpt"),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"),
                   "--wav", str(entry.wav_path), "--posteriors", str(entry.posterior_path),
                   "--ct", str(entry.ct_path), "--phones", ""])
        assert rc == 3
        # the single utterance's entry id is its --wav path
        assert capsys.readouterr().err == (
            f"error: {entry.wav_path}: canonical phone sequence is empty\n")

    def test_bad_wav_is_named_once(self, tmp_path, capsys):
        """A WAV format error names the --wav path already, which is also the
        entry id, so the line names it once."""
        from pronassess import ScoringModel, SyntheticSpec, generate_corpus, read_manifest

        entry = read_manifest(generate_corpus(SyntheticSpec(n_utterances=1, seed=3),
                                              tmp_path / "c"))[0]
        entry.wav_path.write_bytes(b"not a wav\n")
        ScoringModel(TINY_CONFIG).save(tmp_path / "tiny.ckpt")
        rc = main(["score", "--checkpoint", str(tmp_path / "tiny.ckpt"),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"),
                   "--wav", str(entry.wav_path), "--posteriors", str(entry.posterior_path),
                   "--ct", str(entry.ct_path), "--phones", " ".join(entry.phones)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {entry.wav_path}: not a RIFF/WAVE file: it must start with RIFF and WAVE\n")

    def test_manifest_mode_matches_batch_of_one(self, tmp_path):
        # 17 utterances of mixed length (10-51 fusion rows each) under a
        # budget of 400 all-valid rows span more than one forward chunk
        from pronassess import ScoringModel, predict_score, prepare_dataset, read_manifest

        manifest, dm_path, ckpt = _score_corpus(tmp_path)
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            chunks = _score_in_chunks(400, ckpt, dm_path, manifest, out)
            assert len(chunks) >= 2
        assert outs[0].read_bytes() == outs[1].read_bytes()

        entries = read_manifest(manifest)
        scores = read_scores(outs[0])
        assert list(scores) == [e.id for e in entries]
        # The CLI scores in the checkpoint's float32; the reference is the
        # float64 forward of the same weights, one utterance at a time, and
        # the tolerance is the benchmark's score gate.
        model = ScoringModel.load(ckpt)
        model.params = {name: p.astype(np.float64) for name, p in model.params.items()}
        dm = read_duration_model(dm_path)
        for entry in entries:
            dist_f, dist_p = model.score_utterance(prepare_dataset([entry], dm)[0])
            f, p = scores[entry.id]
            assert abs(f - predict_score(dist_f)) <= 1e-6
            assert abs(p - predict_score(dist_p)) <= 1e-6

    def test_utterance_over_budget_is_its_own_chunk(self, tmp_path):
        manifest, dm_path, ckpt = _score_corpus(tmp_path)
        whole = tmp_path / "whole.csv"
        assert len(_score_in_chunks(4096, ckpt, dm_path, manifest, whole)) == 1
        split = tmp_path / "split.csv"
        chunks = _score_in_chunks(40, ckpt, dm_path, manifest, split)
        longest = max(max(c) for c in chunks)
        assert longest > 40 and [longest] in chunks  # over the budget alone
        assert any(len(c) > 1 for c in chunks)
        _assert_same_scores(whole, split)

    def test_long_and_short_utterances_share_one_pass(self, tmp_path):
        # One 40-phone utterance and nineteen of 2-4 phones. Utterances times
        # the longest is over SCORE_ROWS, so sizing passes by padded rows
        # split them; their estimated memory is within the budget, so one
        # pass scores them all.
        from pronassess import ScoringModel, SyntheticSpec, generate_corpus, pipeline
        from pronassess.audio_io import write_manifest

        rows = []
        for sub, spec in (("long", SyntheticSpec(n_utterances=1, seed=3, min_phones=40,
                                                 max_phones=40)),
                          ("short", SyntheticSpec(n_utterances=19, seed=4))):
            for line in generate_corpus(spec, tmp_path / sub).read_text().splitlines():
                row = json.loads(line)
                row["id"] = f"{sub}-{row['id']}"
                for key in ("wav_path", "ct_path", "posterior_path"):
                    row[key] = f"{sub}/{row[key]}"
                rows.append(row)
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, rows)
        dm_path = tmp_path / "long" / "durations.tsv"
        ckpt = tmp_path / "full.ckpt"
        ScoringModel(seed=2).save(ckpt)

        whole = tmp_path / "whole.csv"
        [chunk] = _score_in_chunks(pipeline.SCORE_ROWS, ckpt, dm_path, manifest, whole)
        assert len(chunk) == 20 and len(chunk) * max(chunk) > pipeline.SCORE_ROWS
        split = tmp_path / "split.csv"
        assert len(_score_in_chunks(max(chunk), ckpt, dm_path, manifest, split)) >= 2
        _assert_same_scores(whole, split)

    def test_non_finite_checkpoint_tensor_exit_3(self, tmp_path, capsys):
        # one bit flip turns head_f_b[0] = 1.5 (0x3FC00000) into NaN
        from pronassess import ScoringModel, SyntheticSpec, generate_corpus

        manifest = generate_corpus(SyntheticSpec(n_utterances=1, seed=6), tmp_path / "c")
        model = ScoringModel(TINY_CONFIG, seed=0)
        model.params["head_f_b"][0] = 1.5
        ckpt = tmp_path / "nan.ckpt"
        model.save(ckpt)

        def flip(dims, payload):
            at = payload_offset("head_f_b", TINY_CONFIG) + 3
            return dims, payload[:at] + bytes([payload[at] ^ 0x40]) + payload[at + 1 :]

        edit_checkpoint(ckpt, flip)  # resealed, so the finiteness check is reached
        out = tmp_path / "s.csv"
        rc = main(["score", "--checkpoint", str(ckpt),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"),
                   "--manifest", str(manifest), "--out", str(out)])
        assert rc == 3
        assert "'head_f_b' holds non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_vocabulary_mismatch_checkpoint_exit_3(self, tmp_path, capsys):
        # A full-size checkpoint forged for a 50-phone vocabulary, with a
        # payload size and CRC that agree: it must fail at load, not score.
        from pronassess import ScoringModel, SyntheticSpec, generate_corpus

        manifest = generate_corpus(SyntheticSpec(n_utterances=1, seed=6), tmp_path / "c")
        ckpt = tmp_path / "v50.ckpt"
        ScoringModel(seed=0).save(ckpt)
        edit_checkpoint(ckpt, lambda dims, payload: (
            dims.replace("dims 41 ", "dims 50 ", 1), payload + bytes(4 * 9 * 41)))
        out = tmp_path / "s.csv"
        rc = main(["score", "--checkpoint", str(ckpt),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"),
                   "--manifest", str(manifest), "--out", str(out)])
        assert rc == 3
        assert "vocabulary 50, expected 41" in capsys.readouterr().err
        assert not out.exists()

    def test_ckpt1_checkpoint_exit_3(self, tmp_path, capsys):
        # A checkpoint in the earlier CKPT1 layout (a per-tensor index, an
        # END marker, then the float32 blocks) is not read: retrain.
        from pronassess import ScoringModel, SyntheticSpec, generate_corpus

        manifest = generate_corpus(SyntheticSpec(n_utterances=1, seed=6), tmp_path / "c")
        params = ScoringModel(TINY_CONFIG, seed=0).params
        index = ["dims 41 10 3 8 13 11", str(len(params)), *(
            f"{name} {p.size // p.shape[-1]} {p.shape[-1]}" for name, p in params.items())]
        ckpt = tmp_path / "old.ckpt"
        ckpt.write_bytes(b"CKPT1\n" + "\n".join(index + ["END\n"]).encode("ascii")
                         + b"".join(p.astype("<f4").tobytes() for p in params.values()))
        out = tmp_path / "s.csv"
        rc = main(["score", "--checkpoint", str(ckpt),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"),
                   "--manifest", str(manifest), "--out", str(out)])
        assert rc == 3
        assert "expected b'CKPT3\\n'" in capsys.readouterr().err
        assert not out.exists()

    def test_ckpt2_checkpoint_exit_3(self, tmp_path, capsys):
        # A CKPT2 checkpoint was trained with one fusion step per 10-ms
        # contextual row; its layout is otherwise the same, so only the
        # magic keeps it from scoring with different semantics.
        from pronassess import ScoringModel, SyntheticSpec, generate_corpus

        manifest = generate_corpus(SyntheticSpec(n_utterances=1, seed=6), tmp_path / "c")
        ckpt = tmp_path / "old.ckpt"
        ScoringModel(TINY_CONFIG, seed=0).save(ckpt)
        ckpt.write_bytes(b"CKPT2\n" + ckpt.read_bytes()[len(b"CKPT3\n"):])
        out = tmp_path / "s.csv"
        rc = main(["score", "--checkpoint", str(ckpt),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"),
                   "--manifest", str(manifest), "--out", str(out)])
        assert rc == 3
        assert f"bad checkpoint magic b'CKPT2\\n' in {ckpt}, expected b'CKPT3\\n'" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_float32_overflow_exit_3_not_nan(self, tmp_path, capsys):
        # Finite contextual rows of +-3.3e38 overflow the float32 attention
        # scores to +-inf; the softmax turns that into NaN, which must fail
        # loud rather than reach the CSV.
        rc = main(_overflow_score_args(tmp_path))
        assert rc == 3
        assert capsys.readouterr().err == \
            "error: utt0000: input is not a valid 11-class distribution\n"
        assert not (tmp_path / "s.csv").exists()

    def test_wide_contextual_rows_name_the_entry(self, tmp_path, capsys):
        # synth writes 1024-wide rows; a TINY_CONFIG checkpoint takes 16
        from pronassess import ScoringModel, SyntheticSpec, generate_corpus, read_manifest

        manifest = generate_corpus(SyntheticSpec(n_utterances=1, seed=3), tmp_path / "c")
        entry = read_manifest(manifest)[0]
        ScoringModel(TINY_CONFIG).save(tmp_path / "tiny.ckpt")
        rc = main(["score", "--checkpoint", str(tmp_path / "tiny.ckpt"),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"),
                   "--manifest", str(manifest), "--out", str(tmp_path / "s.csv")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {entry.id}: ct must be T x {TINY_CONFIG.feature_dim} with T >= 1, "
            f"got {read_matrix(entry.ct_path).shape}\n")
        assert not (tmp_path / "s.csv").exists()

    def test_float32_overflow_stderr_is_error_line_only(self, tmp_path, capfd):
        # In its own process, where numpy's RuntimeWarnings would reach stderr
        args = _overflow_score_args(tmp_path)
        src = Path(__file__).resolve().parents[1] / "src"
        rc = subprocess.run([sys.executable, "-m", "pronassess.cli", *args],
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=300).returncode
        assert rc == 3
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "not a valid 11-class distribution" in err[0]

    @pytest.mark.parametrize("field", ["wav_path", "posterior_path", "ct_path"])
    def test_directory_path_exit_2(self, tmp_path, capsys, field):
        # an empty path joins to the manifest's own directory
        import json

        from pronassess import ScoringModel, SyntheticSpec, generate_corpus

        manifest = generate_corpus(SyntheticSpec(n_utterances=2, seed=6), tmp_path / "c")
        lines = manifest.read_text().splitlines()
        obj = json.loads(lines[1])
        obj[field] = ""
        lines[1] = json.dumps(obj)
        manifest.write_text("\n".join(lines) + "\n")
        ckpt = tmp_path / "tiny.ckpt"
        ScoringModel(TINY_CONFIG, seed=0).save(ckpt)
        rc = main(["score", "--checkpoint", str(ckpt),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"),
                   "--manifest", str(manifest), "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "is a directory" in err and str(tmp_path / "c") in err

    @pytest.mark.parametrize("kind", ["missing-parent", "parent-is-file", "out-is-a-directory"])
    def test_bad_out_checked_before_featurizing(self, tmp_path, capsys, monkeypatch, kind):
        from pronassess import ScoringModel, SyntheticSpec, cli, generate_corpus

        def never(*args, **kwargs):
            pytest.fail("featurized before --out was checked")

        monkeypatch.setattr(cli, "prepared_chunks", never)
        manifest = generate_corpus(SyntheticSpec(n_utterances=1, seed=6), tmp_path / "c")
        (tmp_path / "a-file").write_text("")
        (tmp_path / "a-dir").mkdir()
        out, reason = {
            "missing-parent": (tmp_path / "nope" / "s.csv", "no such file"),
            "parent-is-file": (tmp_path / "a-file" / "s.csv",
                               "a file where a directory is expected"),
            "out-is-a-directory": (tmp_path / "a-dir", "is a directory, not a file"),
        }[kind]
        ckpt = tmp_path / "tiny.ckpt"
        args = ["score", "--checkpoint", str(ckpt),
                "--duration-model", str(tmp_path / "c" / "durations.tsv"),
                "--manifest", str(manifest), "--out", str(out)]
        # a checkpoint error still comes first
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: no such file: {ckpt}\n"
        ScoringModel(TINY_CONFIG, seed=0).save(ckpt)
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {reason}: {out}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir", "a-file", "c", "tiny.ckpt"]
        assert not any((tmp_path / "a-dir").iterdir())

    def test_out_is_utf8_under_an_ascii_locale(self, tmp_path):
        # An id outside ASCII reached the CSV through the locale's encoding,
        # which failed after every entry was scored.
        from pronassess import ScoringModel, SyntheticSpec, generate_corpus

        manifest = generate_corpus(SyntheticSpec(n_utterances=1, seed=6), tmp_path / "c")
        row = json.loads(manifest.read_text())
        row["id"] = "naïve-日本"
        manifest.write_text(json.dumps(row) + "\n")
        ckpt = tmp_path / "full.ckpt"
        ScoringModel(seed=0).save(ckpt)
        out = tmp_path / "s.csv"
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
        run = subprocess.run(
            [sys.executable, "-m", "pronassess.cli", "score", "--checkpoint", str(ckpt),
             "--duration-model", str(tmp_path / "c" / "durations.tsv"),
             "--manifest", str(manifest), "--out", str(out)],
            env=env, capture_output=True, timeout=300)
        assert (run.returncode, run.stderr) == (0, b"")
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,fluency,prosody" and lines[1].startswith("naïve-日本,")


@pytest.mark.parametrize("short", [None, (26, 2)], ids=["all-valid", "long-plus-short"])
def test_score_pass_memory_stays_within_its_estimate(short):
    """The tracemalloc peak of a full-size float32 forward over a chunk at
    the budget is within `_pass_kib`'s estimate for it: a chunk of equal
    202-row utterances, all rows valid, and one 202-row utterance followed
    by 16-row ones, mostly padding. Each chunk is as large as the budget
    allows."""
    import tracemalloc

    from pronassess import ScoringModel, pipeline
    from pronassess.model import ModelConfig

    pass_kib, budget = pipeline._pass_kib, pipeline.SCORE_ROWS
    long = (341, 30)  # 341 frames and 30 phones: 202 fusion rows
    more = short or long
    shapes = [long]
    while pass_kib([fusion_steps(*s) for s in shapes + [more]]) <= pass_kib([budget]):
        shapes.append(more)
    rows = [fusion_steps(*s) for s in shapes]
    assert len(shapes) > 1 and (short is None or len(rows) * max(rows) > budget)

    model = ScoringModel(seed=0)
    model.params = {k: p.astype(np.float32) for k, p in model.params.items()}
    rng = np.random.default_rng(0)
    batch = [make_utt(rng, phones, frames, cfg=ModelConfig()) for frames, phones in shapes]
    for utt in batch:
        utt.ct = utt.ct.astype(np.float32)  # as MTX1 files give them
    tracemalloc.start()
    try:
        model.forward_batch(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pass_kib(rows) * 1024


class TestScoreErrorOrder:
    """`score` featurizes a chunk's entries in one front-end pass while the
    checkpoint loads on a worker thread; the error reported must still be
    the one that preparing entries one at a time, after the load, gives."""

    def _corpus(self, tmp_path, n=6):
        from pronassess import SyntheticSpec, generate_corpus, read_manifest

        manifest = generate_corpus(SyntheticSpec(n_utterances=n, seed=6), tmp_path / "c")
        return manifest, tmp_path / "c" / "durations.tsv", read_manifest(manifest)

    def _score(self, ckpt, dm, manifest, tmp_path):
        return main(["score", "--checkpoint", str(ckpt), "--duration-model", str(dm),
                     "--manifest", str(manifest), "--out", str(tmp_path / "s.csv")])

    def _rewrite(self, manifest, **changes):
        """Set field to value in manifest row i, for each e<i>=(field, value)."""
        import json

        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        for k, (field, value) in changes.items():
            rows[int(k[1:])][field] = str(value)
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))

    @pytest.mark.parametrize("other_kind, ckpt_kind", [
        *((other, ckpt) for other in ("empty", "bad-entry") for ckpt in ("missing", "corrupt")),
        ("missing-duration-model", "symlink-loop")])
    def test_checkpoint_error_wins(self, tmp_path, capsys, ckpt_kind, other_kind):
        manifest, dm, entries = self._corpus(tmp_path, n=2)
        if other_kind == "empty":
            manifest.write_text("")
        elif other_kind == "bad-entry":
            self._rewrite(manifest, e0=("wav_path", tmp_path / "nope.wav"))
        else:
            dm = tmp_path / "nope.tsv"
        ckpt = tmp_path / "model.ckpt"
        if ckpt_kind == "corrupt":
            ckpt.write_bytes(b"not a checkpoint\n")
        elif ckpt_kind == "symlink-loop":
            ckpt.symlink_to(ckpt)
        rc = self._score(ckpt, dm, manifest, tmp_path)
        err = capsys.readouterr().err
        if ckpt_kind == "corrupt":
            assert rc == 3 and err.startswith("error: bad checkpoint magic") and str(ckpt) in err
        else:
            reason = "no such file" if ckpt_kind == "missing" else os.strerror(errno.ELOOP)
            assert (rc, err) == (2, f"error: {reason}: {ckpt}\n")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("later", ["missing-wav", "too-short-wav"])
    def test_first_bad_entry_of_a_chunk_wins(self, tmp_path, capsys, later):
        # entry 2 (index 1) has one contextual row too few; entry 5's WAV is
        # missing or under one window, which is found first, when its frame
        # count is read to decide the chunk
        from pronassess import AudioBuffer, ScoringModel

        manifest, dm, entries = self._corpus(tmp_path)
        short_ct = tmp_path / "short.ct.mtx"
        write_matrix(short_ct, read_matrix(entries[1].ct_path)[:-1])
        tiny = tmp_path / "tiny.wav"
        write_wav(tiny, AudioBuffer(np.zeros(399)))
        self._rewrite(manifest, e1=("ct_path", short_ct),
                      e4=("wav_path", tmp_path / "nope.wav" if later == "missing-wav" else tiny))
        ckpt = tmp_path / "tiny.ckpt"
        ScoringModel(TINY_CONFIG, seed=0).save(ckpt)
        rc = self._score(ckpt, dm, manifest, tmp_path)
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: {entries[1].id}: contextual rows")

    def test_next_chunks_first_entry_is_prepared_after_the_forward(self, tmp_path, capsys,
                                                                   monkeypatch):
        # Entry 1 overflows the float32 forward, and entry 2's posteriors have
        # a row too few. With a budget that puts them in separate chunks, entry
        # 2 is prepared with its own chunk, after entry 1's chunk is scored.
        from pronassess import ScoringModel, pipeline

        manifest, dm, entries = self._corpus(tmp_path, n=2)
        good_ct = read_matrix(entries[0].ct_path)
        ct = good_ct.copy()
        ct[:2], ct[2:4] = 3.3e38, -3.3e38
        write_matrix(entries[0].ct_path, ct)
        short_post = tmp_path / "short.post.mtx"
        write_matrix(short_post, read_matrix(entries[1].posterior_path)[:-1])
        self._rewrite(manifest, e1=("posterior_path", short_post))
        ckpt = tmp_path / "full.ckpt"
        ScoringModel(seed=0).save(ckpt)
        monkeypatch.setattr(pipeline, "SCORE_ROWS", 1)
        rc = self._score(ckpt, dm, manifest, tmp_path)
        assert rc == 3
        assert "not a valid 11-class distribution" in capsys.readouterr().err
        # with entry 1 repaired, entry 2's short posteriors are what fails
        write_matrix(entries[0].ct_path, good_ct)
        rc = self._score(ckpt, dm, manifest, tmp_path)
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: {entries[1].id}: posterior frames")
