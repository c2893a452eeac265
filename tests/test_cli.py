"""Subcommand behaviour, exit codes, and stdout payloads."""

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
from pronassess.cli import main
from pronassess.inventory import PHONE_TO_INDEX
from pronassess.model import TINY_CONFIG
from pronassess.train import TrainConfig, train

from test_model import make_utt


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

    def test_empty_dir(self, tmp_path):
        adir = tmp_path / "empty"
        adir.mkdir()
        rc = main(["fit-durations", "--alignments", str(adir), "--out", "m.tsv"])
        assert rc == 5


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
        from pronassess import SyntheticSpec, generate_corpus, prepare_utterance, read_manifest

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
        fusion = prepare_utterance(entry, read_duration_model(durations)).fusion
        expected = fusion.numeric_block().astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(read_matrix(out), expected)
        sidecar = (tmp_path / "fusion.mtx.phones").read_text().splitlines()[1:]
        assert [int(line.split("\t")[1]) for line in sidecar] == list(fusion.phone_indices)


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

    def test_prediction_not_in_gold(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,fluency,prosody\nu1,3,4\nu2,7,2\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("id,fluency,prosody\nu1,3,4\nu2,7,2\nu9,1,1\n")
        assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 3
        assert "u9" in capsys.readouterr().err


class TestSynthCli:
    def test_determinism(self, tmp_path, capsys):
        for name in ("a", "b"):
            rc = main(["synth", "--n", "1", "--seed", "7", "--out", str(tmp_path / name)])
            assert rc == 0
        from test_synth import tree_digest

        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


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
        write_matrix(ct16, pseudo_ct(ff.to_matrix(), dim=TINY_CONFIG.feature_dim))

        rc = main(["score", "--checkpoint", str(ckpt),
                   "--duration-model", str(tmp_path / "c" / "durations.tsv"),
                   "--wav", str(entry.wav_path), "--posteriors", str(entry.posterior_path),
                   "--ct", str(ct16), "--phones", " ".join(entry.phones)])
        assert rc == 0
        f, p = [float(v) for v in capsys.readouterr().out.split()]
        assert 0.0 <= f <= 10.0 and 0.0 <= p <= 10.0

    def test_manifest_mode_matches_batch_of_one(self, tmp_path):
        # 17 utterances of mixed length span two forward chunks
        from pronassess import (
            ScoringModel, SyntheticSpec, generate_corpus, predict_score, prepare_utterance,
            read_manifest,
        )

        manifest = generate_corpus(
            SyntheticSpec(n_utterances=17, seed=4, min_phones=2, max_phones=8), tmp_path / "c"
        )
        ckpt = tmp_path / "full.ckpt"
        ScoringModel(seed=2).save(ckpt)
        dm_path = tmp_path / "c" / "durations.tsv"
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            rc = main(["score", "--checkpoint", str(ckpt), "--duration-model", str(dm_path),
                       "--manifest", str(manifest), "--out", str(out)])
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

        entries = read_manifest(manifest)
        rows = [line.split(",") for line in outs[0].read_text().splitlines()]
        assert rows[0] == ["id", "fluency", "prosody"]
        assert [r[0] for r in rows[1:]] == [e.id for e in entries]
        model = ScoringModel.load(ckpt)
        dm = read_duration_model(dm_path)
        for entry, (_, f, p) in zip(entries, rows[1:]):
            dist_f, dist_p = model.score_utterance(prepare_utterance(entry, dm))
            assert abs(float(f) - predict_score(dist_f)) <= 1e-9
            assert abs(float(p) - predict_score(dist_p)) <= 1e-9

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
