"""Synthetic corpus generation and the feature-preparation pipeline."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from pronassess import (
    SyntheticSpec,
    dtw_align,
    generate_corpus,
    prepare_dataset,
    prepare_utterance,
    pseudo_ct,
    read_alignment,
    read_duration_model,
    read_manifest,
    read_matrix,
    synth,
)
from pronassess.durations import MIN_COUNT, STD_FLOOR_MS
from pronassess.errors import ValidationError
from pronassess.synth import fluency_label, generator_duration_model, prosody_label


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest = generate_corpus(SyntheticSpec(n_utterances=8, seed=21), out)
    return out, manifest


class TestGenerator:
    def test_seed_determinism(self, tmp_path):
        spec = SyntheticSpec(n_utterances=3, seed=7)
        generate_corpus(spec, tmp_path / "a")
        generate_corpus(spec, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_jobs_do_not_change_bytes(self, tmp_path):
        spec = SyntheticSpec(n_utterances=4, seed=9)
        generate_corpus(spec, tmp_path / "serial", jobs=1)
        generate_corpus(spec, tmp_path / "parallel", jobs=2)
        assert tree_digest(tmp_path / "serial") == tree_digest(tmp_path / "parallel")

    @pytest.mark.parametrize("jobs,cpus,workers", [
        (64, 8, 3),    # no more workers than utterances
        (64, 2, 2),    # nor than CPUs
        (2, 8, 2),
        (64, None, 1),  # CPU count unknown: serial
        (1, 8, 1),
    ])
    def test_worker_count_capped(self, tmp_path, monkeypatch, jobs, cpus, workers):
        started = []

        class SerialPool:
            """Records its process count and maps in this process."""

            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        monkeypatch.setattr(synth, "Pool", SerialPool)
        monkeypatch.setattr(synth.os, "cpu_count", lambda: cpus)
        generate_corpus(SyntheticSpec(n_utterances=3, seed=9), tmp_path, jobs=jobs)
        assert started == ([workers] if workers > 1 else [])
        assert len(read_manifest(tmp_path / "manifest.jsonl")) == 3

    def test_label_rule_fixed_points(self):
        assert fluency_label(0.0) == 10
        assert fluency_label(-100.0) == 0
        assert prosody_label(0.0) == 2

    def test_generator_duration_model_valid(self):
        model = generator_duration_model()
        assert model.global_stats.count >= 1
        for st in model.phones.values():
            assert st.std_ms >= STD_FLOOR_MS and st.count >= MIN_COUNT

    def test_posteriors_are_normalized(self, corpus):
        out, manifest = corpus
        entry = read_manifest(manifest)[0]
        mat = read_matrix(entry.posterior_path)
        lse = np.log(np.exp(mat).sum(axis=1))
        assert np.abs(lse).max() <= 1e-3

    def test_realignment_recovers_ground_truth(self, corpus):
        out, manifest = corpus
        total = exact = 0
        for entry in read_manifest(manifest):
            alignment, _ = dtw_align(read_matrix(entry.posterior_path), entry.phones)
            truth = read_alignment(out / "alignments" / f"{entry.id}.tsv")
            for a, b in zip(alignment.spans, truth.spans):
                total += 1
                exact += a == b
        assert exact / total >= 0.95

    def test_pseudo_ct_shape_and_determinism(self):
        rng = np.random.default_rng(30)
        frames = rng.normal(size=(12, 5))
        a = pseudo_ct(frames)
        assert a.shape == (12, 1024)
        assert np.array_equal(a, pseudo_ct(frames))

    def test_bad_spec(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_utterances=0)
        with pytest.raises(ValidationError):
            SyntheticSpec(n_utterances=1, min_phones=5, max_phones=2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
            SyntheticSpec(n_utterances=1, seed=-1)


class TestPipeline:
    def test_prepare_dataset_shapes(self, corpus):
        out, manifest = corpus
        entries = read_manifest(manifest)
        model = read_duration_model(out / "durations.tsv")
        dataset = prepare_dataset(entries, model)
        assert len(dataset) == len(entries)
        for utt, entry in zip(dataset, entries):
            assert len(utt.fusion) == len(entry.phones)
            assert utt.ct.shape[1] == 1024
            np.testing.assert_array_equal(utt.ct, read_matrix(entry.ct_path))
            assert utt.ct.dtype == np.float32  # exact: MTX1 stores float32
            assert utt.u_nv.shape == (13,)
            assert utt.fluency == entry.fluency and utt.prosody == entry.prosody

    def test_posterior_frame_mismatch_rejected(self, corpus, tmp_path):
        out, manifest = corpus
        entries = read_manifest(manifest)
        model = read_duration_model(out / "durations.tsv")
        entry = entries[0]
        from pronassess import write_matrix

        bad = tmp_path / "bad.post.mtx"
        write_matrix(bad, read_matrix(entry.posterior_path)[:-1])
        entry.posterior_path = bad
        with pytest.raises(ValidationError, match="frames"):
            prepare_utterance(entry, model)

    def test_unnormalized_posteriors_rejected(self, corpus, tmp_path):
        out, manifest = corpus
        entries = read_manifest(manifest)
        model = read_duration_model(out / "durations.tsv")
        entry = entries[0]
        from pronassess import write_matrix

        bad = tmp_path / "raw.post.mtx"
        write_matrix(bad, read_matrix(entry.posterior_path) + 3.0)
        entry.posterior_path = bad
        with pytest.raises(ValidationError, match="normalized"):
            prepare_utterance(entry, model)
