"""Synthetic corpus generation and the feature-preparation pipeline."""

import hashlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pronassess import (
    SyntheticSpec,
    dtw_align,
    generate_corpus,
    lstm,
    pipeline,
    prepare_dataset,
    pseudo_ct,
    read_alignment,
    read_duration_model,
    read_manifest,
    read_matrix,
)
from pronassess.durations import MIN_COUNT, STD_FLOOR_MS
from pronassess.errors import TooShortError, ValidationError
from pronassess.model import fusion_steps
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

    def test_bytes_do_not_depend_on_the_callers_blas_threads(self, tmp_path):
        """One spec generated with numpy's OpenBLAS at 1 thread and at 3
        gives the same files (criterion 9 across BLAS thread counts)."""
        get, set_ = lstm._blas_thread_probe()
        if set_ is None:
            pytest.skip("numpy's OpenBLAS has no thread setter")
        spec = SyntheticSpec(n_utterances=4, seed=9, min_phones=2, max_phones=40)
        before = get()
        try:
            for threads in (1, 3):
                set_(threads)
                generate_corpus(spec, tmp_path / str(threads))
                assert get() == threads
        finally:
            set_(before)
        assert tree_digest(tmp_path / "1") == tree_digest(tmp_path / "3")

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

    def test_each_posterior_matrix_is_validated_once(self, corpus, monkeypatch):
        from pronassess import aligner

        out, manifest = corpus
        entries = read_manifest(manifest)
        calls = []
        for module in (pipeline, aligner):
            check = module.validate_posteriors
            monkeypatch.setattr(module, "validate_posteriors",
                                lambda *a, check=check, **k: calls.append(k) or check(*a, **k))
        dataset = prepare_dataset(entries, read_duration_model(out / "durations.tsv"))
        assert calls == [{"check_normalized": True}] * len(entries)
        assert [utt.id for utt in dataset] == [entry.id for entry in entries]

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
            prepare_dataset([entry], model)

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
            prepare_dataset([entry], model)


def _utterance_bytes(utt) -> tuple:
    f = utt.fusion
    return (f.gopd.tobytes(), f.pooled.tobytes(), f.phone_indices.tobytes(), utt.ct.tobytes(),
            utt.u_nv.tobytes(), utt.fluency, utt.prosody)


@contextmanager
def recorded_chunks(budget, owner):
    """Set the chunk budget to `budget` all-valid fusion rows, and record
    each chunk that `owner.prepared_chunks` yields as its utterances'
    fusion lengths."""
    chunks, prepared_chunks = [], pipeline.prepared_chunks

    def recording(entries, duration_model):
        for chunk in prepared_chunks(entries, duration_model):
            chunks.append([fusion_steps(len(u.ct), len(u.fusion)) for u in chunk])
            yield chunk

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "SCORE_ROWS", budget)
        mp.setattr(owner, "prepared_chunks", recording)
        yield chunks


def check_chunks(chunks, budget):
    """Every chunk's estimated memory (VALID_ROW_KIB per valid row plus
    PADDED_ROW_KIB per padded row) keeps to that of `budget` all-valid rows,
    or the chunk is one utterance, and a chunk closed only when the next
    utterance would have broken it."""
    def kib(rows):
        return pipeline.VALID_ROW_KIB * sum(rows) + \
            pipeline.PADDED_ROW_KIB * len(rows) * max(rows)

    limit = (pipeline.VALID_ROW_KIB + pipeline.PADDED_ROW_KIB) * budget
    for chunk, following in zip(chunks, chunks[1:] + [None]):
        assert len(chunk) == 1 or kib(chunk) <= limit
        if following:
            assert kib(chunk + following[:1]) > limit


class TestGroupedPipeline:
    """prepare_dataset runs the front end once per chunk of entries; its
    output and its errors must be those of one entry at a time."""

    @pytest.fixture(scope="class")
    def one_at_a_time(self, corpus):
        out, manifest = corpus
        model = read_duration_model(out / "durations.tsv")
        return [_utterance_bytes(prepare_dataset([e], model)[0]) for e in read_manifest(manifest)]

    def _chunked(self, corpus, one_at_a_time, budget):
        out, manifest = corpus
        entries = read_manifest(manifest)
        model = read_duration_model(out / "durations.tsv")
        with recorded_chunks(budget, pipeline) as chunks:
            dataset = prepare_dataset(entries, model)
        assert [_utterance_bytes(u) for u in dataset] == one_at_a_time
        assert sum(map(len, chunks)) == len(entries)
        check_chunks(chunks, budget)
        return chunks

    @pytest.mark.parametrize("budget", [4096, 60], ids=["one-group", "many-groups"])
    def test_matches_one_entry_at_a_time(self, corpus, one_at_a_time, budget):
        chunks = self._chunked(corpus, one_at_a_time, budget)
        assert (len(chunks) == 1) == (budget == 4096)

    # The 8 utterances hold 145 fusion rows and are one chunk from a budget of
    # 154 rows up, so budgets up to 300 cover every chunking.
    @settings(max_examples=40, deadline=None)
    @given(budget=st.integers(1, 300))
    @example(budget=1)
    def test_matches_one_entry_at_a_time_at_any_budget(self, corpus, one_at_a_time, budget):
        self._chunked(corpus, one_at_a_time, budget)

    @pytest.mark.parametrize("budget", [1, 60, 4096])
    def test_one_front_end_pass_per_chunk(self, corpus, monkeypatch, budget):
        out, manifest = corpus
        passes, frame_features = [], pipeline.frame_features

        def recording(bufs):
            passes.append(len(bufs))
            return frame_features(bufs)

        monkeypatch.setattr(pipeline, "frame_features", recording)
        with recorded_chunks(budget, pipeline) as chunks:
            prepare_dataset(read_manifest(manifest), read_duration_model(out / "durations.tsv"))
        assert passes == [len(chunk) for chunk in chunks]

    def _bad_entries(self, corpus, tmp_path):
        from pronassess import AudioBuffer, write_matrix, write_wav

        out, manifest = corpus
        entries = read_manifest(manifest)
        short_ct = tmp_path / "short.ct.mtx"
        write_matrix(short_ct, read_matrix(entries[1].ct_path)[:-1])
        entries[1].ct_path = short_ct
        too_short = tmp_path / "tiny.wav"
        write_wav(too_short, AudioBuffer(np.zeros(399)))
        return entries, read_duration_model(out / "durations.tsv"), too_short

    @pytest.mark.parametrize("later", ["missing", "too-short"])
    def test_first_bad_entry_wins(self, corpus, tmp_path, later):
        # entry 1's contextual rows are one short; entry 4's WAV is missing
        # or under one window, which is found before entry 1 is featurized
        entries, model, too_short = self._bad_entries(corpus, tmp_path)
        entries[4].wav_path = tmp_path / "nope.wav" if later == "missing" else too_short
        with pytest.raises(ValidationError, match=f"{entries[1].id}: contextual rows"):
            prepare_dataset(entries, model)

    @pytest.mark.parametrize("later", ["missing", "too-short"])
    def test_closing_entrys_bad_wav_waits_for_the_chunk_before(self, corpus, tmp_path,
                                                               monkeypatch, later):
        # At a budget of 1 row, entry 1 closes entry 0's chunk: both WAVs are
        # read before either entry is prepared. Entry 0's contextual rows are
        # one short, and entry 1's WAV is missing or under one window.
        entries, model, too_short = self._bad_entries(corpus, tmp_path)
        entries = entries[1:]  # the entry with short contextual rows first
        entries[1].wav_path = tmp_path / "nope.wav" if later == "missing" else too_short
        monkeypatch.setattr(pipeline, "SCORE_ROWS", 1)
        with pytest.raises(ValidationError, match=f"{entries[0].id}: contextual rows"):
            prepare_dataset(entries, model)
        # with entry 0 repaired, entry 1's WAV is what fails
        entries[0].ct_path = read_manifest(corpus[1])[1].ct_path
        with pytest.raises(FileNotFoundError if later == "missing" else TooShortError):
            prepare_dataset(entries, model)
