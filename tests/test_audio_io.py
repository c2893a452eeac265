"""Serialization round trips and format-error behaviour."""

import io
import json
import re
import struct
import wave

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pronassess import (
    Alignment,
    AudioBuffer,
    DurationModel,
    PhoneStats,
    Span,
    SyntheticSpec,
    generate_corpus,
    load_wav,
    read_alignment,
    read_duration_model,
    read_manifest,
    read_matrix,
    write_alignment,
    write_duration_model,
    write_matrix,
    write_wav,
)
from pronassess.audio_io import GLOBAL_PHONE, SAMPLE_RATE, read_scores, read_text, score_text
from pronassess.errors import FormatError, UnsupportedFormatError, ValidationError
from pronassess.inventory import PHONE_TO_INDEX, PHONEMES

from test_fuzz_inputs import corrupt, edits


def _write_pcm16(path, samples, rate=16000, channels=1):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(np.asarray(samples, dtype="<i2").tobytes())


def _reference_load_wav(path) -> np.ndarray:
    """The earlier `wave`-based reader, kept as the reference that
    `load_wav` may tighten but never loosen; returns the samples."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        with wave.open(io.BytesIO(blob), "rb") as wf:
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            comp = wf.getcomptype()
            n = wf.getnframes()
            raw = wf.readframes(n)
    except wave.Error as exc:
        raise FormatError(f"not a valid RIFF/WAVE file: {exc}") from exc
    except RuntimeError as exc:  # raised by wave for a seek outside a chunk
        raise FormatError("not a valid RIFF/WAVE file: bad chunk size") from exc
    except EOFError as exc:
        raise FormatError("truncated WAV file") from exc
    if comp != "NONE":
        raise UnsupportedFormatError(f"compression type {comp!r} not supported, need PCM")
    if channels != 1:
        raise UnsupportedFormatError(f"channels = {channels}, only mono is supported")
    if rate != SAMPLE_RATE:
        raise UnsupportedFormatError(f"sample rate = {rate} Hz, only {SAMPLE_RATE} Hz is supported")
    if width != 2:
        raise UnsupportedFormatError(f"sample width = {width} bytes, only 16-bit PCM is supported")
    if n == 0:
        raise FormatError("WAV data chunk is empty")
    if len(raw) != 2 * n:
        raise FormatError(f"truncated WAV file: header declares {n} samples "
                          f"({2 * n} bytes), data chunk holds {len(raw)} bytes")
    # `wave` reads only as far as the data chunk's declared size, so a
    # lowered size would silently drop samples. The chunks, each with a
    # printable ASCII id and padded to even length, must tile the file;
    # left-over sample bytes (silence too) rarely do.
    pos = 12
    while pos + 8 <= len(blob):
        cid, size = struct.unpack_from("<4sI", blob, pos)
        if not all(32 <= c < 127 for c in cid):
            break
        pos += 8 + size + size % 2
    if pos != len(blob):
        raise FormatError(f"WAV chunks do not tile the file: they end at byte {pos} "
                          f"of {len(blob)}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return samples


@pytest.fixture(scope="module")
def synth_wav(tmp_path_factory):
    """A synthetic corpus WAV (3440 samples behind a 44-byte header) and a
    path for edited copies of it."""
    out = tmp_path_factory.mktemp("synth_wav")
    manifest = generate_corpus(SyntheticSpec(n_utterances=1, seed=6), out)
    return read_manifest(manifest)[0].wav_path.read_bytes(), out / "edited.wav"


class TestWav:
    def test_zero_second_file(self, tmp_path):
        p = tmp_path / "z.wav"
        _write_pcm16(p, np.zeros(16000, dtype=np.int16))
        buf = load_wav(p)
        assert buf.samples.size == 16000
        assert np.all(buf.samples == 0.0)

    def test_scaling_identity(self, tmp_path):
        p = tmp_path / "one.wav"
        _write_pcm16(p, np.array([32767], dtype=np.int16))
        buf = load_wav(p)
        assert buf.samples.tolist() == [32767 / 32768]

    def test_rejects_8khz(self, tmp_path):
        p = tmp_path / "8k.wav"
        _write_pcm16(p, np.zeros(100, dtype=np.int16), rate=8000)
        with pytest.raises(UnsupportedFormatError, match="rate"):
            load_wav(p)

    def test_rejects_stereo(self, tmp_path):
        p = tmp_path / "st.wav"
        _write_pcm16(p, np.zeros(200, dtype=np.int16), channels=2)
        with pytest.raises(UnsupportedFormatError, match="channels"):
            load_wav(p)

    def test_rejects_malformed_riff(self, tmp_path):
        p = tmp_path / "junk.wav"
        p.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(FormatError):
            load_wav(p)

    @pytest.mark.parametrize("tail", ["ramp", "silence"])
    def test_rejects_lowered_data_size(self, tmp_path, tail):
        p = tmp_path / "low.wav"
        samples = np.arange(3440) % 2000 - 1000
        if tail == "silence":  # zero bytes would read as empty chunks without the id check
            samples[1392:] = 0
        _write_pcm16(p, samples)  # data chunk of 6880 = 0x1AE0 bytes
        blob = bytearray(p.read_bytes())
        blob[41] ^= 1 << 4  # declares 0x0AE0 bytes, 1392 samples; 4096 bytes left over
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="do not tile the file"):
            load_wav(p)

    def test_accepts_padded_chunk_after_data(self, tmp_path):
        p = tmp_path / "list.wav"
        _write_pcm16(p, np.arange(5))
        with open(p, "ab") as fh:
            fh.write(b"LIST" + struct.pack("<I", 3) + b"abc\0")  # odd size, one pad byte
        blob = bytearray(p.read_bytes())
        blob[4:8] = struct.pack("<I", len(blob) - 8)  # the RIFF size covers the new chunk
        p.write_bytes(bytes(blob))
        assert load_wav(p).samples.tolist() == [k / 32768 for k in range(5)]
        with open(p, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(FormatError, match="do not tile the file"):
            load_wav(p)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pcm = rng.integers(-32768, 32768, size=500).astype(np.int16)
        p = tmp_path / "rt.wav"
        _write_pcm16(p, pcm)
        buf = load_wav(p)
        q = tmp_path / "rt2.wav"
        write_wav(q, buf)
        assert p.read_bytes() == q.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(samples=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64))
    @example(samples=[1.0, -1.0, 0.5 / 32768, -0.5 / 32768])  # clipped, and ties to even
    def test_write_wav_returns_what_load_wav_reads(self, tmp_path_factory, samples):
        p = tmp_path_factory.mktemp("wav") / "w.wav"
        written = write_wav(p, AudioBuffer(samples))
        assert written.samples.dtype == np.float64
        assert written.samples.tobytes() == load_wav(p).samples.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(edit=edits)
    @example(edit=("flip", 8 * 4))  # raises the RIFF size by one
    @example(edit=("flip", 8 * 28))  # byte rate 32001
    @example(edit=("flip", 8 * 41 + 4))  # lowers the data size, leaving bytes over
    @example(edit=("cut", 45))  # 44-byte header and one byte of a sample
    @example(edit=("flip", 8 * 44))  # a sample's low bit: both load
    def test_loads_no_more_than_reference(self, synth_wav, edit):
        blob, path = synth_wav
        path.write_bytes(corrupt(blob, edit))
        try:
            want = _reference_load_wav(path)
        except FormatError:
            with pytest.raises(FormatError):
                load_wav(path)
            return
        try:
            got = load_wav(path).samples
        except FormatError:
            return  # a rule the reference did not check (RIFF size, byte rate, block align)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bit", range(8 * 44))
    def test_header_bit_flip_rejected(self, synth_wav, bit):
        blob, path = synth_wav
        path.write_bytes(corrupt(blob, ("flip", bit)))
        with pytest.raises(FormatError):
            load_wav(path)

    def test_buffer_validation(self):
        with pytest.raises(ValidationError):
            AudioBuffer(np.array([]))
        with pytest.raises(ValidationError):
            AudioBuffer(np.array([1.5]))


class TestMatrix:
    def test_round_trip_example(self, tmp_path):
        p = tmp_path / "m.mtx"
        mat = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        write_matrix(p, mat)
        back = read_matrix(p)
        assert back.shape == (2, 3) and back.dtype == np.float32 and back.flags.writeable
        assert np.array_equal(back, mat)

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(42)
        for k in range(100):
            rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            mat = rng.normal(0, 10, (rows, cols)).astype(np.float32).astype(np.float64)
            p = tmp_path / f"r{k}.mtx"
            write_matrix(p, mat)
            back = read_matrix(p)
            assert back.shape == mat.shape and np.array_equal(back, mat)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_bytes(b"XTM1" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(FormatError, match="magic"):
            read_matrix(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "tr.mtx"
        p.write_bytes(b"MTX1" + struct.pack("<II", 4, 4) + b"\x00" * (15 * 4))
        with pytest.raises(FormatError, match="truncated"):
            read_matrix(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "tb.mtx"
        p.write_bytes(b"MTX1" + struct.pack("<II", 1, 1) + b"\x00" * 8)
        with pytest.raises(FormatError, match="trailing"):
            read_matrix(p)

    def test_nonfinite_rejected_on_write(self, tmp_path):
        with pytest.raises(ValidationError):
            write_matrix(tmp_path / "n.mtx", np.array([[np.inf]]))

    def test_nonfinite_rejected_on_read(self, tmp_path):
        p = tmp_path / "n.mtx"
        p.write_bytes(b"MTX1" + struct.pack("<II", 1, 1) + struct.pack("<f", np.nan))
        with pytest.raises(FormatError, match="non-finite"):
            read_matrix(p)


class TestAlignmentFile:
    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(1)
        for k in range(100):
            spans, start = [], 0
            for _ in range(int(rng.integers(1, 6))):
                n = int(rng.integers(1, 8))
                spans.append(Span(PHONEMES[int(rng.integers(41))], start, start + n - 1))
                start += n
            a = Alignment(spans)
            p = tmp_path / f"a{k}.tsv"
            write_alignment(p, a)
            assert read_alignment(p).spans == a.spans

    def test_bad_header(self, tmp_path):
        p = tmp_path / "h.tsv"
        p.write_text("a\tb\n")
        with pytest.raises(FormatError):
            read_alignment(p)

    def test_unknown_symbol(self, tmp_path):
        p = tmp_path / "u.tsv"
        p.write_text("phone\tstart_frame\tend_frame\nZZ\t0\t1\n")
        with pytest.raises(ValidationError, match="ZZ"):
            read_alignment(p)

    def test_alignment_invariants(self):
        with pytest.raises(ValidationError):
            Alignment([Span("AA", 1, 2)])  # must start at 0
        with pytest.raises(ValidationError):
            Alignment([Span("AA", 0, 1), Span("B", 3, 4)])  # gap
        with pytest.raises(ValidationError):
            Alignment([Span("AA", 0, -1)])  # empty span


class TestDurationModelFile:
    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(2)
        for k in range(100):
            phones = {}
            for i in rng.choice(41, size=rng.integers(0, 6), replace=False):
                phones[PHONEMES[int(i)]] = PhoneStats(
                    float(np.float32(rng.uniform(20, 200))),
                    float(np.float32(rng.uniform(5, 40))),
                    int(rng.integers(1, 500)),
                )
            model = DurationModel(phones, PhoneStats(100.0, 25.0, 999))
            p = tmp_path / f"d{k}.tsv"
            write_duration_model(p, model)
            back = read_duration_model(p)
            assert back.phones == model.phones
            assert back.global_stats == model.global_stats

    @pytest.mark.parametrize("mean, std", [("100.0", "-5.0"), ("100.0", "0.0"), ("100.0", "nan"),
                                           ("100.0", "inf"), ("nan", "20.0"), ("-inf", "20.0")])
    def test_bad_stats_cite_line(self, tmp_path, mean, std):
        p = tmp_path / "d.tsv"
        p.write_text(f"phone\tmean_ms\tstd_ms\tcount\n__GLOBAL__\t100.0\t20.0\t100\n"
                     f"AA\t{mean}\t{std}\t50\n")
        with pytest.raises(ValidationError, match=re.escape(f"{p}:3:")):
            read_duration_model(p)

    @pytest.mark.parametrize("rows, bad_line", [
        ("AA\t80.0\t10.0\t50\nAA\t150.0\t30.0\t7\n", 4),
        ("AA\t80.0\t10.0\t50\n__GLOBAL__\t90.0\t20.0\t100\n", 4),
        ("AA\t80.0\t10.0\t50\nAH\t150.0\t30.0\t-7\n", 4),
        ("AA\t80.0\t10.0\t-1\n", 3),
    ], ids=["duplicate-phone", "duplicate-global", "negative-count", "negative-count-first"])
    def test_duplicate_row_or_negative_count_cites_line(self, tmp_path, rows, bad_line):
        p = tmp_path / "d.tsv"
        p.write_text("phone\tmean_ms\tstd_ms\tcount\n__GLOBAL__\t100.0\t20.0\t100\n" + rows)
        with pytest.raises(ValidationError, match=re.escape(f"{p}:{bad_line}:")):
            read_duration_model(p)

    def test_zero_count_accepted(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("phone\tmean_ms\tstd_ms\tcount\n__GLOBAL__\t100.0\t20.0\t0\n")
        assert read_duration_model(p).global_stats.count == 0

    def test_missing_global_row(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("phone\tmean_ms\tstd_ms\tcount\nAA\t100.0\t10.0\t5\n")
        with pytest.raises(ValidationError, match="__GLOBAL__"):
            read_duration_model(p)


class TestManifest:
    def _line(self, **over):
        row = {
            "id": "u1", "wav_path": "u1.wav", "ct_path": "u1.ct.mtx",
            "posterior_path": "u1.post.mtx", "phones": ["HH", "AH"],
            "fluency": 10, "prosody": 0,
        }
        row.update(over)
        return json.dumps(row)

    def test_valid_entry(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(self._line() + "\n")
        entries = read_manifest(p)
        assert len(entries) == 1
        assert entries[0].fluency == 10 and entries[0].prosody == 0
        assert entries[0].wav_path == tmp_path / "u1.wav"

    def test_score_out_of_range(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(self._line(fluency=11) + "\n")
        with pytest.raises(ValidationError, match=":1"):
            read_manifest(p)

    def test_unknown_phone(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(self._line(phones=["ZZ"]) + "\n")
        with pytest.raises(ValidationError, match="ZZ"):
            read_manifest(p)

    def test_missing_field_cites_line(self, tmp_path):
        row = json.loads(self._line())
        del row["prosody"]
        p = tmp_path / "m.jsonl"
        p.write_text(self._line() + "\n" + json.dumps(row) + "\n")
        with pytest.raises(ValidationError, match=":2"):
            read_manifest(p)

    def test_invalid_json_cites_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("{not json\n")
        with pytest.raises(ValidationError, match=":1"):
            read_manifest(p)

    @pytest.mark.parametrize("bad_line", [
        "3",
        {"phones": [["AA"]]},
        {"wav_path": 5},
        {"ct_path": 5},
        {"posterior_path": None},
        {"id": "u1"},
        {"id": ""},
        {"id": "a,b"},
        {"id": "a\rb"},
        {"id": "a\nb"},
        {"id": None},
        {"id": True},
        {"id": 7},
    ], ids=["not-object", "nested-phone", "wav-path", "ct-path", "posterior-path",
            "duplicate-id", "empty-id", "comma-id", "cr-id", "lf-id",
            "null-id", "bool-id", "number-id"])
    def test_malformed_line_cites_line(self, tmp_path, bad_line):
        if isinstance(bad_line, dict):
            bad_line = self._line(**{"id": "u2", **bad_line})
        p = tmp_path / "m.jsonl"
        p.write_text(self._line() + "\n" + bad_line + "\n")
        with pytest.raises(ValidationError, match=":2"):
            read_manifest(p)


class TestScoreCsv:
    def test_round_trip(self, tmp_path):
        rows = [("u1", 3, 4), ("u2", 0.1 + 0.2, 1e-300), ("u3", 10.0, 2.5)]
        p = tmp_path / "s.csv"
        p.write_text(score_text(rows))
        assert p.read_text().splitlines()[0] == "id,fluency,prosody"
        assert read_scores(p) == {uid: (f, pr) for uid, f, pr in rows}

    def test_bad_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("id,fluency\nu1,3\n")
        with pytest.raises(FormatError, match="bad score CSV header"):
            read_scores(p)


# The per-format readers as they were before the three formats shared one
# row loop, kept verbatim as the reference the shared loop must match.

def _reference_read_alignment(path) -> Alignment:
    lines = read_text(path).splitlines()
    if not lines or lines[0] != "phone\tstart_frame\tend_frame":
        raise FormatError(f"bad alignment header in {path}")
    spans = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{ln}: expected 3 tab-separated fields")
        phone, s, e = parts
        if phone not in PHONE_TO_INDEX:
            raise ValidationError(f"{path}:{ln}: unknown phoneme symbol {phone!r}")
        try:
            spans.append(Span(phone, int(s), int(e)))
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: non-integer frame index") from exc
    if not spans:
        raise FormatError(f"{path}: alignment has no spans")
    return Alignment(spans)


def _reference_read_duration_model(path) -> DurationModel:
    lines = read_text(path).splitlines()
    if not lines or lines[0] != "phone\tmean_ms\tstd_ms\tcount":
        raise FormatError(f"bad duration-model header in {path}")
    global_stats = None
    phones: dict[str, PhoneStats] = {}
    first_line: dict[str, int] = {}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise FormatError(f"{path}:{ln}: expected 4 tab-separated fields")
        phone, mean_s, std_s, count_s = parts
        try:
            stats = PhoneStats(float(mean_s), float(std_s), int(count_s))
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: malformed numeric field") from exc
        if not (np.isfinite(stats.mean_ms) and np.isfinite(stats.std_ms) and stats.std_ms > 0):
            raise ValidationError(f"{path}:{ln}: mean_ms must be finite and std_ms finite and "
                                  f"positive, got {mean_s!r} and {std_s!r}")
        if stats.count < 0:
            raise ValidationError(f"{path}:{ln}: count must be non-negative, got {count_s!r}")
        if phone in first_line:
            raise ValidationError(f"{path}:{ln}: second row for {phone!r} "
                                  f"(first on line {first_line[phone]})")
        first_line[phone] = ln
        if phone == GLOBAL_PHONE:
            global_stats = stats
        elif phone in PHONE_TO_INDEX:
            phones[phone] = stats
        else:
            raise ValidationError(f"{path}:{ln}: unknown phoneme symbol {phone!r}")
    if global_stats is None:
        raise ValidationError(f"{path}: missing {GLOBAL_PHONE} fallback row")
    return DurationModel(phones, global_stats)


def _reference_read_scores(path) -> dict[str, tuple[float, float]]:
    lines = read_text(path).splitlines()
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


def _outcome(reader, path):
    """("ok", value) or ("raised", exception class)."""
    try:
        return "ok", reader(path)
    except Exception as exc:
        return "raised", type(exc)


@pytest.fixture(scope="module")
def text_tables(tmp_path_factory):
    """Bytes of a synthetic corpus's alignment TSV, duration model and
    gold CSV, and a path for edited copies."""
    out = tmp_path_factory.mktemp("text_tables")
    manifest = generate_corpus(SyntheticSpec(n_utterances=3, seed=6, max_phones=8), out)
    uid = read_manifest(manifest)[0].id
    sources = {"alignment": out / "alignments" / f"{uid}.tsv",
               "duration model": out / "durations.tsv", "score CSV": out / "gold.csv"}
    return {kind: p.read_bytes() for kind, p in sources.items()}, out / "edited.txt"


_READERS = {
    "alignment": (read_alignment, _reference_read_alignment),
    "duration model": (read_duration_model, _reference_read_duration_model),
    "score CSV": (read_scores, _reference_read_scores),
}


@pytest.mark.parametrize("kind", list(_READERS))
@settings(max_examples=300, deadline=None)
@given(edit=edits)
@example(edit=("cut", 0))  # no header line
@example(edit=("cut", 25))  # the header and part of the first row
@example(edit=("flip", 8 * 3 + 2))  # a header byte
@example(edit=("flip", 8 * 20))  # the first row's first byte
def test_text_table_readers_match_reference(text_tables, kind, edit):
    """On a cut or bit-flipped table, the shared row loop loads what the
    reference loads, equal in value, or raises the reference's exception
    class; its one new rule rejects a score CSV row with an empty id."""
    blobs, path = text_tables
    path.write_bytes(corrupt(blobs[kind], edit))
    reader, reference = _READERS[kind]
    got, want = _outcome(reader, path), _outcome(reference, path)
    if kind == "score CSV" and want[0] == "ok" and "" in want[1]:
        assert got == ("raised", FormatError)
    else:
        assert got == want


@pytest.mark.parametrize("kind", list(_READERS))
def test_text_table_readers_skip_blank_lines(text_tables, tmp_path, kind):
    blobs, _ = text_tables
    lines = blobs[kind].decode().splitlines(keepends=True)
    plain, padded = tmp_path / "plain.txt", tmp_path / "padded.txt"
    plain.write_bytes(blobs[kind])
    padded.write_text("".join(lines[:2] + ["\n", " \t\r\n"] + lines[2:] + ["\n"]))
    reader = _READERS[kind][0]
    assert reader(padded) == reader(plain)
