"""File ingestion and serialization for every artifact in the pipeline.

Formats, all little-endian where binary:

* WAV      -- RIFF/WAVE, PCM signed 16-bit, mono, 16 kHz only.
* MTX1     -- magic "MTX1", u32 rows, u32 cols, rows*cols float32 row-major.
* Alignment TSV      -- header ``phone\\tstart_frame\\tend_frame``, inclusive frames.
* Duration-model TSV -- header ``phone\\tmean_ms\\tstd_ms\\tcount`` plus a
  reserved ``__GLOBAL__`` row carrying the pooled fallback.
* Manifest -- one JSON object per line (see ManifestEntry).

Loading never rescales, resamples or truncates; any deviation from the
declared format is a hard error.
"""

import json
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aligner import Alignment, Span
from .durations import DurationModel, PhoneStats
from .errors import FormatError, UnsupportedFormatError, ValidationError
from .inventory import PHONE_TO_INDEX

SAMPLE_RATE = 16000

MTX1_MAGIC = b"MTX1"
ALIGNMENT_HEADER = "phone\tstart_frame\tend_frame"
DURATION_HEADER = "phone\tmean_ms\tstd_ms\tcount"
GLOBAL_PHONE = "__GLOBAL__"


@dataclass
class AudioBuffer:
    """Mono waveform in [-1, 1] at 16 kHz."""

    samples: np.ndarray
    sample_rate_hz: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate_hz != SAMPLE_RATE:
            raise ValidationError(
                f"sample rate must be {SAMPLE_RATE} Hz, got {self.sample_rate_hz}"
            )
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValidationError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("samples contain non-finite values")
        peak = float(np.abs(self.samples).max())
        if peak > 1.0:
            raise ValidationError(f"samples exceed [-1, 1] (peak {peak:.6g})")


def load_wav(path) -> AudioBuffer:
    """Read a PCM16 mono 16 kHz WAV file, scaling samples by 1/32768."""
    try:
        with wave.open(str(path), "rb") as wf:
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            comp = wf.getcomptype()
            n = wf.getnframes()
            raw = wf.readframes(n)
    except wave.Error as exc:
        raise FormatError(f"not a valid RIFF/WAVE file: {exc}") from exc
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
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioBuffer(samples, rate)


def write_wav(path, buf: AudioBuffer) -> None:
    """Write PCM16 mono 16 kHz. Inverse of load_wav up to int16 rounding."""
    pcm = np.clip(np.rint(buf.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(buf.sample_rate_hz)
        wf.writeframes(pcm.tobytes())


def write_matrix(path, mat: np.ndarray) -> None:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got ndim={mat.ndim}")
    if not np.all(np.isfinite(mat)):
        raise ValidationError("matrix contains non-finite values")
    rows, cols = mat.shape
    payload = mat.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(MTX1_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(payload)


def read_matrix(path) -> np.ndarray:
    """Read an MTX1 file into a float64 array (exact upcast of the stored f32)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise FormatError(f"truncated MTX1 header ({len(blob)} bytes)")
    if blob[:4] != MTX1_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {MTX1_MAGIC!r}")
    rows, cols = struct.unpack("<II", blob[4:12])
    expected = rows * cols * 4
    got = len(blob) - 12
    if got < expected:
        raise FormatError(
            f"truncated payload: header says {rows}x{cols} "
            f"({expected} bytes), found {got}"
        )
    if got > expected:
        raise FormatError(f"trailing bytes after payload ({got - expected} extra)")
    values = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=12)
    mat = values.astype(np.float64).reshape(rows, cols)
    if not np.all(np.isfinite(mat)):
        raise FormatError("matrix payload contains non-finite values")
    return mat


def write_alignment(path, alignment: Alignment) -> None:
    lines = [ALIGNMENT_HEADER]
    for sp in alignment.spans:
        lines.append(f"{sp.phone}\t{sp.start_frame}\t{sp.end_frame}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_alignment(path) -> Alignment:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != ALIGNMENT_HEADER:
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


def write_duration_model(path, model: DurationModel) -> None:
    def row(phone: str, st: PhoneStats) -> str:
        return f"{phone}\t{float(st.mean_ms)!r}\t{float(st.std_ms)!r}\t{int(st.count)}"

    lines = [DURATION_HEADER, row(GLOBAL_PHONE, model.global_stats)]
    for phone in sorted(model.phones):
        lines.append(row(phone, model.phones[phone]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_duration_model(path) -> DurationModel:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != DURATION_HEADER:
        raise FormatError(f"bad duration-model header in {path}")
    global_stats = None
    phones: dict[str, PhoneStats] = {}
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
        if phone == GLOBAL_PHONE:
            global_stats = stats
        elif phone in PHONE_TO_INDEX:
            phones[phone] = stats
        else:
            raise ValidationError(f"{path}:{ln}: unknown phoneme symbol {phone!r}")
    if global_stats is None:
        raise ValidationError(f"{path}: missing {GLOBAL_PHONE} fallback row")
    return DurationModel(phones, global_stats)


@dataclass
class ManifestEntry:
    id: str
    wav_path: Path
    ct_path: Path
    posterior_path: Path
    phones: list[str]
    fluency: int
    prosody: int


_MANIFEST_FIELDS = ("id", "wav_path", "ct_path", "posterior_path", "phones", "fluency", "prosody")


def read_manifest(path) -> list[ManifestEntry]:
    """Parse a line-delimited JSON manifest. Relative paths resolve against
    the manifest's own directory."""
    base = Path(path).parent
    entries = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{ln}: invalid JSON ({exc.msg})") from exc
            for field_name in _MANIFEST_FIELDS:
                if field_name not in obj:
                    raise ValidationError(f"{path}:{ln}: missing field {field_name!r}")
            phones = obj["phones"]
            if not isinstance(phones, list) or not phones:
                raise ValidationError(f"{path}:{ln}: phones must be a non-empty list")
            for p in phones:
                if p not in PHONE_TO_INDEX:
                    raise ValidationError(f"{path}:{ln}: unknown phoneme symbol {p!r}")
            for key in ("fluency", "prosody"):
                v = obj[key]
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= 10:
                    raise ValidationError(f"{path}:{ln}: {key} must be an integer in 0-10, got {v!r}")
            entries.append(
                ManifestEntry(
                    id=str(obj["id"]),
                    wav_path=base / obj["wav_path"],
                    ct_path=base / obj["ct_path"],
                    posterior_path=base / obj["posterior_path"],
                    phones=list(phones),
                    fluency=obj["fluency"],
                    prosody=obj["prosody"],
                )
            )
    return entries


def write_manifest(path, rows: list[dict]) -> None:
    """Write manifest rows (plain dicts with relative path strings) as JSONL."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
