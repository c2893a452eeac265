"""File ingestion and serialization for every artifact in the pipeline.

Formats, all little-endian where binary:

* WAV      -- RIFF/WAVE, PCM signed 16-bit, mono, 16 kHz only, parsed here
  in one chunk walk (no `wave` module): chunks tile the file, the RIFF
  size matches it, and one `fmt ` chunk precedes one `data` chunk.
* MTX1     -- magic "MTX1", u32 rows, u32 cols, rows*cols float32 row-major.
* Alignment TSV      -- header ``phone\\tstart_frame\\tend_frame``, inclusive frames.
* Duration-model TSV -- header ``phone\\tmean_ms\\tstd_ms\\tcount`` plus a
  reserved ``__GLOBAL__`` row carrying the pooled fallback; each phone has
  at most one row, means are finite, standard deviations finite and
  positive, and counts non-negative.
* Score CSV -- header ``id,fluency,prosody``; ids non-empty and unique,
  scores finite. Written by `score` and by `synth` as ``gold.csv``.
* Manifest -- one JSON object per line (see ManifestEntry).

Loading never rescales, resamples or truncates; any deviation from the
declared format is a hard error that names the file.
"""

import functools
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aligner import Alignment, Span
from .durations import DurationModel, PhoneStats
from .errors import FormatError, UnsupportedFormatError, ValidationError, named
from .inventory import PHONE_TO_INDEX
from .metrics import N_CLASSES

SAMPLE_RATE = 16000

MTX1_MAGIC = b"MTX1"
ALIGNMENT_HEADER = "phone\tstart_frame\tend_frame"
DURATION_HEADER = "phone\tmean_ms\tstd_ms\tcount"
SCORE_HEADER = "id,fluency,prosody"
GLOBAL_PHONE = "__GLOBAL__"


@dataclass
class AudioBuffer:
    """Mono waveform in [-1, 1]; its rate is always SAMPLE_RATE."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValidationError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("samples contain non-finite values")
        peak = float(np.abs(self.samples).max())
        if peak > 1.0:
            raise ValidationError(f"samples exceed [-1, 1] (peak {peak:.6g})")


def _naming_the_file(fn):
    """`fn(path, *args)`, with the path in front of the message of a package
    error."""
    @functools.wraps(fn)
    def fn_named(path, *args):
        return named(path, fn, path, *args)
    return fn_named


@_naming_the_file
def load_wav(path) -> AudioBuffer:
    """Read a PCM16 mono 16 kHz WAV file, scaling samples by 1/32768."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE file: it must start with RIFF and WAVE")
    # One walk covers every chunk: each has a printable ASCII id and is
    # padded to even length, and together they must tile the file, so no
    # bytes are left over (a lowered data size would drop samples).
    chunks = {}
    pos = 12
    while pos + 8 <= len(blob):
        cid, size = struct.unpack_from("<4sI", blob, pos)
        if not all(32 <= c < 127 for c in cid):
            break
        chunks.setdefault(cid, []).append((pos + 8, size))
        pos += 8 + size + size % 2
    if pos != len(blob):
        raise FormatError(f"WAV chunks do not tile the file: they end at byte {pos} "
                          f"of {len(blob)}")
    riff_size = struct.unpack_from("<I", blob, 4)[0]
    if riff_size != len(blob) - 8:
        raise FormatError(f"RIFF size {riff_size} does not match the file "
                          f"({len(blob) - 8} bytes after the RIFF header)")
    fmt, data = chunks.get(b"fmt ", []), chunks.get(b"data", [])
    if len(fmt) != 1 or len(data) != 1 or fmt[0][0] > data[0][0]:
        raise FormatError("WAV needs exactly one 'fmt ' chunk before exactly one 'data' chunk")
    (fmt_at, fmt_size), (data_at, data_size) = fmt[0], data[0]
    if fmt_size < 16:
        raise FormatError(f"'fmt ' chunk holds {fmt_size} bytes, need at least 16")
    tag, channels, rate, byte_rate, align, bits = struct.unpack_from("<HHIIHH", blob, fmt_at)
    if tag != 1:
        raise UnsupportedFormatError(f"format tag = {tag}, only PCM (1) is supported")
    if channels != 1:
        raise UnsupportedFormatError(f"channels = {channels}, only mono is supported")
    if rate != SAMPLE_RATE:
        raise UnsupportedFormatError(f"sample rate = {rate} Hz, only {SAMPLE_RATE} Hz is supported")
    if bits != 16:
        raise UnsupportedFormatError(f"bits per sample = {bits}, only 16-bit PCM is supported")
    if byte_rate != 2 * SAMPLE_RATE:
        raise FormatError(f"byte rate = {byte_rate}, mono 16-bit {SAMPLE_RATE} Hz "
                          f"needs {2 * SAMPLE_RATE}")
    if align != 2:
        raise FormatError(f"block align = {align}, mono 16-bit needs 2")
    if data_size == 0:
        raise FormatError("WAV data chunk is empty")
    if data_size % 2:
        raise FormatError(f"WAV data chunk holds {data_size} bytes, not whole 16-bit samples")
    return AudioBuffer(np.frombuffer(blob, "<i2", data_size // 2, data_at) / 32768.0)


def write_wav(path, buf: AudioBuffer) -> AudioBuffer:
    """Write PCM16 mono 16 kHz. Inverse of load_wav up to int16 rounding.
    Returns the samples as written, bit for bit what load_wav(path) reads."""
    pcm = np.clip(np.rint(buf.samples * 32768.0), -32768, 32767).astype("<i2")
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes, b"WAVE",
                         b"fmt ", 16, 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16,
                         b"data", pcm.nbytes)
    with open(path, "wb") as fh:
        fh.write(header + pcm.tobytes())
    return AudioBuffer(pcm / 32768.0)


@_naming_the_file
def write_matrix(path, mat: np.ndarray) -> None:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got ndim={mat.ndim}")
    with np.errstate(over="ignore"):  # beyond float32's range becomes inf, refused here
        payload = mat.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise ValidationError("matrix contains values that are not finite in float32")
    rows, cols = mat.shape
    with open(path, "wb") as fh:
        fh.write(MTX1_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(payload.tobytes())


@_naming_the_file
def read_matrix(path) -> np.ndarray:
    """Read an MTX1 file into a native-endian float32 array, the stored
    precision; callers that compute in float64 cast on use."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12:
            raise FormatError(f"truncated MTX1 header ({len(head)} bytes)")
        if head[:4] != MTX1_MAGIC:
            raise FormatError(f"bad magic {head[:4]!r}, expected {MTX1_MAGIC!r}")
        rows, cols = struct.unpack("<II", head[4:])
        expected = rows * cols * 4
        got = os.fstat(fh.fileno()).st_size - 12
        if got > expected:
            raise FormatError(f"trailing bytes after payload ({got - expected} extra)")
        if got == expected:  # sized by the file, so a forged header cannot over-allocate
            mat = np.empty((rows, cols), dtype="<f4")
            got = fh.readinto(mat)  # short only if the file shrank since fstat
    if got < expected:
        raise FormatError(
            f"truncated payload: header says {rows}x{cols} "
            f"({expected} bytes), found {got}"
        )
    mat = mat.astype(np.float32, copy=False)  # a no-op on little-endian hosts
    if not np.all(np.isfinite(mat)):
        raise FormatError("matrix payload contains non-finite values")
    return mat


@_naming_the_file
def read_text(path) -> str:
    """A text file's contents; bytes that are not UTF-8 raise FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def write_text(path, text: str) -> None:
    """Write `text` to a file as UTF-8, whatever the locale."""
    Path(path).write_text(text, encoding="utf-8")


def table_text(header: str, rows, sep: str) -> str:
    """A header line, then one line of `sep`-joined str() fields per row,
    each line ended by a newline. str() of a Python float is its repr, so
    floats round-trip exactly."""
    return "\n".join([header, *(sep.join(map(str, row)) for row in rows)]) + "\n"


def _rows(path, header: str, sep: str, what: str):
    """(line number, fields) of each non-blank line of a text table whose
    first line must be `header`; every such line holds as many
    `sep`-separated fields as the header."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != header:
        raise FormatError(f"bad {what} header in {path}")
    width = header.count(sep) + 1
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(sep)
        if len(fields) != width:
            raise FormatError(f"{path}:{ln}: expected {width} fields, got {len(fields)}")
        yield ln, fields


def write_alignment(path, alignment: Alignment) -> None:
    rows = [(sp.phone, sp.start_frame, sp.end_frame) for sp in alignment.spans]
    write_text(path, table_text(ALIGNMENT_HEADER, rows, "\t"))


def read_alignment(path) -> Alignment:
    spans = []
    for ln, (phone, s, e) in _rows(path, ALIGNMENT_HEADER, "\t", "alignment"):
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
    rows = [(phone, float(st.mean_ms), float(st.std_ms), int(st.count))
            for phone, st in [(GLOBAL_PHONE, model.global_stats),
                              *sorted(model.phones.items())]]
    write_text(path, table_text(DURATION_HEADER, rows, "\t"))


def read_duration_model(path) -> DurationModel:
    global_stats = None
    phones: dict[str, PhoneStats] = {}
    first_line: dict[str, int] = {}
    for ln, (phone, mean_s, std_s, count_s) in _rows(path, DURATION_HEADER, "\t",
                                                     "duration-model"):
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


def score_text(rows) -> str:
    """Score CSV text of (id, fluency, prosody) rows."""
    return table_text(SCORE_HEADER, rows, ",")


def read_scores(path) -> dict[str, tuple[float, float]]:
    """Score CSV rows by id: ids non-empty and unique, scores finite."""
    out = {}
    for ln, (uid, f, p) in _rows(path, SCORE_HEADER, ",", "score CSV"):
        if not uid:
            raise FormatError(f"{path}:{ln}: empty id")
        try:
            scores = (float(f), float(p))
        except ValueError:
            raise FormatError(f"{path}:{ln}: non-numeric score in {f!r}, {p!r}") from None
        if not np.all(np.isfinite(scores)):
            raise FormatError(f"{path}:{ln}: non-finite score in {f!r}, {p!r}")
        if uid in out:
            raise FormatError(f"{path}:{ln}: duplicate id {uid!r}")
        out[uid] = scores
    return out


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
MANIFEST_PATHS = ("wav_path", "ct_path", "posterior_path")  # the fields that name files


def read_manifest(path) -> list[ManifestEntry]:
    """Parse a line-delimited JSON manifest. Relative paths resolve against
    the manifest's own directory."""
    base = Path(path).parent
    entries = []
    seen_ids = set()
    # read_text translates \r\n and \r to \n, as iterating the file does
    for ln, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{ln}: invalid JSON ({exc.msg})") from exc
        except RecursionError:
            raise ValidationError(f"{path}:{ln}: invalid JSON (nested too deeply)") from None
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}:{ln}: expected a JSON object, got {type(obj).__name__}")
        for field_name in _MANIFEST_FIELDS:
            if field_name not in obj:
                raise ValidationError(f"{path}:{ln}: missing field {field_name!r}")
        phones = obj["phones"]
        if not isinstance(phones, list) or not phones:
            raise ValidationError(f"{path}:{ln}: phones must be a non-empty list")
        for p in phones:
            if not isinstance(p, str) or p not in PHONE_TO_INDEX:
                raise ValidationError(f"{path}:{ln}: unknown phoneme symbol {p!r}")
        for key in ("fluency", "prosody"):
            v = obj[key]
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < N_CLASSES:
                raise ValidationError(f"{path}:{ln}: {key} must be an integer in "
                                      f"0-{N_CLASSES - 1}, got {v!r}")
        for key in MANIFEST_PATHS:
            if not isinstance(obj[key], str):
                raise ValidationError(f"{path}:{ln}: {key} must be a string, got {obj[key]!r}")
            if "\0" in obj[key]:  # no OS takes it in a path
                raise ValidationError(f"{path}:{ln}: {key} contains a NUL byte: {obj[key]!r}")
        uid = obj["id"]
        if not isinstance(uid, str) or not uid or any(c in uid for c in ",\r\n"):
            # ids become the first field of a score CSV row
            raise ValidationError(f"{path}:{ln}: id must be a non-empty string without ',', CR "
                                  f"or LF, got {uid!r}")
        for key in ("id", *MANIFEST_PATHS):
            try:
                obj[key].encode("utf-8")
            except UnicodeEncodeError as exc:  # a lone surrogate, which JSON's \u escapes allow
                raise ValidationError(f"{path}:{ln}: {key} does not encode as UTF-8 "
                                      f"({exc.reason}): {obj[key]!r}") from None
        if uid in seen_ids:
            raise ValidationError(f"{path}:{ln}: duplicate id {uid!r}")
        seen_ids.add(uid)
        paths = {key: base / obj[key] for key in MANIFEST_PATHS}
        entries.append(ManifestEntry(id=uid, **paths, phones=list(phones),
                                     fluency=obj["fluency"], prosody=obj["prosody"]))
    return entries


def write_manifest(path, rows: list[dict]) -> None:
    """Write manifest rows (plain dicts with relative path strings) as JSONL."""
    write_text(path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
