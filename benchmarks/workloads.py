"""Benchmark workloads and their seeded synthetic corpora.

A workload fixes the phone count of every utterance, the corpus size and
the training batch size. The seed changes the content (phones, durations,
pitch, noise, the validation split and the batch order), not the phone
counts.
"""

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from pronassess import audio_io
from pronassess.synth import SyntheticSpec, generate_corpus

# Stratum seeds are seed * SEED_STRIDE + stratum index, so strata never
# share an rng stream within or across seeds.
SEED_STRIDE = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    min_phones: int
    max_phones: int
    n_utterances: int
    batch: int  # TrainConfig.batch

    @property
    def strata(self) -> tuple[tuple[int, int], ...]:
        """(phones, utterances) pairs spreading the utterances evenly over
        min_phones..max_phones, by midpoint quantiles of the discrete range.

        Fixing every utterance's phone count makes the length mix the same
        for every seed. Uniform draws over 18 utterances vary a corpus's
        total frames, and with it every per-utterance rate, by more than
        the benchmark's bounds."""
        width = self.max_phones - self.min_phones + 1
        counts = Counter(self.min_phones + (2 * i + 1) * width // (2 * self.n_utterances)
                         for i in range(self.n_utterances))
        return tuple(sorted(counts.items()))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("short", "default 2-4 phone utterances (~26 frames): per-call fixed costs "
                 "dominate (batch-1 scoring, Python dispatch, Adam, checkpoint load)",
                 2, 4, 36, 32),
        Workload("mixed", "2-40 phone utterances (26-400 frames): per-frame lld loops, O(T*L) "
                 "DTW, the LSTM time loop and padding waste from ~10x length spread",
                 2, 40, 18, 16),
    )
}

# A few-second run of every phase, the correctness gate and the traced run.
SMOKE = Workload("smoke", "harness self-check, not a source of metrics", 2, 3, 6, 4)


@dataclass
class Corpus:
    manifest: Path
    duration_model_path: Path
    entries: list[audio_io.ManifestEntry]
    duration_model: object
    truth_paths: dict[str, Path]  # utterance id -> ground-truth alignment TSV


def build_corpus(workload: Workload, seed: int, out_dir: Path) -> Corpus:
    """Generate every stratum and write one manifest over all of them."""
    out_dir.mkdir(parents=True)
    rows, truth = [], {}
    for s, (phones, n) in enumerate(workload.strata):
        sub = f"s{s}"
        spec = SyntheticSpec(n_utterances=n, seed=seed * SEED_STRIDE + s,
                             min_phones=phones, max_phones=phones)
        manifest = generate_corpus(spec, out_dir / sub)
        for line in manifest.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            uid = row["id"]
            row["id"] = f"{sub}-{uid}"
            for key in ("wav_path", "ct_path", "posterior_path"):
                row[key] = f"{sub}/{row[key]}"
            truth[row["id"]] = out_dir / sub / "alignments" / f"{uid}.tsv"
            rows.append(row)
    manifest = out_dir / "manifest.jsonl"
    audio_io.write_manifest(manifest, rows)
    # every stratum writes the same generator duration model
    dm_path = out_dir / "s0" / "durations.tsv"
    return Corpus(manifest, dm_path, audio_io.read_manifest(manifest),
                  audio_io.read_duration_model(dm_path), truth)
