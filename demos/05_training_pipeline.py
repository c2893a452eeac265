#!/usr/bin/env python3
"""End-to-end: synthesize a small labelled corpus, run the feature
pipeline, train the scoring network briefly, and evaluate with PCC.

The full 64-utterance run used by the acceptance suite takes 12-14 s on a
2-vCPU host; this demo uses 24 utterances and 12 epochs to stay quick
(~4 s wall there, 3 s of it training).

Equivalent CLI session:

    pronassess synth --n 24 --seed 4 --out corpus
    pronassess train --manifest corpus/manifest.jsonl --config config.txt \
        --duration-model corpus/durations.tsv --out run
    pronassess score --checkpoint run/checkpoint.ckpt \
        --duration-model corpus/durations.tsv \
        --manifest corpus/manifest.jsonl --out pred.csv
    pronassess eval --gold corpus/gold.csv --pred pred.csv
"""

import tempfile
import time
from pathlib import Path

from pronassess import (
    SyntheticSpec,
    TrainConfig,
    generate_corpus,
    pcc,
    predict_score,
    prepare_dataset,
    read_duration_model,
    read_manifest,
    train,
)

with tempfile.TemporaryDirectory(prefix="pronassess_demo_") as tmp:
    workdir = Path(tmp)

    print("\n=== 1. synthesize a labelled corpus ===")
    manifest = generate_corpus(SyntheticSpec(n_utterances=24, seed=4), workdir / "corpus")
    entries = read_manifest(manifest)
    print(f"  {len(entries)} utterances; first labels: "
          + ", ".join(f"(f={e.fluency}, p={e.prosody})" for e in entries[:4]))

    print("\n=== 2. run the feature pipeline ===")
    duration_model = read_duration_model(workdir / "corpus" / "durations.tsv")
    dataset = prepare_dataset(entries, duration_model)
    utt = dataset[0]
    print(f"  utterance 0: {len(utt.fusion)} phones, ct {utt.ct.shape}, "
          f"functionals {utt.u_nv.shape}")

    print("\n=== 3. train the scoring head (short run) ===")
    start = time.time()
    result = train(dataset, config=TrainConfig(epochs=12, patience=12, seed=1))
    print(f"  {len(result.history)} epochs in {time.time() - start:.0f} s, "
          f"best epoch {result.best_epoch}")
    for epoch, tr, va in result.history[::3]:
        print(f"  epoch {epoch:2d}  train {tr:.3f}  val {va:.3f}")

    print("\n=== 4. evaluate on the training portion ===")
    train_utts = [dataset[i] for i in result.train_indices]
    _, dists, _ = result.model.forward_batch(train_utts)
    pred_f = [predict_score(d[0]) for d in dists]
    pred_p = [predict_score(d[1]) for d in dists]
    print(f"  fluency PCC {pcc(pred_f, [u.fluency for u in train_utts]):.3f}")
    print(f"  prosody PCC {pcc(pred_p, [u.prosody for u in train_utts]):.3f}")
    print("  (the acceptance suite demands >= 0.9 on the full 64-utterance setup)")

    ckpt = workdir / "checkpoint.ckpt"
    result.model.save(ckpt)
    print(f"\ncheckpoint saved: {ckpt.stat().st_size / 1e6:.1f} MB")
