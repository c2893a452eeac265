"""The small recipe, run in-process through `cli.main`, and its reference.

The recipe is `synth --n 12 --seed 5 --min-phones 2 --max-phones 12`,
then `train` on that corpus (epochs 2, batch 4, seed 3, lr 1e-3) and
`score --manifest` over it with the trained checkpoint.
`golden_recipe.json` holds the sha256 of every file it writes, the scores,
and the numpy and BLAS build they came from. A change that moves these
bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/golden_recipe.py

and lists the digests that moved in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from pronassess.audio_io import read_scores
from pronassess.cli import main

GOLDEN = Path(__file__).with_name("golden_recipe.json")
TRAIN_CONFIG = "epochs=2\nbatch=4\nseed=3\nlr=0.001\n"


def build() -> dict:
    """The numpy version and the BLAS build it was compiled against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def run_recipe(work: Path) -> dict:
    """Run the recipe in the empty directory `work` and return what
    `golden_recipe.json` records: the build, the sha256 of each file the
    recipe wrote (by its path under `work`) and the scores by id."""
    corpus, run, scores, config = (str(work / name) for name in
                                   ("corpus", "run", "scores.csv", "train.cfg"))
    Path(config).write_text(TRAIN_CONFIG, encoding="utf-8")
    for argv in (
        ["synth", "--n", "12", "--seed", "5", "--min-phones", "2", "--max-phones", "12",
         "--out", corpus],
        ["train", "--manifest", f"{corpus}/manifest.jsonl", "--config", config,
         "--duration-model", f"{corpus}/durations.tsv", "--out", run],
        ["score", "--checkpoint", f"{run}/checkpoint.ckpt", "--duration-model",
         f"{corpus}/durations.tsv", "--manifest", f"{corpus}/manifest.jsonl", "--out", scores],
    ):
        code = main(argv)
        if code:
            raise RuntimeError(f"{argv[0]} exited {code}")
    Path(config).unlink()  # an input, not an output
    files = sorted(p for p in work.rglob("*") if p.is_file())
    return {
        "build": build(),
        "sha256": {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in files},
        "scores": {k: list(v) for k, v in sorted(read_scores(scores).items())},
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = run_recipe(Path(tmp))
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {len(record['sha256'])} digests, {len(record['scores'])} scores",
          file=sys.stderr)
