"""Golden-output guard for the frame-level front end.

`golden_frontend.npz` holds `extract_frame_features(...).to_matrix()` in
float64 for the inputs built by `_inputs`, as computed by the reference
per-frame implementation. A faster front end must reproduce it: the
voicing column exactly, every other column within 1e-9 relative. An
intended output change is explained and bounded in CHANGES.md, not
absorbed by rewriting the file.
"""

from pathlib import Path

import numpy as np
import pytest

from pronassess import SyntheticSpec, extract_frame_features, generate_corpus, load_wav, read_manifest

from signals import pulse_train, tone

GOLDEN = Path(__file__).with_name("golden_frontend.npz")
VOICED_COL = 4


def _inputs(tmp_path):
    entry = read_manifest(generate_corpus(
        SyntheticSpec(n_utterances=1, seed=11, min_phones=6, max_phones=6), tmp_path))[0]
    return {
        "tone_220": tone(220),
        "pulse_train_150": pulse_train(1 / 150.0, 0.025, 16000),
        "synth_seed11": load_wav(entry.wav_path),
    }


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {name: data[name] for name in data.files}


@pytest.mark.parametrize("name", ["tone_220", "pulse_train_150", "synth_seed11"])
def test_frame_features_match_golden(golden, tmp_path, name):
    got = extract_frame_features(_inputs(tmp_path)[name]).to_matrix()
    want = golden[name]
    assert got.shape == want.shape
    np.testing.assert_array_equal(got[:, VOICED_COL], want[:, VOICED_COL])
    np.testing.assert_allclose(np.delete(got, VOICED_COL, axis=1),
                               np.delete(want, VOICED_COL, axis=1), rtol=1e-9, atol=0)
