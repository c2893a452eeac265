"""The small recipe against its committed reference (`golden_recipe.py`).

On the numpy and BLAS build the reference records, every file the recipe
writes must match it byte for byte: corpus, checkpoint, `history.csv` and
score CSV. On another build, where summation order may differ, the scores
must lie within SCORE_TOL of the recorded ones. The failure message says
which comparison was made.
"""

import json

from golden_recipe import GOLDEN, run_recipe

SCORE_TOL = 1e-6


def test_small_recipe_matches_its_reference(tmp_path, capsys):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_recipe(tmp_path)
    capsys.readouterr()  # the commands' own stdout
    if got["build"] == want["build"]:
        moved = sorted(k for k in want["sha256"].keys() | got["sha256"].keys()
                       if want["sha256"].get(k) != got["sha256"].get(k))
        assert not moved, f"compared bytes on the recorded build {want['build']}: moved {moved}"
        return
    assert got["scores"].keys() == want["scores"].keys()
    far = {i: (got["scores"][i], s) for i, s in want["scores"].items()
           if max(abs(a - b) for a, b in zip(got["scores"][i], s)) > SCORE_TOL}
    assert not far, (f"compared scores within {SCORE_TOL} (build {got['build']} is not the "
                     f"recorded {want['build']}): (got, recorded) {far}")
