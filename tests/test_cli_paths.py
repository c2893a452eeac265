"""Every path argument of every command, derived from `cli.build_parser()`.

Each option is classified by the rule below as a file read, a directory
read, a file write or a directory write, and given each bad kind of path
that applies to its class. The command must exit 2, 3 or 5 with exactly one
`error:` line, which names the path (and, for a kind the OS decides, its
reason), and must create or change no file."""

import argparse
import errno
import json
import os
import stat
from pathlib import Path

import pytest

from pronassess import (
    ScoringModel,
    SyntheticSpec,
    dtw_align,
    extract_frame_features,
    generate_corpus,
    load_wav,
    read_manifest,
    read_matrix,
    write_alignment,
    write_matrix,
)
from pronassess.cli import build_parser, main
from pronassess.model import TINY_CONFIG
from pronassess.train import TrainConfig, parse_train_config

# The options that take no path. Any other option holding one string is a
# path: a write when its dest starts with "out", else a read; these are
# directories.
NOT_PATHS = {"phones", "pattern", "n", "seed", "jobs", "min_phones", "max_phones"}
DIRECTORIES = {("fit-durations", "alignments"), ("train", "out"), ("synth", "out")}


def classify(command: str, action: argparse.Action) -> str | None:
    """'read', 'write', 'dir-read' or 'dir-write'; None for a non-path
    option; 'unclassified' for an option the rule does not cover."""
    if action.dest in NOT_PATHS:
        return None
    if action.type is not None or type(action) not in (argparse._StoreAction,
                                                       argparse._AppendAction):
        return "unclassified"
    kind = "write" if action.dest.startswith("out") else "read"
    return f"dir-{kind}" if (command, action.dest) in DIRECTORIES else kind


def options() -> list[tuple[str, str, str | None]]:
    """(command, flag, class) of every option of every subcommand."""
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [(command, action.option_strings[0], classify(command, action))
            for command, parser in sub.choices.items() for action in parser._actions
            if not isinstance(action, argparse._HelpAction)]


KINDS = {
    "read": ["missing", "directory", "parent-is-file", "empty", "too-long", "symlink-loop"],
    "write": ["missing-parent", "directory", "parent-is-file", "too-long", "symlink-loop",
              "an-input"],
    "dir-read": ["missing", "a-file", "empty", "too-long", "symlink-loop"],
    "dir-write": ["a-file", "too-long", "symlink-loop"],
}

# The reason on the `error:` line, for the kinds that the OS decides (exit 2).
REASONS = {
    "missing": "no such file",
    "missing-parent": "no such file",
    "directory": "is a directory, not a file",
    "parent-is-file": "a file where a directory is expected",
    "a-file": "a file where a directory is expected",
    "too-long": os.strerror(errno.ENAMETOOLONG),
    "symlink-loop": os.strerror(errno.ELOOP),
}

CASES = [(command, flag, kind) for command, flag, cls in options() if cls in KINDS
         for kind in KINDS[cls]
         # an empty config is valid, all defaults: see test_empty_config_is_all_defaults
         if (command, flag, kind) != ("train", "--config", "empty")]


def test_every_option_is_classified():
    assert [(c, f) for c, f, cls in options() if cls == "unclassified"] == []


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A valid input of every kind that a command reads, in one folder.
    `tiny.jsonl` lists the corpus with its contextual rows cut to the width
    of `TINY_CONFIG`, whose checkpoint `score` loads in a fraction of the
    full-size one's time."""
    root = tmp_path_factory.mktemp("inputs")
    manifest = generate_corpus(SyntheticSpec(n_utterances=2, seed=8), root / "c")
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    for row, e in zip(rows, read_manifest(manifest)):
        row.update(wav_path=str(e.wav_path), posterior_path=str(e.posterior_path),
                   ct_path=str(root / f"{e.id}.ct.mtx"))
        write_matrix(row["ct_path"], read_matrix(e.ct_path)[:, :TINY_CONFIG.feature_dim])
    (root / "tiny.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    entry = read_manifest(root / "tiny.jsonl")[0]
    write_alignment(root / "a.tsv", dtw_align(read_matrix(entry.posterior_path), entry.phones)[0])
    write_matrix(root / "frames.mtx", extract_frame_features(load_wav(entry.wav_path)).to_matrix())
    (root / "config.txt").write_text("epochs=1\n")
    ScoringModel(TINY_CONFIG, seed=0).save(root / "tiny.ckpt")
    return root, entry


def modes(inputs, out: Path) -> dict[str, list[dict]]:
    """Each command's valid invocations, flag to value, writing under `out`."""
    root, entry = inputs
    c = root / "c"
    wav, post, ct = entry.wav_path, entry.posterior_path, entry.ct_path
    phones, dm = " ".join(entry.phones), c / "durations.tsv"
    assemble = {"--alignment": root / "a.tsv", "--duration-model": dm,
                "--out": out / "fusion.mtx"}
    score = {"--checkpoint": root / "tiny.ckpt", "--duration-model": dm}  # on tiny.jsonl
    return {
        "extract": [{"--wav": wav, "--out-frames": out / "f.mtx",
                     "--out-functionals": out / "u.mtx"}],
        "align": [{"--posteriors": post, "--phones": phones, "--out": out / "a.tsv"}],
        "fit-durations": [{"--alignments": c / "alignments", "--out": out / "d.tsv"}],
        "gopd": [{"--alignment": root / "a.tsv", "--model": dm, "--out": out / "g.mtx"}],
        "assemble": [{"--wav": wav, **assemble}, {"--frames": root / "frames.mtx", **assemble}],
        "train": [{"--manifest": c / "manifest.jsonl", "--config": root / "config.txt",
                   "--duration-model": dm, "--out": out / "run"}],
        "score": [{**score, "--manifest": root / "tiny.jsonl", "--out": out / "s.csv"},
                  {**score, "--wav": wav, "--posteriors": post, "--ct": ct, "--phones": phones}],
        "eval": [{"--gold": c / "gold.csv", "--pred": c / "gold.csv"}],
        "synth": [{"--n": 1, "--out": out / "corpus"}],
    }


def argv(command: str, mode: dict) -> list[str]:
    return [command, *(str(x) for flag, value in mode.items() for x in (flag, value))]


def snapshot(*roots) -> dict:
    """Every path under `roots`: a regular file's bytes, else its mode."""
    found = {}
    for root in roots:
        for folder, dirs, files in os.walk(root):
            for name in dirs + files:
                p = Path(folder, name)
                mode = p.lstat().st_mode
                found[p] = p.read_bytes() if stat.S_ISREG(mode) else mode
    return found


def first_input(command: str, mode: dict) -> Path:
    """The first file that `mode` reads: a file read's, or the first file in
    a directory read."""
    classes = {flag: cls for cmd, flag, cls in options() if cmd == command}
    flag = next(f for f in mode if classes[f] in ("read", "dir-read"))
    path = Path(mode[flag])
    return path if classes[flag] == "read" else sorted(path.iterdir())[0]


def bad_path(tmp_path: Path, command: str, mode: dict, kind: str) -> Path:
    """A path of `kind` in `tmp_path`, or, for "an-input", the first input."""
    if kind == "an-input":
        return first_input(command, mode)
    (tmp_path / "a-file").write_text("x\n")
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "empty").write_bytes(b"")
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    return tmp_path / {
        "missing": "nope", "missing-parent": "nope/o", "directory": "a-dir",
        "parent-is-file": "a-file/o", "a-file": "a-file", "too-long": "x" * 300,
        "symlink-loop": "loop", "empty": "a-dir" if command == "fit-durations" else "empty",
    }[kind]


@pytest.mark.parametrize("command", sorted({command for command, _, _ in options()}))
def test_every_mode_runs(tmp_path, capsys, inputs, command):
    """Each base invocation is valid, so a refused case is refused for its
    path alone, and it leaves its inputs unchanged."""
    for mode in modes(inputs, tmp_path)[command]:
        before = snapshot(inputs[0])
        assert main(argv(command, mode)) == 0, capsys.readouterr().err
        assert snapshot(inputs[0]) == before


@pytest.mark.parametrize("command,flag,kind", CASES)
def test_bad_path_is_refused(tmp_path, capsys, inputs, command, flag, kind):
    out = tmp_path / "out"
    out.mkdir()
    mode = next(m for m in modes(inputs, out)[command] if flag in m)
    path = bad_path(tmp_path, command, mode, kind)
    before = snapshot(inputs[0], tmp_path)
    rc = main(argv(command, {**mode, flag: path}))
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert rc in (2, 3, 5) and len(errors) == 1 and str(path) in errors[0], (rc, errors)
    if kind in REASONS:
        assert (rc, errors[0]) == (2, f"error: {REASONS[kind]}: {path}")
    elif kind == "an-input":
        assert rc == 3 and "would overwrite the input" in errors[0]
    assert snapshot(inputs[0], tmp_path) == before


def test_empty_config_is_all_defaults(tmp_path):
    """`train --config` on an empty file is valid: every setting keeps its
    default, so it is not one of the refused cases."""
    (tmp_path / "empty").write_bytes(b"")
    assert parse_train_config(tmp_path / "empty") == TrainConfig()
