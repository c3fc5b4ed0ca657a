"""A damaged model directory: `tplrec recommend` exits 2, prints nothing
on stdout and one `data error:` line on stderr, whatever the damage, and
that line names the damaged file and no other file that `recommend` reads.

The damage drawn, one kind per example, to a small trained model:
- `qnet.tplq` or `representatives.tplr` truncated or extended;
- `vocab.tsv` cut before its last library line;
- any one of the 28 header bytes of either binary file set to another
  value;
- a file that `recommend` reads swapped for the same file of a training
  with another seed;
- such a file deleted;
- a byte that is not UTF-8 put into a vocabulary line.

A directory that mixes the three files of three trainings names all
three.

Not covered: a payload byte changed so that its value stays finite.
Nothing is hashed on load (README gives the cost), so such a file is
served as it stands.
"""
import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplrec.cli import EXIT_DATA, EXIT_OK, _load_model, main
from tplrec.synth import planted_communities

BINARY = ("qnet.tplq", "representatives.tplr")
READ = (*BINARY, "vocab.tsv")
HEADER_BYTES = 28
TINY = ["--dim", "4", "--embed-batch", "64", "--negatives", "4", "--patience", "2", "--embed-epochs", "3",
        "--agent-epochs", "1", "--agent-batch", "16", "--hidden", "8", "--transitions-per-project", "1"]


def run(argv) -> tuple[int, str, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """Three trainings on one tiny dataset, seeds 0, 1 and 2, and a query
    that the seed-0 model answers."""
    root = tmp_path_factory.mktemp("models")
    ds = planted_communities(n_projects=20, n_libraries=12, n_communities=2,
                             interactions_per_project=4, noise=0.1, seed=5)
    data = root / "data.tsv"
    data.write_text("".join(f"{ds.projects[u]}\t{ds.libraries[i]}\n" for u, i in ds.interactions))
    for seed in (0, 1, 2):
        argv = ["train", "--dataset", str(data), "--output", str(root / f"seed{seed}"), *TINY, "--seed", str(seed)]
        assert run(argv)[0] == EXIT_OK
    query = ",".join(ds.libraries[i] for i in ds.by_project[0][:2])
    code, out, err = run(recommend_argv(root / "seed0", query))
    assert (code, err) == (EXIT_OK, []) and len(out.splitlines()) == 3
    return root, query


def recommend_argv(model: Path, query: str) -> list[str]:
    return ["recommend", "--model-dir", str(model), "--query", query, "--k", "3"]


def damage(data, model: Path, other: Path) -> str:
    """Draw one kind of damage, do it to the files in `model` and return
    the name of the damaged file."""
    kind = data.draw(st.sampled_from(["resize", "cut vocabulary", "header byte", "swap", "delete", "not UTF-8"]))
    name = "vocab.tsv"
    if kind in ("resize", "header byte"):
        name = data.draw(st.sampled_from(BINARY), label="file")
        path = model / name
        raw = bytearray(path.read_bytes())
        if kind == "resize":
            change = data.draw(st.integers(-len(raw), 64).filter(bool), label="change in length")
            raw = raw[:change] if change < 0 else raw + bytes(change)
        else:
            at = data.draw(st.integers(0, HEADER_BYTES - 1), label="offset")
            raw[at] = data.draw(st.integers(0, 255).filter(lambda v: v != raw[at]), label="value")
        path.write_bytes(bytes(raw))
    elif kind == "cut vocabulary":
        path = model / name
        raw = path.read_bytes()
        path.write_bytes(raw[:data.draw(st.integers(0, raw.rindex(b"\nlibrary\t") + 1), label="kept bytes")])
    elif kind in ("swap", "delete"):
        name = data.draw(st.sampled_from(READ), label="file")
        (model / name).unlink()
        if kind == "swap":
            shutil.copy(other / name, model / name)
    else:
        path = model / name
        lines = path.read_bytes().splitlines(keepends=True)
        j = data.draw(st.integers(0, len(lines) - 1), label="line")
        at = data.draw(st.integers(0, len(lines[j]) - 1), label="position")  # before the line's newline
        byte = data.draw(st.integers(0x80, 0xFF), label="byte")  # none of these is UTF-8 among ASCII
        lines[j] = lines[j][:at] + bytes([byte]) + lines[j][at:]
        path.write_bytes(b"".join(lines))
    return name


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_model_directory_is_one_data_error(models, data):
    root, query = models
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model"
        shutil.copytree(root / "seed0", model)
        damaged = damage(data, model, root / "seed1")
        code, out, err = run(recommend_argv(model, query))
    assert code == EXIT_DATA and out == "", (code, out, err)
    assert len(err) == 1 and err[0].startswith("data error:"), err
    assert [name for name in READ if name in err[0]] == [damaged], err


def test_files_of_three_trainings_are_all_named(models, tmp_path):
    root, query = models
    model = tmp_path / "model"
    model.mkdir()
    for seed, name in enumerate(READ):
        shutil.copy(root / f"seed{seed}" / name, model / name)
    code, out, err = run(recommend_argv(model, query))
    assert code == EXIT_DATA and out == "", (code, out, err)
    assert len(err) == 1 and err[0].startswith("data error:"), err
    assert all(str(model / name) in err[0] for name in READ), err


def test_retraining_in_place_leaves_a_loaded_model_whole(models, tmp_path):
    """`train` replaces each file by rename. A model loaded before a
    retraining into its directory keeps its arrays bit for bit, no
    temporary file is left, and the directory holds the same files and
    bytes as a training with that seed into a fresh directory."""
    root, _ = models
    model = tmp_path / "model"
    shutil.copytree(root / "seed0", model)
    _, net, rep = _load_model(model)
    held = [*net.params.values(), rep.vectors, rep.has_rep]
    before = [array.tobytes() for array in held]
    argv = ["train", "--dataset", str(root / "data.tsv"), "--output", str(model), *TINY, "--seed", "1"]
    assert run(argv)[0] == EXIT_OK
    assert [array.tobytes() for array in held] == before
    names = sorted(os.listdir(model))
    assert names == sorted(os.listdir(root / "seed1"))
    assert {*READ, "embeddings.tple", "curve.csv", "manifest.txt"} <= set(names)

    def content(path):  # the manifest records the output directory, which differs by design
        lines = path.read_bytes().splitlines(keepends=True)
        return [line for line in lines if not (path.name == "manifest.txt" and line.startswith(b"output "))]

    assert all(content(model / name) == content(root / "seed1" / name) for name in names)
