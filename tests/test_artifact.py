import mmap
import os

import numpy as np
import pytest

from tplrec.agent import MODES, QNetwork, load_qnetwork, qnetwork_artifact, recommend, save_qnetwork
from tplrec.artifact import model_id_of, write_atomic
from tplrec.cli import EXIT_DATA, EXIT_OK, _load_model, main
from tplrec.coldstart import RepresentativeTable
from tplrec.embed import EmbeddingTable
from tplrec.errors import DataError

LOADERS = {
    "embeddings.tple": EmbeddingTable.load,
    "representatives.tplr": RepresentativeTable.load,
    "qnet.tplq": load_qnetwork,
}
# The artifact of each loaded object, to write it again.
ARTIFACTS = {
    "embeddings.tple": EmbeddingTable.artifact,
    "representatives.tplr": RepresentativeTable.artifact,
    "qnet.tplq": qnetwork_artifact,
}


def write_model(path):
    """Hand-built artifacts of a 6-library model, as `tplrec train` lays them out."""
    rng = np.random.default_rng(0)
    m, d = 6, 3
    emb = EmbeddingTable(rng.normal(size=(4, d)), rng.normal(size=(m, d)))
    rep = RepresentativeTable(rng.normal(size=(m, d)), 0.5, np.ones(m, dtype=bool))
    net = QNetwork(d, m, hidden=5, rng=1)
    artifacts = {"embeddings.tple": emb.artifact(), "representatives.tplr": rep.artifact(),
                 "qnet.tplq": qnetwork_artifact(net)}
    model_id = model_id_of(*artifacts.values())
    for name, art in artifacts.items():
        art.write(path / name, model_id)
    write_vocab(path, model_id, m)


def write_vocab(path, model_id, m=6):
    (path / "vocab.tsv").write_text(f"model\t{model_id}\nproject\tp0\n"
                                    + "".join(f"library\tlib{i}\n" for i in range(m)))


def stamped_id(path):
    return (path / "vocab.tsv").read_text().splitlines()[0].split("\t")[1]


def resize(path, change):
    raw = path.read_bytes()
    path.write_bytes(raw[:change] if change < 0 else raw + bytes(change))


@pytest.mark.parametrize("name", LOADERS)
def test_save_load_save_is_byte_identical(tmp_path, name):
    write_model(tmp_path)
    raw = (tmp_path / name).read_bytes()
    loaded = LOADERS[name](tmp_path / name)
    again = tmp_path / ("again-" + name)
    ARTIFACTS[name](loaded).write(again, stamped_id(tmp_path))
    assert again.read_bytes() == raw


@pytest.mark.parametrize("change", [-3, 3], ids=["truncated", "extended"])
@pytest.mark.parametrize("name", LOADERS)
def test_wrong_length_rejected(tmp_path, name, change):
    write_model(tmp_path)
    resize(tmp_path / name, change)
    with pytest.raises(DataError, match="header implies"):
        LOADERS[name](tmp_path / name)


@pytest.mark.parametrize("name", LOADERS)
def test_truncated_header_rejected(tmp_path, name):
    write_model(tmp_path)
    resize(tmp_path / name, -(len((tmp_path / name).read_bytes()) - 6))
    with pytest.raises(DataError):
        LOADERS[name](tmp_path / name)


@pytest.mark.parametrize("name", LOADERS)
def test_empty_file_rejected(tmp_path, name):
    (tmp_path / name).write_bytes(b"")  # an empty file cannot be mapped
    with pytest.raises(DataError, match="bad magic"):
        LOADERS[name](tmp_path / name)


# A cut longer than the file leaves it empty.
@pytest.mark.parametrize("change", [-3, 3, -2**30], ids=["truncated", "extended", "empty"])
@pytest.mark.parametrize("name", ["representatives.tplr", "qnet.tplq"])
def test_recommend_exits_data_error_on_corrupt_artifact(tmp_path, capsys, name, change):
    write_model(tmp_path)
    argv = ["recommend", "--model-dir", str(tmp_path), "--query", "lib0", "--k", "2"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    resize(tmp_path / name, change)
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:") and name in err[0]


def flip_exponent(path, value=0):
    """Set every exponent bit of the artifact's `value`-th stored float32,
    which makes it Inf or NaN without changing the file's length."""
    raw = bytearray(path.read_bytes())
    at = 28 + 4 * value  # header: magic, version byte, 3 pad bytes, three u32 dimensions, 8-byte model id
    raw[at + 2] |= 0x80
    raw[at + 3] |= 0x7F
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("name", LOADERS)
def test_non_finite_value_rejected(tmp_path, name):
    write_model(tmp_path)
    flip_exponent(tmp_path / name)
    with pytest.raises(DataError, match="non-finite"):
        LOADERS[name](tmp_path / name)


@pytest.mark.parametrize("name", ["representatives.tplr", "qnet.tplq"])
def test_recommend_exits_data_error_on_non_finite_artifact(tmp_path, capsys, name):
    write_model(tmp_path)
    flip_exponent(tmp_path / name, value=5)
    argv = ["recommend", "--model-dir", str(tmp_path), "--query", "lib0", "--k", "2"]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:") and name in err[0]


@pytest.mark.parametrize("name", LOADERS)
def test_other_version_rejected(tmp_path, name):
    write_model(tmp_path)
    raw = bytearray((tmp_path / name).read_bytes())
    raw[4] = 1
    (tmp_path / name).write_bytes(bytes(raw))
    with pytest.raises(DataError, match="unsupported version 1"):
        LOADERS[name](tmp_path / name)


def test_loaded_model_ids_agree_and_survive_a_save(tmp_path):
    write_model(tmp_path)
    libraries, net, rep = _load_model(tmp_path)
    assert libraries.model_id == stamped_id(tmp_path)
    again = tmp_path / "again"
    again.mkdir()
    qnetwork_artifact(net).write(again / "qnet.tplq", libraries.model_id)
    rep.artifact().write(again / "representatives.tplr", libraries.model_id)
    write_vocab(again, libraries.model_id)
    _load_model(again)


@pytest.mark.parametrize("name", ["vocab.tsv", "representatives.tplr", "qnet.tplq"])
def test_reader_rejects_another_model_id(tmp_path, name):
    """The model-directory reader names the one file stamped with another
    id; the per-file loaders take no id and load it."""
    write_model(tmp_path)
    stamp = stamped_id(tmp_path)
    other = format(int(stamp, 16) ^ 1, "016x")
    if name == "vocab.tsv":
        write_vocab(tmp_path, other)
    else:
        loaded = LOADERS[name](tmp_path / name)
        ARTIFACTS[name](loaded).write(tmp_path / name, other)
        LOADERS[name](tmp_path / name)
    with pytest.raises(DataError) as raised:
        _load_model(tmp_path)
    assert str(raised.value) == f"{tmp_path / name} has model id {other}: the files come from different trainings"


def test_unstamped_save_uses_its_own_payload_id(tmp_path):
    net = QNetwork(3, 4, hidden=5, rng=2)
    save_qnetwork(tmp_path / "q.tplq", net)
    assert (tmp_path / "q.tplq").read_bytes()[20:28].hex() == model_id_of(qnetwork_artifact(net))


def mapping_of(array):
    """The object whose buffer is at the bottom of an array's chain of bases."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


def test_answers_do_not_depend_on_where_the_weights_sit(tmp_path):
    """`recommend` on a loaded model, whose arrays sit in a file mapping at
    offsets that are not 16-byte aligned, equals `recommend` on the same
    arrays copied into fresh memory, bit for bit: no kernel takes an
    alignment-dependent path."""
    rng = np.random.default_rng(3)
    m, d = 700, 13
    net = QNetwork(d, m, hidden=47, rng=4)
    net.params = {name: p.astype(np.float32) for name, p in net.params.items()}
    has_rep = rng.random(m) < 0.9
    qnetwork_artifact(net).write(tmp_path / "qnet.tplq")
    RepresentativeTable(rng.normal(size=(m, d)), 0.5, has_rep).artifact().write(tmp_path / "representatives.tplr")
    mapped_net = load_qnetwork(tmp_path / "qnet.tplq")
    mapped_rep = RepresentativeTable.load(tmp_path / "representatives.tplr")
    assert isinstance(mapping_of(mapped_net.params["wa"]), mmap.mmap)
    assert mapped_net.params["w1"].ctypes.data % 16 and mapped_net.params["wa"].ctypes.data % 16
    copied_net = mapped_net.clone()
    copied_rep = RepresentativeTable(mapped_rep.vectors.copy(), mapped_rep.blend, mapped_rep.has_rep.copy())
    assert copied_net.params["wa"].ctypes.data % 16 == 0
    known = np.flatnonzero(has_rep)
    queries = [rng.choice(known, size=rng.integers(1, 6), replace=False).tolist() for _ in range(300)]
    for mode in MODES:
        for query in (queries[0], queries):
            mapped = recommend(query, 10, mapped_net, mapped_rep, mode, with_scores=True)
            copied = recommend(query, 10, copied_net, copied_rep, mode, with_scores=True)
            assert repr(mapped) == repr(copied)


def test_failed_write_leaves_the_target_and_no_temporary_file(tmp_path):
    (tmp_path / "model").mkdir()
    with pytest.raises(OSError):
        write_atomic(tmp_path / "model", b"data")  # a file cannot replace a directory
    assert os.listdir(tmp_path) == ["model"]
