import numpy as np
import pytest

from tplrec.agent import QNetwork, load_qnetwork, save_qnetwork
from tplrec.cli import EXIT_DATA, EXIT_OK, main
from tplrec.coldstart import RepresentativeTable
from tplrec.embed import EmbeddingTable
from tplrec.errors import DataError

LOADERS = {
    "embeddings.tple": EmbeddingTable.load,
    "representatives.tplr": RepresentativeTable.load,
    "qnet.tplq": load_qnetwork,
}


def write_model(path):
    """Hand-built artifacts of a 6-library model, as `tplrec train` lays them out."""
    rng = np.random.default_rng(0)
    m, d = 6, 3
    EmbeddingTable(rng.normal(size=(4, d)), rng.normal(size=(m, d))).save(path / "embeddings.tple")
    RepresentativeTable(rng.normal(size=(m, d)), 0.5, np.ones(m, dtype=bool)).save(path / "representatives.tplr")
    save_qnetwork(path / "qnet.tplq", QNetwork(d, m, hidden=5, rng=1))
    (path / "vocab.tsv").write_text("project\tp0\n" + "".join(f"library\tlib{i}\n" for i in range(m)))


def resize(path, change):
    raw = path.read_bytes()
    path.write_bytes(raw[:change] if change < 0 else raw + bytes(change))


@pytest.mark.parametrize("name", LOADERS)
def test_save_load_save_is_byte_identical(tmp_path, name):
    write_model(tmp_path)
    raw = (tmp_path / name).read_bytes()
    loaded = LOADERS[name](tmp_path / name)
    again = tmp_path / ("again-" + name)
    if name == "qnet.tplq":
        save_qnetwork(again, loaded)
    else:
        loaded.save(again)
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


@pytest.mark.parametrize("change", [-3, 3], ids=["truncated", "extended"])
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
