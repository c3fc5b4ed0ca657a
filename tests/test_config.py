"""Which configuration values the command line refuses: one `--key value`
override for every key and every odd value of the fuzz test, plus the
token and config-file spellings that must keep working or keep failing.
The table was recorded from `load_config` before the config fields were
declared in one place, so it pins that the declarations refuse the same
inputs."""
import pytest

from test_cli_fuzz import VALUES
from tplrec.cli import DEFAULTS, UsageError, load_config

ALL = ["0", "-1", "2", "1e300", "nan", "inf", "x", "", "2147483648", "9223372036854775808", "100000000000000000000"]
REFUSED = {
    "dataset": [],
    "output": [],
    "protocol": ALL,
    "folds": ["0", "-1", "1e300", "nan", "inf", "x", ""],
    "k": ["0", "-1", "1e300", "nan", "inf", "x", ""],
    "query_fraction": ALL,
    "train_fraction": ALL,
    "blend": ["-1", "2", "1e300", "nan", "inf", "x", "", "2147483648", "9223372036854775808", "100000000000000000000"],
    "mode": ALL,
    "seed": ["-1", "1e300", "nan", "inf", "x", ""],
    "layers": ["-1", "1e300", "nan", "inf", "x", ""],
    "dim": ["0", "-1", "1e300", "nan", "inf", "x", "", "2147483648", "9223372036854775808", "100000000000000000000"],
    "embed_batch": ["0", "-1", "1e300", "nan", "inf", "x", ""],
    "embed_lr": ["0", "-1", "nan", "inf", "x", ""],
    "l2": ["-1", "nan", "inf", "x", ""],
    "negatives": ["0", "-1", "1e300", "nan", "inf", "x", "", "2147483648", "9223372036854775808",
                  "100000000000000000000"],
    "temperature": ["0", "-1", "nan", "inf", "x", ""],
    "beta": ["-1", "2", "1e300", "nan", "inf", "x", "", "2147483648", "9223372036854775808", "100000000000000000000"],
    "patience": ["0", "-1", "1e300", "nan", "inf", "x", ""],
    "embed_epochs": ["0", "-1", "1e300", "nan", "inf", "x", ""],
    "gamma": ["-1", "2", "1e300", "nan", "inf", "x", "", "2147483648", "9223372036854775808", "100000000000000000000"],
    "alpha": ["-1", "nan", "inf", "x", ""],
    "agent_lr": ["0", "-1", "nan", "inf", "x", ""],
    "agent_epochs": ["0", "-1", "1e300", "nan", "inf", "x", ""],
    "agent_batch": ["0", "-1", "1e300", "nan", "inf", "x", "", "2147483648", "9223372036854775808",
                    "100000000000000000000"],
    "hidden": ["0", "-1", "1e300", "nan", "inf", "x", "", "2147483648", "9223372036854775808",
               "100000000000000000000"],
    "target_sync": ["0", "-1", "1e300", "nan", "inf", "x", ""],
    "capacity": ["0", "-1", "1e300", "nan", "inf", "x", ""],
    # one ratio alone cannot change and leave the three summing to 1
    "mu_rare": ALL,
    "mu_rand": ALL,
    "mu_seq": ALL,
    "transitions_per_project": ["0", "-1", "1e300", "nan", "inf", "x", "", "2147483648", "9223372036854775808",
                                "100000000000000000000"],
}


def refuses(overrides, path=None) -> bool:
    try:
        load_config(path, overrides)
    except UsageError:
        return True
    return False


def test_table_covers_every_key_and_value():
    assert VALUES == ALL
    assert list(REFUSED) == list(DEFAULTS)


@pytest.mark.parametrize("key", list(REFUSED))
def test_refusals(key):
    assert [v for v in VALUES if refuses(["--" + key, v])] == REFUSED[key]


@pytest.mark.parametrize("overrides", [["--output", "-odd"], ["--dataset", "-x.tsv"], ["--embed-epochs", "3"],
                                       ["--embed_epochs", "3"], ["--l2", "0"]])
def test_accepted(overrides):
    assert not refuses(overrides)


@pytest.mark.parametrize("overrides", [["--seed=3"], ["--seed=3", "4"], ["--l2", "-1e-5"], ["seed", "3"],
                                       ["--seed"], ["--policy", "random"], ["--grad-steps-per-epoch", "5"]])
def test_refused(overrides):
    assert refuses(overrides)


@pytest.mark.parametrize("line, key, value", [("k = 5", "k", 5), ("dataset /data/a=b.tsv", "dataset", "/data/a=b.tsv")])
def test_config_file_line(tmp_path, line, key, value):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    assert getattr(load_config(str(path), []), key) == value
