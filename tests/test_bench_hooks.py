"""The benchmark's traced run wraps program functions by name from outside
(`perfbench/layers.py`); a rename that breaks one of its sites fails here."""
import sys
from pathlib import Path

import tplrec
import tplrec.cli  # noqa: F401 - layers.sites reaches every module through the package

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layers  # noqa: E402
import spans  # noqa: E402


def lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_over_every_site_and_uninstalls():
    sites = layers.sites(tplrec)
    before = [lookup(owner, attr) for owner, attr, _, _ in sites]
    tracer = spans.Tracer()
    tracer.install(sites)
    try:
        assert all(lookup(owner, attr) is not raw for (owner, attr, _, _), raw in zip(sites, before))
        tplrec.data.ingest(["p\tl"])
        assert [s[1] for s in tracer.spans] == ["data.ingest"]
    finally:
        tracer.uninstall()
    assert all(lookup(owner, attr) is raw for (owner, attr, _, _), raw in zip(sites, before))
