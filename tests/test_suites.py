import pytest

from gelfand_wgraphs import gelfand
from gelfand_wgraphs.suites import SUITES, run_suite


@pytest.mark.parametrize("name,n", [
    ("insertion", 5),
    ("partners", 5),
    ("gelfand", 4),
    ("wgraph", 4),
    ("kl", 4),
    ("conjecture", 5),
])
def test_each_suite_passes(name, n):
    report = run_suite(name, n)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert report["passed"] and not failed, failed


def test_run_all_collects_everything():
    report = run_suite("all", 2)
    assert report["passed"]
    assert len(report["checks"]) >= len(SUITES)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("everything", 3)


def test_gelfand_suite_reports_broken_action(monkeypatch):
    # H_{s_2} doubled: the relations fail, and the canonical-basis recursion
    # built on the same action fails its self-check; both are reported
    true_h_col = gelfand.ModuleTable.h_col

    def doubled(self, i, col):
        out = true_h_col(self, i, col)
        return {v: c + c for v, c in out.items()} if i == 2 else out

    monkeypatch.setattr(gelfand.ModuleTable, "h_col", doubled)
    gelfand._model.cache_clear()
    try:
        report = run_suite("gelfand", 3)
    finally:
        gelfand._model.cache_clear()
    failed = {c["name"]: c.get("detail", "") for c in report["checks"] if not c["passed"]}
    assert not report["passed"]
    assert "quadratic relation fails for s_2" in failed["quadratic and braid relations at n=3"]
    assert "quadratic and braid relations at n=2" not in failed
