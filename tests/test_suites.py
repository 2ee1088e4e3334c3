import pytest

from gelfand_wgraphs import gelfand
from gelfand_wgraphs.beissinger import _insert_pair
from gelfand_wgraphs.laurent import ONE
from gelfand_wgraphs.suites import SUITES, run_suite
from gelfand_wgraphs.tableau import Tableau, bump


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


def test_gelfand_suite_reports_broken_action(monkeypatch, fresh_tables):
    # H_{s_2} doubled in the packed module action: the relations fail, and
    # so do the bar checks, which run on the same action; both are reported
    true_terms = gelfand.ModuleTable.action_terms

    def doubled(self):
        terms = dict(true_terms(self))
        if 2 in terms:
            terms[2] = [tuple((u, d, 2 * a) for u, d, a in tv) for tv in terms[2]]
        return terms

    monkeypatch.setattr(gelfand.ModuleTable, "action_terms", doubled)
    report = run_suite("gelfand", 3)
    failed = {c["name"]: c.get("detail", "") for c in report["checks"] if not c["passed"]}
    assert not report["passed"]
    assert "quadratic relation fails for s_2" in failed["quadratic and braid relations at n=3"]
    assert "quadratic and braid relations at n=2" not in failed
    assert "bar operator involutive and compatible at n=3" in failed


def test_gelfand_suite_bar_check_sees_a_broken_bar(monkeypatch, fresh_tables):
    # bar(T_v) off by one in one LaurentPoly coefficient at the longest
    # vertex of I_3: the relations and the certificate never read bar(T_v),
    # so only the bar check can see it
    true_barvec = gelfand.ModuleTable.barvec

    def broken(self, v):
        got = true_barvec(self, v)
        if self.n == 3 and v == len(self.words) - 1:
            u = min(got)
            got = {**got, u: got[u] + ONE}
        return got

    monkeypatch.setattr(gelfand.ModuleTable, "barvec", broken)
    report = run_suite("gelfand", 3)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"bar operator involutive and compatible at n=3"}


def test_gelfand_suite_sees_des_transfer_points_bumped_in_asc_order(monkeypatch):
    # hat_p with the 'des' transfer points bumped in increasing a, the order
    # that is right only for 'asc': from n=2, where the identity has two
    # fixed points, its tableaux no longer double back to the p-map tableaux
    def wrong_order(z):
        n, rows = z.n, []
        for b, a in enumerate(z.word[:n], 1):
            if a < b:
                _insert_pair(rows, a, b, z.variant == "asc")
        for a, b in enumerate(z.word[:n], 1):
            if b > n:
                bump(rows, a)
        return Tableau(rows)

    monkeypatch.setattr(gelfand, "hat_p", wrong_order)
    report = run_suite("gelfand", 5)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert not report["passed"]
    for m in range(1, 6):
        assert (f"reconstruction from restricted tableaux at n={m}" in failed) == (m >= 2), m


def test_suites_fetch_each_checked_object_once(monkeypatch):
    # one reduced graph per (m, variant) in the wgraph suite, one certificate
    # per (m, variant) in the gelfand suite, one p-map tableau of each kind
    # per involution and one RS pair per permutation
    from gelfand_wgraphs import beissinger, tableau, wgraph
    from gelfand_wgraphs.perm import enumerate_involutions

    calls = []

    def counted(owner, name, tag=None):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(tag(*args, **kwargs) if tag else name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def build_tag(n, variant, reduced=True):
        return f"build reduced={bool(reduced)}"

    counted(wgraph, "build_gamma", build_tag)
    counted(gelfand.ModuleTable, "check_intertwining")
    counted(beissinger, "p_rbs")
    counted(beissinger, "p_cbs")
    counted(tableau, "pq_rs")

    assert run_suite("wgraph", 5)["passed"]
    assert calls.count("build reduced=True") == 10
    assert calls.count("build reduced=False") == 10
    calls.clear()
    assert run_suite("gelfand", 5)["passed"]
    assert calls.count("check_intertwining") == 10
    calls.clear()
    assert run_suite("insertion", 5)["passed"]
    involutions = sum(len(list(enumerate_involutions(m))) for m in range(1, 6))
    assert calls.count("p_rbs") == calls.count("p_cbs") == involutions
    assert calls.count("pq_rs") == involutions
    calls.clear()
    assert run_suite("kl", 4)["passed"]
    assert calls.count("pq_rs") == 1 + 2 + 6 + 24
