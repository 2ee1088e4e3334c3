"""
Machine-checkable verification suites behind `gwg verify`.

Each suite sweeps the library's defining identities up to a degree bound and
returns a plain dict report; nothing here raises on a mathematical failure,
so a broken identity shows up as a failed check rather than a stack trace.
"""

from __future__ import annotations

from itertools import permutations as _permutations

from . import action, beissinger, gelfand, hecke, tableau, wgraph
from .laurent import ONE, X_MINUS_XINV, ZERO
from .perm import Permutation, cycle_type, enumerate_involutions


def _check(checks, name, ok, detail=""):
    entry = {"name": name, "passed": bool(ok)}
    if detail and not ok:
        entry["detail"] = detail
    checks.append(entry)


def suite_insertion(n: int) -> dict:
    """Bijectivity, fixed-point refinements, and round trips of the P maps."""
    checks = []
    for m in range(1, n + 1):
        invs = list(enumerate_involutions(m))
        syt = list(tableau.standard_tableaux(m))
        rbs = [beissinger.p_rbs(y) for y in invs]
        cbs = [beissinger.p_cbs(y) for y in invs]
        for tabs, odd_dir, tag in ((rbs, "columns", "rbs"), (cbs, "rows", "cbs")):
            _check(checks, f"p_{tag} bijective on I_{m}",
                   len({T.rows for T in tabs}) == len(invs) == len(syt))
            _check(checks, f"p_{tag} fixed-point refinement at n={m}",
                   all(tableau.odd_lines(T, odd_dir) == len(y.fixed_points())
                       for y, T in zip(invs, tabs)))
        _check(checks, f"round trips on I_{m}",
               all(beissinger.p_rbs_inverse(a) == y and beissinger.p_cbs_inverse(b) == y
                   for y, a, b in zip(invs, rbs, cbs)))
        _check(checks, f"p_rbs equals RS insertion tableau on I_{m}",
               all(a == tableau.pq_rs(y)[0] for y, a in zip(invs, rbs)))
    return _wrap("insertion", n, checks)


def suite_partners(n: int) -> dict:
    """Closed-form D_i partners versus exhaustive search, both variants."""
    checks = []
    for m in range(3, n + 1):
        invs = list(enumerate_involutions(m))
        for maps, partner, tag in (
            (beissinger.p_rbs, beissinger.simrbs_partner, "rbs"),
            (beissinger.p_cbs, beissinger.simcbs_partner, "cbs"),
        ):
            tabs = {y: maps(y) for y in invs}
            ok = True
            detail = ""
            for i in range(2, m):
                # unique partner by search: z -> D_i(P(z)) is injective
                lookup = {}
                for z in invs:
                    key = tableau.dual_equiv(tabs[z], i).rows
                    if key in lookup:
                        ok, detail = False, f"non-unique partner at n={m}, i={i}"
                    lookup[key] = z
                for y in invs:
                    want = lookup.get(tabs[y].rows)
                    got = partner(y, i)
                    if want != got or partner(got, i) != y:
                        ok = False
                        detail = f"{tag} partner of {y.word} at i={i}: {got.word} != {want.word}"
                        break
                if not ok:
                    break
            _check(checks, f"{tag} partner formula exhaustive at n={m}", ok, detail)
    return _wrap("partners", n, checks)


def suite_gelfand(n: int) -> dict:
    """Embeddings, module relations, canonical bases, and the hat-P picture."""
    checks = []
    for m in range(1, n + 1):
        invs = list(enumerate_involutions(m))
        pairs = [(gelfand.embed(w, "asc"), gelfand.embed(w, "des")) for w in invs]
        _check(checks, f"embedding length/descent identities at n={m}",
               all(za.length() + len(w.fixed_points()) * (len(w.fixed_points()) - 1)
                   == zd.length()
                   and gelfand.descent_data(za) == gelfand.descent_data(zd)
                   for w, (za, zd) in zip(invs, pairs)))
        asc_words = {za.word for za, _ in pairs}
        universe = (
            w.word for w in enumerate_involutions(2 * m) if not w.fixed_points()
        ) if m <= 4 else asc_words
        _check(checks, f"ascending image = visible-descent criterion at n={m}",
               all((wd in asc_words) == gelfand.in_asc_image(wd, m)
                   for wd in universe))
        # each vertex's p-map tableau, and hat_p's pass over its first m letters
        full = [(beissinger.p_rbs(za.involution), beissinger.p_cbs(zd.involution))
                for za, zd in pairs]
        hats = [(gelfand.hat_p(za), gelfand.hat_p(zd)) for za, zd in pairs]
        _check(checks, f"reconstruction from restricted tableaux at n={m}",
               all(gelfand.iota_line(ha, "row") == fa and gelfand.iota_line(hd, "col") == fd
                   for (fa, fd), (ha, hd) in zip(full, hats)))
        _check(checks, f"hat-P bijective with transfer-point refinement at n={m}",
               len({ha.rows for ha, _ in hats}) == len({hd.rows for _, hd in hats}) == len(invs)
               and all(tableau.odd_lines(ha, "columns") == len(gelfand.transfer_points(za))
                       and tableau.odd_lines(hd, "rows") == len(gelfand.transfer_points(zd))
                       for (za, zd), (ha, hd) in zip(pairs, hats)))
        if m >= 2 and m <= 5:
            bad = [
                f"{sym}: {msg}"
                for sym, variant in (("M", "asc"), ("N", "des"))
                for msg in action.relation_violations(gelfand._model(m, variant).action())
            ]
            _check(checks, f"quadratic and braid relations at n={m}", not bad,
                   "; ".join(bad))
            # bar(bar(T_v)) = T_v, and bar(H_s·T_v) = (H_s - (x - x^-1))·bar(T_v) in
            # the form bar((H_s - (x - x^-1))·T_v) = H_s·bar(T_v), equal by semilinearity
            ok_bar = True
            for variant in ("asc", "des"):
                model = gelfand._model(m, variant)
                for v in range(len(model.words)):
                    e = {v: ONE}
                    be = model.bar_col(e)
                    if model.bar_col(be) != e:
                        ok_bar = False
                    for i in range(1, m):
                        col = model.h_col(i, e)
                        col[v] = col.get(v, ZERO) - X_MINUS_XINV
                        if model.bar_col(col) != model.h_col(i, be):
                            ok_bar = False
            _check(checks, f"bar operator involutive and compatible at n={m}", ok_bar)
        try:
            for variant in ("asc", "des"):
                gelfand._model(m, variant).check_intertwining()
            _check(checks, f"canonical bases verified at n={m}", True)
        except RuntimeError as exc:
            _check(checks, f"canonical bases verified at n={m}", False, str(exc))
        if m <= 5:
            try:
                same = all(
                    gelfand._model(m, v).canonical_columns()
                    == gelfand.Model(m, v, pick="max").canonical_columns()
                    for v in ("asc", "des")
                )
                _check(checks, f"pivot choice independence at n={m}", same)
            except RuntimeError as exc:
                _check(checks, f"pivot choice independence at n={m}", False, str(exc))
    return _wrap("gelfand", n, checks)


def _conjugacy_representatives(n: int):
    seen = set()
    reps = []
    for p in _permutations(range(1, n + 1)):
        key = tuple(sorted(cycle_type(p)))
        if key not in seen:
            seen.add(key)
            reps.append(Permutation(p))
    return reps


def suite_wgraph(n: int) -> dict:
    """Axioms, molecule classification, edge descriptions, characters."""
    checks = []
    for m in range(1, n + 1):
        for variant in ("row", "col"):
            g = wgraph.build_gamma(m, variant)  # the one reduced graph of every check
            if m <= 5:
                for reduced, h in ((True, g), (False, wgraph.build_gamma(m, variant, False))):
                    rep = wgraph.verify_axioms(h)
                    _check(checks, f"axioms {variant} n={m} reduced={reduced}",
                           rep.ok, "; ".join(rep.violations))
            r = wgraph.classify_graph(g)
            _check(checks, f"molecules = shape fibers ({variant}, n={m})",
                   r.molecules_match_fibers, "; ".join(r.counterexamples))
            if m <= 5:
                _check(checks, f"bidirected edges combinatorial ({variant}, n={m})",
                       r.edges_match, "; ".join(r.counterexamples))
                _check(checks, f"character identity ({variant}, n={m})",
                       all(wgraph.character_check(g, w)
                           for w in _conjugacy_representatives(m)))
    return _wrap("wgraph", n, checks)


def suite_kl(n: int) -> dict:
    """KL basis sanity and cells-versus-RS-fibers cross-validation."""
    checks = []
    for m in range(1, n + 1):
        table = hecke._regular(m)
        coefs = table.column_store().coefs  # every nonzero KL coefficient
        try:
            table.check_intertwining()
            ok, detail = True, ""
        except RuntimeError as exc:
            ok, detail = False, str(exc)
        _check(checks, f"KL basis bar-invariant at n={m}", ok, detail)
        _check(checks, f"KL coefficients nonnegative at n={m}", min(coefs) >= 0)
        rs = {p: tableau.pq_rs(p) for p in _permutations(range(1, m + 1))}
        for side, which in (("left", 1), ("right", 0)):
            fibers = {}
            for p, pq in rs.items():
                fibers.setdefault(pq[which].rows, []).append(p)
            want = sorted(sorted(v) for v in fibers.values())
            got = sorted(sorted(c) for c in hecke.kl_cells(m, side))
            _check(checks, f"{side} KL cells = RS fibers at n={m}", got == want)
    return _wrap("kl", n, checks)


def suite_conjecture(n: int) -> dict:
    """Cells coincide with molecules in both Gelfand graphs."""
    checks = []
    for m in range(1, n + 1):
        for variant in ("row", "col"):
            _check(checks, f"cells = molecules ({variant}, n={m})",
                   wgraph.classify(m, variant).cells_match_molecules)
    return _wrap("conjecture", n, checks)


SUITES = {
    "insertion": suite_insertion,
    "partners": suite_partners,
    "gelfand": suite_gelfand,
    "wgraph": suite_wgraph,
    "kl": suite_kl,
    "conjecture": suite_conjecture,
}


def _wrap(name: str, n: int, checks) -> dict:
    return {
        "suite": name,
        "n": n,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def run_suite(name: str, n: int) -> dict:
    if name == "all":
        reports = [fn(n) for fn in SUITES.values()]
        return {
            "suite": "all",
            "n": n,
            "passed": all(r["passed"] for r in reports),
            "checks": [c for r in reports for c in r["checks"]],
        }
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](n)
