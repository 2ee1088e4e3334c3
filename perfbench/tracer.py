"""
Spans around calls into the library's public functions, installed from
outside the package by rebinding names in a traced interpreter.

Nothing under src/ knows about this module.  `install` wraps every name in
SPANS that still exists and lists the ones that do not as missing, so a
refactor that renames a public function shows up as a missing span instead
of a crash.  Spans are kept in memory and written out once, by `dump`, when
the operation ends.  A span record is

    [name, variant, op, start, duration, parent]

where variant is "row"/"col" when the call belongs to one Gelfand graph,
op is the operation the call served (the trace identifier), and parent is
the index of the enclosing span or -1.

Counting the objects a call produced (column terms, edges, ...) is deferred
to `finalize`, after the operation, so it never lands inside a span.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

PKG = "gelfand_wgraphs"

_VARIANTS = {"asc": "row", "des": "col", "M": "row", "N": "col", "row": "row", "col": "col"}


def _variant_arg(args, kwargs):
    """The variant passed as second argument: build_gamma(n, variant), ..."""
    return args[1] if len(args) > 1 else kwargs.get("variant")


def _first_variant(args, kwargs):
    """The variant of the first argument: a WGraph, a Model or a vertex."""
    return getattr(args[0], "variant", None) if args else None


# (span name, module, attribute path, variant getter, keep result for finalize)
SPANS = [
    ("cli.main", "cli", "main", None, False),
    ("suites.insertion", "suites", "suite_insertion", None, True),
    ("suites.partners", "suites", "suite_partners", None, True),
    ("suites.gelfand", "suites", "suite_gelfand", None, True),
    ("suites.wgraph", "suites", "suite_wgraph", None, True),
    ("suites.kl", "suites", "suite_kl", None, True),
    ("wgraph.build_gamma", "wgraph", "build_gamma", _variant_arg, True),
    ("wgraph.comb_pairs", "wgraph", "combinatorial_bidirected_pairs", _variant_arg, True),
    ("wgraph.classify", "wgraph", "classify", _variant_arg, False),
    ("wgraph.molecules", "wgraph", "molecules", _first_variant, False),
    ("wgraph.cells", "wgraph", "cells", _first_variant, False),
    ("wgraph.axioms", "wgraph", "verify_axioms", _first_variant, False),
    ("wgraph.character", "wgraph", "character_check", _first_variant, False),
    ("wgraph.export", "wgraph", "export", _first_variant, True),
    ("gelfand.model", "gelfand", "Model.__init__", _first_variant, False),
    ("gelfand.columns", "gelfand", "Model.canonical_columns", _first_variant, True),
    ("gelfand.bar_col", "gelfand", "Model.bar_col", _first_variant, False),
    ("gelfand.h_action", "gelfand", "h_action", None, False),
    ("gelfand.bar_module", "gelfand", "bar_module", None, False),
    ("gelfand.canonical_basis", "gelfand", "canonical_basis", _variant_arg, False),
    ("gelfand.tables_json", "gelfand", "tables_json", _variant_arg, False),
    ("gelfand.lambda_shape", "gelfand", "lambda_shape", _first_variant, False),
    ("hecke.kl_table", "hecke", "kl_table", None, True),
    ("hecke.h_bar", "hecke", "h_bar", None, False),
    ("hecke.kl_cells", "hecke", "kl_cells", None, False),
    ("beissinger.p_rbs", "beissinger", "p_rbs", None, False),
    ("beissinger.p_cbs", "beissinger", "p_cbs", None, False),
    ("beissinger.p_rbs_inverse", "beissinger", "p_rbs_inverse", None, False),
    ("beissinger.p_cbs_inverse", "beissinger", "p_cbs_inverse", None, False),
    ("beissinger.psi", "beissinger", "psi", None, False),
    ("beissinger.simrbs_partner", "beissinger", "simrbs_partner", None, False),
    ("beissinger.simcbs_partner", "beissinger", "simcbs_partner", None, False),
    ("tableau.dual_equiv", "tableau", "dual_equiv", None, False),
]

# enumerate_involutions is a generator: its span covers only the time spent
# producing items, and it also counts them
GENERATORS = [("perm.enumerate_involutions", "perm", "enumerate_involutions")]


def _rss_bytes() -> int:
    """Current resident set size; 0 where /proc is missing (not Linux)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.missing = []
        self.kept = []        # (span name, variant, args, result) for finalize
        self.rss_mb = {}      # variant -> RSS growth over canonical_columns
        self.counters = {}
        self.originals = {}   # dotted name -> unwrapped function

    # -- installation ---------------------------------------------------------

    def install(self):
        mods = {}
        for short in ("cli", "suites", "wgraph", "gelfand", "hecke",
                      "beissinger", "tableau", "perm", "laurent"):
            try:
                mods[short] = importlib.import_module(f"{PKG}.{short}")
            except ImportError:
                pass
        for name, mod, path, variant_of, keep in SPANS:
            self._install_one(mods, name, mod, path,
                              lambda fn, n=name, v=variant_of, k=keep: self._wrap(fn, n, v, k))
        for name, mod, path in GENERATORS:
            self._install_one(mods, name, mod, path, lambda fn, n=name: self._wrap_gen(fn, n))

    def _install_one(self, mods, name, mod, path, make):
        owner = mods.get(mod)
        parts = path.split(".")
        for p in parts[:-1]:
            owner = getattr(owner, p, None)
        fn = getattr(owner, parts[-1], None) if owner is not None else None
        if not callable(fn):
            self.missing.append(name)
            return
        self.originals[f"{mod}.{path}"] = fn
        wrapped = make(fn)
        if len(parts) > 1:  # a method: rebinding the class attribute is enough
            setattr(owner, parts[-1], wrapped)
            return
        # a function may be imported under its name into other modules, or
        # held in a registry dict (suites.SUITES): rebind every reference
        for m in mods.values():
            for key, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, key, wrapped)
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k2, v2 in list(val.items()):
                        if v2 is fn:
                            val[k2] = wrapped

    # -- span recording -------------------------------------------------------

    def _wrap(self, fn, name, variant_of, keep):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            rec = [name, None, tracer.op, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rss0 = _rss_bytes() if name == "gelfand.columns" else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock() - t0
                rec[3] = t0
                stack.pop()
            if variant_of is not None:
                rec[1] = _VARIANTS.get(variant_of(args, kwargs))
            if rss0:
                growth = (_rss_bytes() - rss0) / 2**20
                tracer.rss_mb[rec[1]] = tracer.rss_mb.get(rec[1], 0.0) + growth
            if keep:
                tracer.kept.append((name, rec[1], args, result))
            return result

        return wrapper

    def _wrap_gen(self, fn, name):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            rec = [name, None, tracer.op, clock(), 0.0, stack[-1] if stack else -1]
            tracer.spans.append(rec)
            items = 0
            it = fn(*args, **kwargs)
            try:
                while True:
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        break
                    finally:
                        rec[4] += clock() - t0
                    items += 1
                    yield item
            finally:
                tracer.count("perm.involutions", items)

        return wrapper

    # -- counts, taken after the operation ------------------------------------

    def count(self, key, value, how="sum"):
        old = self.counters.get(key)
        if old is None:
            self.counters[key] = value
        elif how == "max":
            self.counters[key] = max(old, value)
        else:
            self.counters[key] = old + value

    def finalize(self):
        """Turn the results kept by spans into counters, once per object."""
        seen = set()
        for name, variant, args, result in self.kept:
            if id(result) in seen:
                continue
            seen.add(id(result))
            sfx = f".{variant}" if variant else ""
            if name == "gelfand.columns":
                self._count_columns(args[0], result, sfx)
            elif name == "wgraph.build_gamma":
                self.count("wgraph.edges" + sfx, len(result.omega))
                if result.shapes is not None:
                    self.count("wgraph.fibers" + sfx, len(set(result.shapes)))
                self.count("wgraph.vertices" + sfx, result.size)
            elif name == "wgraph.comb_pairs":
                n = args[0] if args else None
                self.count("wgraph.gap2_pairs" + sfx, self._gap2_pairs(n, variant))
                self.count("wgraph.bidirected_pairs" + sfx, len(result))
            elif name == "wgraph.export":
                self.count("wgraph.export_bytes" + sfx, len(result.encode()))
            elif name == "hecke.kl_table":
                self.count("hecke.kl_terms", sum(len(c) for c in result[1].values()))
            elif name.startswith("suites."):
                checks = result.get("checks", [])
                self.count("suites.checks", len(checks))
                self.count("suites.failed_checks", sum(1 for c in checks if not c["passed"]))
        self.kept = []
        for variant, mb in self.rss_mb.items():
            self.count("gelfand.columns_rss_mb" + (f".{variant}" if variant else ""), mb)
        self.rss_mb = {}

    def _count_columns(self, model, cols, sfx):
        import gc

        terms = monos = 0
        neg = 0
        nbytes = 0
        for col in cols:
            terms += len(col)
            nbytes += sys.getsizeof(col)
            for poly in col.values():
                pairs = poly.items()
                monos += len(pairs)
                low = min((e for e, _ in pairs), default=0)
                neg = max(neg, -low)
                # the polynomial object plus the containers it owns; the
                # small ints inside are shared and left out
                nbytes += sys.getsizeof(poly) + sum(
                    sys.getsizeof(r) for r in gc.get_referents(poly)
                    if isinstance(r, (dict, list, tuple))
                )
        self.count("gelfand.vertices" + sfx, len(cols))
        self.count("gelfand.column_terms" + sfx, terms)
        self.count("gelfand.mu_entries" + sfx, len(model.mu_entries()))
        self.count("gelfand.max_neg_degree" + sfx, neg, how="max")
        self.count("laurent.monomials" + sfx, monos)
        self.count("laurent.store_bytes" + sfx, nbytes)

    def _gap2_pairs(self, n, variant):
        """Pairs whose lengths differ by 2: the candidates the pair scan tests."""
        if n is None or variant is None:
            return 0
        gelfand = sys.modules[f"{PKG}.gelfand"]
        perm = sys.modules[f"{PKG}.perm"]
        enum = self.originals.get("perm.enumerate_involutions", perm.enumerate_involutions)
        by_len = {}
        for y in enum(n):
            z = gelfand.embed(y, "asc" if variant == "row" else "des")
            l = perm.word_length(z.word)
            by_len[l] = by_len.get(l, 0) + 1
        return sum(c * by_len.get(l + 2, 0) for l, c in by_len.items())

    # -- output -----------------------------------------------------------------

    def dump(self) -> dict:
        t0 = time.perf_counter()
        self.finalize()
        return {"spans": self.spans, "counters": self.counters, "missing": self.missing,
                "finalize_s": time.perf_counter() - t0}
