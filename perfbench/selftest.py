#!/usr/bin/env python3
"""
Shows that the benchmark's checks count wrong answers as failures, and that
run.py reports exactly the per-layer metrics BENCHMARK.json lists.

    python3 perfbench/selftest.py

Run from the root of a checkout (it imports the package from ./src).  Each
case feeds a deliberately corrupted output to the real check and expects a
failure; the insert case runs the real insert loop with a wrong partner map
and expects the failures to show in the pass ratio.  Exits 1 on any miss.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def main() -> int:
    import gelfand_wgraphs  # noqa: F401
    from gelfand_wgraphs import beissinger, perm, tableau

    results = []

    def expect_failure(name, error):
        results.append((name, bool(error), error))

    # a build output whose bytes differ from the recorded export
    run.WORK.mkdir(parents=True, exist_ok=True)
    bad = run.WORK / "selftest-corrupt.json"
    bad.write_text("{}\n")
    expect_failure("wrong digest", checks.check_build(0, {"json": str(bad)}, "row"))
    bad.unlink()

    want = checks.expected()["classify9"]["lines"]
    expect_failure("classify FAIL line",
                   checks.check_classify(0, "\n".join(want[:2] + ["molecules=cells: FAIL (fibers=30)"])))
    expect_failure("classify exit code", checks.check_classify(1, "\n".join(want)))
    report = {"passed": True, "checks": [{"name": "x", "passed": True}] * 19}
    expect_failure("verify check missing", checks.check_verify(0, json.dumps(report), "kl"))

    # the real insert loop, with the row partner map replaced by the identity
    lib = types.SimpleNamespace(perm=perm, tableau=tableau, beissinger=types.SimpleNamespace(
        **{k: getattr(beissinger, k) for k in dir(beissinger) if not k.startswith("_")}))
    lib.beissinger.simrbs_partner = lambda y, i: y
    out = child.run_insert({"seed": 7, "count": 40, "seconds": 0}, lib, None)
    ratio = 1 - len(out["errors"]) / out["attempted"]
    expect_failure(f"wrong partner (pass_ratio {ratio:.3f})", ratio < 1 and out["errors"][0])

    # and the same loop with the real functions passes
    lib.beissinger.simrbs_partner = beissinger.simrbs_partner
    out = child.run_insert({"seed": 7, "count": 40, "seconds": 0}, lib, None)
    results.append(("correct insert passes", not out["errors"], "; ".join(out["errors"][:1])))

    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    reported = set(run.layer_metrics([])) | {"trace.overhead_s"}
    results.append(("per-layer names match BENCHMARK.json", listed == reported,
                     f"only listed: {sorted(listed - reported)}, only reported: {sorted(reported - listed)}"))

    # a wrapped name that a refactor removed is reported, not a crash
    spans = tracer.SPANS
    tracer.SPANS = spans + [("wgraph.gone", "wgraph", "no_such_function", None, False)]
    try:
        t = tracer.Tracer()
        t.install()
    finally:
        tracer.SPANS = spans
    results.append(("missing span reported", t.missing == ["wgraph.gone"], f"missing: {t.missing}"))

    ok = True
    for name, passed, detail in results:
        print(f"{'ok  ' if passed else 'MISS'} {name}: {detail}")
        ok &= bool(passed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
