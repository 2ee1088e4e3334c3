"""
One fresh interpreter of the benchmark.  run.py starts it with a single JSON
argument naming what to do:

  {"mode": "setup", "workload": w, "seed": s}
      import the package and generate the workload's inputs, then exit; the
      parent times this as the set-up cost.
  {"mode": "cli", "argv": [...], "result": path}
      traced `gwg` command: install the tracer, then run cli.main(argv).
      (Untraced commands run `python -m gelfand_wgraphs.cli` directly.)
  {"mode": "api", "name": ..., "n": n, "variant": v, "result": path, "trace": 0|1}
      one library-level verification call (verify workload).
  {"mode": "insert", "seed": s, "count": k, "seconds": t, "result": path, "trace": 0|1}
      the in-process insertion loop (insert workload).

Results go to the JSON file named by "result"; the exit code is the
operation's own (0 when it succeeded).  The package is found through
PYTHONPATH, which run.py points at the checkout's src/.
"""

from __future__ import annotations

import json
import random
import sys
import time
import types

import checks
import tracer as tracing


def insert_inputs(seed: int, count: int, perm):
    """
    count (involution, window) pairs drawn from the seed.  The sizes run
    through 20..80 in turn, so every seed has the same mix of sizes and the
    seeds differ in the involutions and windows, not in how much work they
    ask for.
    """
    rng = random.Random(seed)
    out = []
    for j in range(count):
        n = 20 + j % 61
        points = list(range(1, n + 1))
        rng.shuffle(points)
        k = rng.randint(0, n // 2)
        pairs = [(points[2 * j], points[2 * j + 1]) for j in range(k)]
        out.append((perm.Involution.from_cycles(n, pairs), rng.randint(2, n - 1)))
    return out


def class_representatives(n: int, perm):
    """One permutation per cycle type of S_n: consecutive cycles by part."""
    def partitions(m, top):
        if m == 0:
            yield ()
            return
        for part in range(min(m, top), 0, -1):
            for rest in partitions(m - part, part):
                yield (part,) + rest

    reps = []
    for shape in partitions(n, n):
        word, start = [], 1
        for part in shape:
            word.extend(range(start + 1, start + part))
            word.append(start)
            start += part
        reps.append(perm.Permutation(word))
    return reps


def run_api(spec, lib) -> str:
    name, n, variant = spec["name"], spec["n"], spec["variant"]
    if name == "axioms":
        rep = lib.wgraph.verify_axioms(lib.wgraph.build_gamma(n, variant))
        return "" if rep.ok else "; ".join(rep.violations)
    if name == "character":
        g = lib.wgraph.build_gamma(n, variant)
        bad = [w.word for w in class_representatives(n, lib.perm)
               if not lib.wgraph.character_check(g, w)]
        return f"character identity fails at {bad[:3]}" if bad else ""
    if name == "canonical":
        cols, mu = lib.gelfand.canonical_basis(n, variant, check_bar=True)
        want = checks.expected()["verify"]["canonical"][variant]
        got = {"basis": len(cols), "mu": len(mu.entries)}
        return "" if got == want else f"canonical basis sizes {got}, expected {want}"
    raise ValueError(f"unknown api operation {name!r}")


def run_insert(spec, lib, tracer):
    B, T = lib.beissinger, lib.tableau
    # checks use the unwrapped functions, so they add no spans
    ref = types.SimpleNamespace(**{f: getattr(B, f) for f in (
        "p_rbs", "p_cbs", "simrbs_partner", "simcbs_partner")})
    inputs = insert_inputs(spec["seed"], spec["count"], lib.perm)
    if tracer:
        tracer.install()
    clock = time.perf_counter
    starts, latencies, errors = [], [], []
    start = clock()
    k = 0
    while k < len(inputs) or clock() - start < spec["seconds"]:
        y, i = inputs[k % len(inputs)]
        if tracer:
            tracer.op = k
        k += 1
        try:
            t0 = clock()
            P, Q = B.p_rbs(y), B.p_cbs(y)
            out = {
                "p_rbs": P, "p_cbs": Q,
                "rbs_back": B.p_rbs_inverse(P), "cbs_back": B.p_cbs_inverse(Q),
                "psi": B.psi(y),
                "rbs_partner": B.simrbs_partner(y, i), "cbs_partner": B.simcbs_partner(y, i),
                "d_rbs": T.dual_equiv(P, i), "d_cbs": T.dual_equiv(Q, i),
            }
            t1 = clock()
            err = checks.check_insert(ref, y, i, out)
        except Exception as exc:  # a crash is one failed operation; keep going
            err = f"{type(exc).__name__}: {exc}"
        if err:
            errors.append(err)
        else:  # only an operation that passed its check is timed
            starts.append(t0)
            latencies.append(t1 - t0)
    return {"attempted": k, "starts": starts, "latencies": latencies, "errors": errors}


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    import gelfand_wgraphs  # noqa: F401  (set-up cost: the whole package)
    from gelfand_wgraphs import cli  # noqa: F401
    lib = types.SimpleNamespace(**{m: sys.modules[f"gelfand_wgraphs.{m}"] for m in (
        "beissinger", "gelfand", "perm", "tableau", "wgraph")})
    if mode == "setup":
        if spec["workload"] == "insert":
            insert_inputs(spec["seed"], spec["count"], lib.perm)
        return 0

    tracer = tracing.Tracer() if mode == "cli" or spec.get("trace") else None
    result, rc = {}, 0
    if mode == "cli":
        tracer.install()
        rc = cli.main(spec["argv"])
        sys.stdout.flush()
    elif mode == "api":
        if tracer:
            tracer.install()
        try:
            result["error"] = run_api(spec, lib)
        except Exception as exc:  # reported to the parent as a failed operation
            result["error"] = f"{type(exc).__name__}: {exc}"
        rc = 1 if result["error"] else 0
    elif mode == "insert":
        result = run_insert(spec, lib, tracer)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if tracer:
        result["trace"] = tracer.dump()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
