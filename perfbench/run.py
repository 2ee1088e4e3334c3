#!/usr/bin/env python3
"""
The repository benchmark: times the W-graph pipeline end to end, and layer by
layer in a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src in
fresh child interpreters and never from the benchmark's own process.  Each
workload is a closed loop with one client: the next operation starts when
the previous one has ended.  What each workload is for, and which layer it
stresses or bypasses, is in WORKLOADS below and in README.md.

Every end-to-end time is in seconds at a fixed reference speed of the
machine, measured by speed.py on the one CPU the run is pinned to.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones.  A fuller
record of every run, with its context, goes to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORK = OUT / "work"

RUN_LIMIT_S = 170      # every run must end within 180 s
SETUP_PROBES = 15      # fresh interpreters timed per run for setup_s
INSERT_COUNT = 2000    # involutions generated per insert run
VARIANTS = ("row", "col")


@dataclass
class Op:
    """One operation, run in its own interpreter so no lru_cache survives it."""

    key: str
    argv: list            # gwg arguments, or None for a library-level call
    variant: str = ""
    api: str = ""         # verify_axioms / character / canonical at n=7
    suite: str = ""
    files: dict = None    # build outputs: 'json' / 'dot' / 'tables' -> path


def _workloads():
    """
    classify9  `gwg graph classify --n 9` for each variant.  The headline
               computation; the combinatorial pair scan (wgraph) does most of
               the work, the canonical-basis engine (gelfand + laurent) the
               rest.  Where a faster pair scan shows.
    build9     `gwg graph build --n 9` with --out, --dot and --tables for each
               variant.  The engine and serialization do the work and the pair
               scan never runs: where a compact column store shows in wall
               time and peak RSS, and where a pair-scan change must not.
    verify     the verification side at small n: five `gwg verify` suites and,
               per graph at n=7, verify_axioms, the character identity over
               all conjugacy classes and canonical_basis(check_bar=True).
               hecke.h_bar / kl_table, dense character matrices and the bar
               checks do the work; the n=9 engine is bypassed.  (kl at n=6 is
               left out: it alone takes about 45 s.)
    insert     thousands of seeded random involutions of size 20..80 through
               the insertion bijections, their inverses, psi, the two partner
               maps and dual_equiv, in one process.  The only workload where
               tableau / beissinger / perm do most of the work, and the only
               one with enough operations for tail latency.
    """
    build = []
    for v in VARIANTS:
        files = {k: str(WORK / f"build9-{v}{suffix}") for k, suffix in (
            ("json", ".json"), ("dot", ".dot"), ("tables", "-tables.json"))}
        build.append(Op(f"build.{v}", ["graph", "build", "--n", "9", "--variant", v, "--force",
                                       "--out", files["json"], "--dot", files["dot"],
                                       "--tables", files["tables"]], variant=v, files=files))
    verify = [Op(f"verify.{s}", ["verify", "--suite", s, "--n", str(n)], suite=s)
              for s, n in (("kl", 5), ("gelfand", 7), ("wgraph", 7),
                           ("partners", 8), ("insertion", 8))]
    for name in ("axioms", "character", "canonical"):
        for v in VARIANTS:
            variant = v if name != "canonical" else {"row": "M", "col": "N"}[v]
            verify.append(Op(f"{name}.{v}", None, variant=variant, api=name))
    return {
        "classify9": [Op(f"classify.{v}", ["graph", "classify", "--n", "9", "--variant", v,
                                           "--force"], variant=v) for v in VARIANTS],
        "build9": build,
        "verify": verify,
        "insert": None,
    }


WORKLOADS = _workloads()


# -- child processes ------------------------------------------------------------


class Runner:
    """
    Starts children one at a time and reaps each, within the run's limit.
    Every time it returns is in seconds at the reference speed (speed.py);
    `scales` keeps the factor each one was multiplied by.
    """

    def __init__(self, speed: Speedometer):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.speed = speed
        self.scales = []
        self.timed_out = False
        self.children = 0

    def scaled(self, t0: float, seconds: float) -> float:
        """A time measured from t0 (perf_counter), at the reference speed."""
        scale = self.speed.scale(t0, t0 + seconds)
        self.scales.append(scale)
        return seconds * scale

    def run(self, cmd):
        """(exit code, reference seconds, peak RSS in MB, stdout) of one child."""
        self.children += 1
        out_path = WORK / "stdout.txt"
        with open(out_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.1), proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be
                # the maximum over every child reaped so far
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        if rc < 0:
            self.timed_out = True
        return (rc, self.scaled(t0, seconds), usage.ru_maxrss / 1024,
                out_path.read_text(errors="replace"))

    def child(self, spec):
        return self.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)])


def _read_result(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def run_op(runner: Runner, op: Op, traced: bool):
    """Run one operation and check its output: (seconds, rss_mb, error, trace)."""
    result_path = WORK / "result.json"
    result_path.unlink(missing_ok=True)
    files = op.files or {}
    for f in files.values():
        Path(f).unlink(missing_ok=True)
    if op.argv is None:
        rc, sec, rss, stdout = runner.child({"mode": "api", "name": op.api, "n": 7,
                                             "variant": op.variant, "result": str(result_path),
                                             "trace": int(traced)})
    elif traced:
        rc, sec, rss, stdout = runner.child({"mode": "cli", "argv": op.argv,
                                             "result": str(result_path)})
    else:
        rc, sec, rss, stdout = runner.run([sys.executable, "-m", "gelfand_wgraphs.cli", *op.argv])
    result = _read_result(result_path) if (traced or op.argv is None) else {}
    trace = result.get("trace")

    if op.argv is None:
        error = result.get("error", f"no result (exit code {rc})")
    elif op.suite:
        error = checks.check_verify(rc, stdout, op.suite)
    elif files:
        error = checks.check_build(rc, files, op.variant)
        for f in files.values():
            Path(f).unlink(missing_ok=True)
    else:
        error = checks.check_classify(rc, stdout)
        if not error and traced:
            error = checks.check_classify_counters((trace or {}).get("counters", {}), op.variant)
    if traced and trace is None and not error:
        error = "traced run wrote no trace"
    return sec, rss, error, trace


# -- statistics -------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def spread(values) -> float:
    """Inter-quartile range over the median, as the steadiness check takes it."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.errors = []

    def add(self, error: str):
        self.attempted += 1
        if error:
            self.errors.append(error)


def measure_setup(runner: Runner, workload: str, seed: int):
    spec = {"mode": "setup", "workload": workload, "seed": seed, "count": INSERT_COUNT}
    times = []
    for _ in range(SETUP_PROBES):
        rc, sec, _, _ = runner.child(spec)
        if rc != 0:
            raise RuntimeError(f"set-up interpreter exited with code {rc}; see {WORK / 'stderr.txt'}")
        times.append(sec)
    return times


def measure_ops(runner: Runner, ops, seconds: float, tally: Tally):
    """
    Round-robin over the operations, at least one full pass, then on while the
    next operation's last latency still fits in the run length.
    """
    lat = {op.key: [] for op in ops}
    last = {}
    rss = []
    start = time.perf_counter()
    k = 0
    while not runner.timed_out:
        op = ops[k % len(ops)]
        if k >= len(ops) and time.perf_counter() - start + last[op.key] > seconds:
            break
        t0 = time.perf_counter()
        sec, mb, error, _ = run_op(runner, op, traced=False)
        last[op.key] = time.perf_counter() - t0
        tally.add(error)
        if not error:
            lat[op.key].append(sec)
            rss.append(mb)
        k += 1
    return lat, rss


def run_insert(runner: Runner, seed: int, seconds: float, traced: bool, tally: Tally):
    path = WORK / "result.json"
    path.unlink(missing_ok=True)
    rc, _, mb, _ = runner.child({"mode": "insert", "seed": seed, "count": INSERT_COUNT,
                                 "seconds": seconds, "result": str(path), "trace": int(traced)})
    res = _read_result(path)
    if rc != 0 or "attempted" not in res:
        tally.add(f"insert child exited with code {rc}")
        return [], mb, None
    tally.attempted += res["attempted"]
    tally.errors.extend(res["errors"])
    lat = [runner.scaled(t0, sec) for t0, sec in zip(res["starts"], res["latencies"])]
    return lat, mb, res.get("trace")


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float, tally: Tally, record):
    setup = measure_setup(runner, workload, seed)
    if workload == "insert":
        lat, peak, _ = run_insert(runner, seed, seconds, False, tally)
        n = len(lat)
        wall = statistics.fmean(lat) * INSERT_COUNT if lat else 0.0
        ops_per_s = n / sum(lat) if lat else 0.0
        p50 = statistics.median(lat) if lat else 0.0
        p99 = quantile(lat, 0.99) if lat else 0.0
        record["op_seconds"] = {"insert": lat}
        record["latency_rule"] = "percentiles of all operation latencies"
    else:
        by_op, rss = measure_ops(runner, WORKLOADS[workload], seconds, tally)
        # A run holds 2 to 60 latencies of different commands, and how many of
        # each depends on where the run length cuts the round-robin, so
        # pooled percentiles would shift with the mix (and a p99 would just
        # be the slowest sample).  Use one median per operation instead.
        medians = [statistics.median(v) for v in by_op.values() if v]
        n = sum(len(v) for v in by_op.values())
        # every operation once, less the interpreter start and package
        # import that each fresh interpreter pays and setup_s measures
        wall = sum(medians) - len(medians) * statistics.median(setup)
        ops_per_s = len(medians) / wall if wall else 0.0
        p50 = statistics.median(medians) if medians else 0.0
        p99 = max(medians, default=0.0)
        peak = max(rss, default=0.0)
        record["op_seconds"] = by_op
        record["latency_rule"] = ("median and maximum over operations of each one's median"
                                  " latency (too few samples for percentiles)")
    record["setup_seconds"] = setup
    record["latency_samples"] = n
    record["speed_scale"] = {"median": statistics.median(runner.scales),
                             "min": min(runner.scales), "max": max(runner.scales)}
    record["within_run_spread"] = {"setup_s": spread(setup),
                                   **{k: spread(v) for k, v in record["op_seconds"].items()}}
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (peak, "MB"),
        "pass_ratio": (1 - len(tally.errors) / max(tally.attempted, 1), "ratio"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_us": (p50 * 1e6, "us"),
        "op_p99_us": (p99 * 1e6, "us"),
    }


# -- traced run -------------------------------------------------------------------


def traced(runner: Runner, workload: str, seed: int, tally: Tally, record):
    """One untraced pass, then one traced pass; per-layer metrics from the latter."""
    traces = []
    if workload == "insert":
        plain, _, _ = run_insert(runner, seed, 0, False, tally)
        traced_lat, _, tr = run_insert(runner, seed, 0, True, tally)
        plain_wall, traced_wall = sum(plain), sum(traced_lat)
        traces.append(tr or {})
    else:
        ops = WORKLOADS[workload]
        plain_wall = traced_wall = 0.0
        for op in ops:
            sec, _, error, _ = run_op(runner, op, traced=False)
            tally.add(error)
            plain_wall += sec
        for op in ops:
            sec, _, error, tr = run_op(runner, op, traced=True)
            tally.add(error)
            # the post-operation counting is not overhead of the spans
            traced_wall += sec - (tr or {}).get("finalize_s", 0.0) * runner.scales[-1]
            traces.append(tr or {})
    metrics = layer_metrics(traces)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    record["untraced_pass_s"], record["traced_pass_s"] = plain_wall, traced_wall
    record["missing_spans"] = sorted({m for t in traces for m in t.get("missing", [])})
    record["spans_file"] = str(_write_spans(workload, seed, traces).relative_to(ROOT))
    return metrics


def _write_spans(workload, seed, traces) -> Path:
    path = OUT / f"{workload}-seed{seed}-spans.jsonl"
    with open(path, "w") as fh:
        for child, tr in enumerate(traces):
            for idx, (name, variant, op, start, dur, parent) in enumerate(tr.get("spans", [])):
                fh.write(json.dumps({"child": child, "op": op, "id": idx, "parent": parent,
                                     "name": name, "variant": variant,
                                     "start": start, "seconds": dur}) + "\n")
    return path


# per-variant metric -> (source, unit); a source is a span name (seconds
# summed over outermost calls) or a counter name
PER_VARIANT = [
    ("wgraph.comb_pairs_s", "span:wgraph.comb_pairs", "s"),
    ("wgraph.gap2_pairs", "count:wgraph.gap2_pairs", "count.computed"),
    ("wgraph.bidirected_pairs", "count:wgraph.bidirected_pairs", "count"),
    ("wgraph.comb_hit_ratio", "ratio:wgraph.bidirected_pairs/wgraph.gap2_pairs", "ratio"),
    ("gelfand.model_s", "span:gelfand.model", "s"),
    ("gelfand.columns_s", "span:gelfand.columns", "s"),
    ("gelfand.columns_rss_mb", "count:gelfand.columns_rss_mb", "MB"),
    ("gelfand.vertices", "count:gelfand.vertices", "count"),
    ("gelfand.column_terms", "count:gelfand.column_terms", "count"),
    ("gelfand.mu_entries", "count:gelfand.mu_entries", "count"),
    ("gelfand.max_neg_degree", "count:gelfand.max_neg_degree", "count"),
    ("laurent.monomials", "count:laurent.monomials", "count"),
    ("laurent.bytes_per_term", "ratio:laurent.store_bytes/gelfand.column_terms", "B.computed"),
    ("wgraph.build_gamma_s", "span:wgraph.build_gamma", "s"),
    ("beissinger.shapes_s", "span:gelfand.lambda_shape", "s"),
    ("wgraph.molecules_s", "span:wgraph.molecules", "s"),
    ("wgraph.cells_s", "span:wgraph.cells", "s"),
    ("wgraph.edges", "count:wgraph.edges", "count"),
    ("wgraph.fibers", "count:wgraph.fibers", "count"),
    ("wgraph.export_s", "span:wgraph.export", "s"),
    ("wgraph.export_bytes", "count:wgraph.export_bytes", "B"),
    ("gelfand.tables_json_s", "span:gelfand.tables_json", "s"),
]
# variant-free metrics, same sources; "median:" sources are per-call medians
PLAIN = [
    ("cli.main_s", "span:cli.main", "s"),
    ("hecke.kl_table_s", "span:hecke.kl_table", "s"),
    ("hecke.h_bar_s", "span:hecke.h_bar", "s"),
    ("hecke.h_bar_calls", "calls:hecke.h_bar", "count"),
    ("hecke.kl_cells_s", "span:hecke.kl_cells", "s"),
    ("hecke.kl_terms", "count:hecke.kl_terms", "count"),
    ("wgraph.axioms_s", "span:wgraph.axioms", "s"),
    ("wgraph.character_s", "span:wgraph.character", "s"),
    ("gelfand.bar_check_s", "span:gelfand.bar_check", "s"),
    ("gelfand.module_ops_s", "span:gelfand.module_ops", "s"),
    *[(f"suites.{s}_s", f"span:suites.{s}", "s")
      for s in ("kl", "gelfand", "wgraph", "partners", "insertion")],
    ("suites.checks", "count:suites.checks", "count"),
    ("suites.failed_checks", "count:suites.failed_checks", "count"),
    *[(f"beissinger.{f}_us", f"median:beissinger.{f}", "us")
      for f in ("p_rbs", "p_cbs", "p_rbs_inverse", "p_cbs_inverse", "psi")],
    ("beissinger.partner_us", "median:beissinger.simrbs_partner+beissinger.simcbs_partner", "us"),
    ("tableau.dual_equiv_us", "median:tableau.dual_equiv", "us"),
    ("perm.enumerate_s", "span:perm.enumerate_involutions", "s"),
    ("perm.involutions", "count:perm.involutions", "count"),
    ("trace.missing_spans", "missing", "count"),
]
MODULE_OPS = {"gelfand.h_action", "gelfand.bar_module"}


def layer_metrics(traces):
    """Fold the spans and counters of every traced child into per-layer metrics."""
    secs = defaultdict(float)      # (span, variant) -> seconds; variant None = all
    calls = defaultdict(int)
    durations = defaultdict(list)
    counters = defaultdict(int)
    missing = set()
    for tr in traces:
        spans = tr.get("spans", [])
        missing.update(tr.get("missing", []))
        for key, value in tr.get("counters", {}).items():
            if key.startswith("gelfand.max_neg_degree"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
        for name, variant, _, _, dur, parent in spans:
            above = set()
            while parent >= 0:
                above.add(spans[parent][0])
                parent = spans[parent][5]
            calls[name] += 1
            durations[name].append(dur)
            derived = []
            if name not in above:
                derived.append(name)
            if name == "gelfand.bar_col" and "gelfand.columns" in above:
                derived.append("gelfand.bar_check")
            if name in MODULE_OPS and not above & MODULE_OPS:
                derived.append("gelfand.module_ops")
            for d in derived:
                secs[(d, variant)] += dur
                secs[(d, None)] += dur if variant is not None else 0.0

    def value(source, variant):
        kind, _, what = source.partition(":")
        sfx = f".{variant}" if variant else ""
        if kind == "span":
            return secs[(what, variant)]
        if kind == "count":
            return counters.get(what + sfx, 0)
        if kind == "ratio":
            num, den = what.split("/")
            d = counters.get(den + sfx, 0)
            return counters.get(num + sfx, 0) / d if d else 0.0
        if kind == "calls":
            return calls[what]
        if kind == "median":
            pooled = [x for part in what.split("+") for x in durations[part]]
            return statistics.median(pooled) * 1e6 if pooled else 0.0
        if kind == "missing":
            return len(missing)
        raise ValueError(source)

    out = {}
    for v in VARIANTS:
        for name, source, unit in PER_VARIANT:
            out[f"{name}.{v}"] = (value(source, v), unit)
    for name, source, unit in PLAIN:
        out[name] = (value(source, None), unit)
    return out


# -- the run ----------------------------------------------------------------------


def context(args) -> dict:
    steady = {}
    path = HERE / "steadiness.json"
    if path.is_file():
        steady = json.loads(path.read_text()).get("workloads", {}).get(args.workload, {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "pinned_to_cpu": min(os.sched_getaffinity(0)),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # spread across runs (IQR / median over ten seeds) recorded by steady.py
        "observed_run_to_run_spread": steady,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gelfand_wgraphs" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    # one CPU for this process and every child it starts, the speed sampler
    # included: the machine's speed varies per CPU, so the sampler must time
    # the CPU the operations run on (speed.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    speed = Speedometer(WORK / "speed.txt")
    try:
        runner = Runner(speed)
        tally = Tally()
        record = {"context": context(args)}
        if args.trace:
            metrics = traced(runner, args.workload, args.seed, tally, record)
        else:
            metrics = end_to_end(runner, args.workload, args.seed, args.seconds, tally, record)
    finally:
        speed.close()
    if runner.timed_out:
        tally.add(f"run stopped at the {RUN_LIMIT_S} s limit")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["attempted"], record["failed"] = tally.attempted, len(tally.errors)
    record["errors"] = tally.errors[:20]
    record["children_started"] = runner.children
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    for k, (v, u) in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {u}")
    print(f"{args.workload} fail_ratio = {len(tally.errors)}/{tally.attempted}"
          f" (latency samples: {record.get('latency_samples', 'n/a')};"
          f" op_p50_us / op_p99_us: {record.get('latency_rule', 'n/a')})")
    for e in tally.errors[:5]:
        print(f"{args.workload} FAILED: {e}")
    for m in record.get("missing_spans", []):
        print(f"{args.workload} span missing: {m}", file=sys.stderr)
    print(f"{args.workload} record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not tally.errors and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": len(tally.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
