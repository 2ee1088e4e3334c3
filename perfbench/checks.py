"""
Output checks, one function per kind of operation.  Each returns an empty
string when the output is right and a one-line reason when it is not, so a
wrong answer is counted as a failed operation rather than timed as a success.
The expected values live in expected.json, recorded at the commit that added
the benchmark.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path


@functools.cache
def expected() -> dict:
    return json.loads(Path(__file__).with_name("expected.json").read_text())


def check_classify(rc: int, stdout: str) -> str:
    if rc != 0:
        return f"exit code {rc}"
    want = expected()["classify9"]["lines"]
    got = stdout.splitlines()
    if got != want:
        return f"classify printed {got!r}, expected {want!r}"
    return ""


def check_classify_counters(counters: dict, variant: str) -> str:
    """|V| and the fibre count, seen from inside a traced classify."""
    want = expected()["classify9"]
    for key, value in (("wgraph.vertices", want["vertices"]), ("wgraph.fibers", want["fibers"])):
        got = counters.get(f"{key}.{variant}")
        if got != value:
            return f"{key}.{variant} = {got}, expected {value}"
    return ""


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_build(rc: int, files: dict, variant: str) -> str:
    """files maps 'json' / 'dot' / 'tables' to the paths the command wrote."""
    if rc != 0:
        return f"exit code {rc}"
    want = expected()["build9"][variant]
    for kind, path in files.items():
        if not Path(path).is_file():
            return f"{kind} output {path} missing"
        got = sha256_file(path)
        if got != want[kind]:
            return f"{kind} output sha256 {got[:12]}.. differs from the recorded {want[kind][:12]}.."
    return ""


def check_verify(rc: int, stdout: str, suite: str) -> str:
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    want = expected()["verify"]["checks"][suite]
    if report.get("passed") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
        return f"suite {suite} did not pass: {failed[:3]}"
    if len(report.get("checks", [])) != want:
        return f"suite {suite} ran {len(report.get('checks', []))} checks, expected {want}"
    return ""


def check_insert(B, y, i, out) -> str:
    """
    out holds what one insert operation computed for the involution y and
    window i; B is the beissinger module to check it with.
    """
    if out["rbs_back"] != y or out["cbs_back"] != y:
        return f"inverse round trip fails for {y.word}"
    if len(out["psi"].fixed_points()) != len(y.fixed_points()):
        return f"psi changes the number of fixed points of {y.word}"
    r, c = out["rbs_partner"], out["cbs_partner"]
    if B.p_rbs(r) != out["d_rbs"]:
        return f"row partner of {y.word} at i={i} is not D_i of its tableau"
    if B.p_cbs(c) != out["d_cbs"]:
        return f"column partner of {y.word} at i={i} is not D_i of its tableau"
    if B.simrbs_partner(r, i) != y or B.simcbs_partner(c, i) != y:
        return f"partner map at i={i} is not an involution on {y.word}"
    return ""
