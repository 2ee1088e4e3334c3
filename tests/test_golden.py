"""
SHA-256 digests of the canonical-basis engine's output, recorded before the
Kazhdan-Lusztig tables were moved onto the Gelfand engine: the KL export
and the canonical-basis/mu tables of both Gelfand models must not change.
The n=8 combinatorial bidirected pairs were recorded from the length-gap-2
pair scan, before candidates were generated as conjugates.  The n=5 report
of every verify suite was recorded before the relation and character checks
moved onto one sparse generator action.  The n=7 canonical-basis/mu tables
were recorded before the recursion moved onto the integer coefficient store.
The n=8 graph exports of both variants (which carry the restricted-tableau
shapes) and the p_rbs, p_cbs and psi images of I_9 ("insert 9") were recorded
before the Beissinger maps moved onto the list-level Schensted kernels.
The n=7 tables files ("tables 7 M bytes", "tables 7 N bytes": the exact
bytes that `gwg graph build --n 7 --tables` writes for row and col) were
recorded before tables_json streamed its text column by column.  The n=7
reports of the gelfand and wgraph verify suites ("verify gelfand 7", "verify
wgraph 7") were recorded before the suites fetched each model, certificate
and reduced graph once.  The n=6 KL export ("kl 6") was recorded before the
bar operator moved onto LaurentPoly columns and the packed layout onto the
column store alone.  The column stores ("store 8 M", "store 8 N", "store
regular 6": the little-endian bytes of `ColumnStore.keys`, `coefs` and
`ends`, then `term_reads` and the mu table's items in `mu_entries()` order)
were recorded before the step kernel moved onto move tables and the column
self-check onto one pass; they pin the stored term order as well as the
terms.  The canonical bases of both models at n=6 ("basis 6 M", "basis 6 N":
each column's vertex words with their coefficient pairs, then the mu entries
by word) were recorded before the element types were removed and
canonical_basis returned ModuleElements.
"""

import hashlib
import io
import json

import pytest

from gelfand_wgraphs import hecke
from gelfand_wgraphs.beissinger import p_cbs, p_rbs, psi
from gelfand_wgraphs.cli import main
from gelfand_wgraphs.gelfand import Model, canonical_basis, tables_json
from gelfand_wgraphs.perm import enumerate_involutions
from gelfand_wgraphs.wgraph import build_gamma, combinatorial_bidirected_pairs, export


GOLDEN = {
    "kl 5": "a64bc44a976c4c464e5611f0156af4c05c4bfac36cee3bea66c916ab1deb1121",
    "kl 6": "610d9e33fcc3d06f28be8ca862d84985a24d2d892a923c0c8402900b6570a176",
    "tables 6 M": "f9f84802efa52fa68896097425c7aa897056052a9f8525de4ae8e2dd56ca91ab",
    "tables 6 N": "7766870318750b215f12f7c04a6fa894c06d0dcde034ca51022dd7489a921bd3",
    "tables 7 M": "82dc6d967ac11395cd75677c38f7130a2f04e99b70d3192aa23a3eda46014327",
    "tables 7 N": "44557ff91e897dbce1f3ef323525931d9d6e431a632767f60a87ba0535eef07b",
    "tables 7 M bytes": "761c7c3886d3c63707fac70e6b2f34df451417fbdb74a9ef52ad3d1a351fae31",
    "tables 7 N bytes": "8aed3ff500c7950355e7453369ebadbd96e1d0495bfab7fbd9048a2370859e0a",
    "pairs 8 row": "8ad0a21ee1b6a2b69abbaa0452cd0966a4e726fcd88d6ee8bbe86b7befe6f843",
    "pairs 8 col": "6ae8e88b7fd78c75c8d886c9bcfa28b7bf23078a4e0cbae16fedda5a01254987",
    "verify all 5": "ba842baf3616f8775f51c7ffd6684273d79d42894928a7b2d6622f0042384ad8",
    "verify gelfand 7": "15900ab02644a9f951f126ee3b4e918b7d59009eed01c873cd052bffb4559402",
    "verify wgraph 7": "70a5bdb5785690d10ac2b383f5a99782c0749d2f7b8da1eb9879270fdacbee9e",
    "graph 8 row": "537cda8f294df5080d38a9d106adf5248e2a70805275866338dbc8d4b1cbcc8c",
    "graph 8 col": "83e6f4f4a4da83884c47ec29936ed2f703ccac6bb011f0044dcb881ae27b4f9a",
    "insert 9": "22227f259749b024cf716266e7b2ca4866870cc6bd379d1ae0f653f1e8707534",
}


@pytest.mark.parametrize("what", GOLDEN)
def test_engine_output_digest(what, capsys, tmp_path):
    kind, n, *variant = what.split()
    if kind == "kl":
        assert main(["kl", "--n", n]) == 0
        text = capsys.readouterr().out
    elif kind == "verify":  # "verify <suite> <n>"
        suite, n = n, variant[0]
        assert main(["verify", "--suite", suite, "--n", n]) == 0
        text = capsys.readouterr().out
    elif kind == "pairs":
        text = json.dumps(combinatorial_bidirected_pairs(int(n), variant[0]))
    elif kind == "graph":
        text = export(build_gamma(int(n), variant[0]), "json")
    elif kind == "insert":
        text = json.dumps([[[list(r) for r in p_rbs(y).rows], [list(r) for r in p_cbs(y).rows],
                            list(psi(y).word)] for y in enumerate_involutions(int(n))])
    elif variant[1:] == ["bytes"]:  # "tables <n> <M|N> bytes": the file gwg writes
        path = tmp_path / "tables.json"
        argv = ["graph", "build", "--n", n, "--variant", "row" if variant[0] == "M" else "col",
                "--out", str(tmp_path / "graph.json"), "--tables", str(path)]
        assert main(argv) == 0
        text = path.read_bytes().decode()
    else:  # the streamed text, parsed and dumped with sorted keys as recorded
        fh = io.StringIO()
        tables_json(int(n), variant[0], fh)
        text = json.dumps(json.loads(fh.getvalue()), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[what]


STORES = {
    "store 8 M": "b4fcf721148cf2e6d0c7448393d757f0521e37a1dad52b63e6505f1a31acd5cf",
    "store 8 N": "aa40b3133c9bbb92377c8509863d270bdecdd5614693dbeeda4652507dbd2fa7",
    "store regular 6": "223c0dcf45f87883f1ecc8169a3df7eefecf9cf273a253cdda6252c78ee092af",
}


@pytest.mark.parametrize("what", STORES)
def test_column_store_digest(what):
    _, n, *variant = what.split()
    if n == "regular":
        table = hecke._regular(int(variant[0]))
    else:
        table = Model(int(n), "asc" if variant[0] == "M" else "des")
    store = table.column_store()
    h = hashlib.sha256()
    for a in (store.keys, store.coefs, store.ends):
        h.update(a.tobytes())
    h.update(repr((table.term_reads, list(table.mu_entries().items()))).encode())
    assert h.hexdigest() == STORES[what]


BASES = {
    "basis 6 M": "a7c361e74a88ee17d9a1e11748285fec3c8caf5b09dcf3df185be15729cc2779",
    "basis 6 N": "77f02a0cbe3b2e2fd9095800ddd4619f8d5f298c76a5b8a2034a910b370e42ca",
}


@pytest.mark.parametrize("what", BASES)
def test_canonical_basis_digest(what):
    _, n, variant = what.split()
    cols, mu = canonical_basis(int(n), variant)
    doc = (
        sorted((z.word, sorted((y.word, c.to_pairs()) for y, c in col.items()))
               for z, col in cols.items()),
        sorted((y.word, z.word, m) for (y, z), m in mu.entries.items()),
    )
    assert hashlib.sha256(repr(doc).encode()).hexdigest() == BASES[what]
