"""
Sums and scalar multiples of module columns (dicts from index to LaurentPoly),
the serialized form of one coefficient, the index of each vertex word of an
engine table, and the reference symmetrization of a mu table keyed by vertex
pairs, for the tests.
"""


def add(*cols):
    """The sum of columns, zero coefficients dropped."""
    out = {}
    for col in cols:
        for k, c in col.items():
            out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


def scale(col, p):
    return {k: c * p for k, c in col.items()}


def to_pairs(p):
    """The [exponent, coefficient] pairs of a LaurentPoly, ascending exponent."""
    return [[e, c] for e, c in sorted(p.items())]


def vertex_index(table):
    """A dict from each vertex word of a ModuleTable to its index."""
    return {wd: k for k, wd in enumerate(table.words)}


def symmetrize_then_filter(mu, tau, reduced):
    """
    The weights as they were built before the one-pass table: the whole
    symmetrized mu table (a dict of pairs (y, z) to mu(y, z), in either
    order), then its zeros dropped, then, if reduced, the entries (v, w)
    with tau(v) contained in tau(w).
    """
    out = {}
    for (y, z), m in mu.items():
        out[(y, z)] = out.get((y, z), 0) + m
        out[(z, y)] = out.get((z, y), 0) + m
    out = {k: c for k, c in out.items() if c}
    if reduced:
        out = {(v, w): c for (v, w), c in out.items() if not tau[v] <= tau[w]}
    return out
