"""Sums and scalar multiples of module columns (dicts from index to LaurentPoly), for the tests."""


def add(*cols):
    """The sum of columns, zero coefficients dropped."""
    out = {}
    for col in cols:
        for k, c in col.items():
            out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


def scale(col, p):
    return {k: c * p for k, c in col.items()}
