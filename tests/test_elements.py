"""
The two sparse element types, ModuleElement over a Gelfand model and
HeckeElement over the regular representation: their reprs and equality,
pinned as literal text.
"""

import pytest

from gelfand_wgraphs.gelfand import ModuleElement, embed
from gelfand_wgraphs.hecke import HeckeElement
from gelfand_wgraphs.laurent import X, X_MINUS_XINV, LaurentPoly
from gelfand_wgraphs.perm import Involution, Permutation


def M(word, mode="asc"):
    return ModuleElement.basis(embed(Involution(Permutation(word)), mode))


def H(word):
    return HeckeElement.basis(tuple(word))


@pytest.mark.parametrize("make,text", [
    pytest.param(lambda: ModuleElement({}), "ModuleElement(0)", id="module-zero"),
    pytest.param(lambda: ModuleElement({}, "M"), "ModuleElement(0)", id="module-zero-M"),
    pytest.param(lambda: HeckeElement(), "HeckeElement(0)", id="hecke-zero"),
    pytest.param(lambda: M([2, 1, 3]), "(1)*M[214365]", id="module-n3-joined-word"),
    pytest.param(
        lambda: M([2, 1, 3]).scale(X) - M([1, 2, 3]).scale(LaurentPoly({-1: 2, 1: -3})),
        "(x)*M[214365] + (3*x - 2*x^-1)*M[456123]", id="module-n3-two-terms"),
    pytest.param(lambda: M([1, 3, 2, 5, 4], "des"), "(1)*N[[6, 3, 2, 5, 4, 1, 8, 7, 10, 9]]",
                 id="module-n5-list"),
    pytest.param(
        lambda: M([1, 2, 3, 4, 5], "des") - M([1, 3, 2, 5, 4], "des").scale(X_MINUS_XINV),
        "(-x + x^-1)*N[[6, 3, 2, 5, 4, 1, 8, 7, 10, 9]] + (1)*N[[10, 9, 8, 7, 6, 5, 4, 3, 2, 1]]",
        id="module-n5-two-terms"),
    pytest.param(lambda: H([2, 1, 3]) - H([1, 2, 3]).scale(X_MINUS_XINV),
                 "(-x + x^-1)*H[1, 2, 3] + (1)*H[2, 1, 3]", id="hecke-two-terms"),
    pytest.param(lambda: H([3, 1, 2]).scale(LaurentPoly({-2: -1})) + H([1, 3, 2]),
                 "(1)*H[1, 3, 2] + (-x^-2)*H[3, 1, 2]", id="hecke-negative"),
    pytest.param(lambda: H([1, 2, 3, 4, 5]), "(1)*H[1, 2, 3, 4, 5]", id="hecke-n5"),
])
def test_element_reprs(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make_a,make_b,equal", [
    pytest.param(lambda: ModuleElement({}, "M"), lambda: ModuleElement({}, "N"), True,
                 id="module-zeros-of-both-variants"),
    pytest.param(lambda: ModuleElement({}), lambda: HeckeElement(), False, id="module-zero-hecke-zero"),
    pytest.param(lambda: HeckeElement(), lambda: ModuleElement({}), False, id="hecke-zero-module-zero"),
    pytest.param(lambda: M([2, 1]), lambda: HeckeElement({(2, 1, 4, 3): 1}), False,
                 id="module-hecke-same-word"),
    pytest.param(lambda: M([2, 1]) - M([2, 1]), lambda: ModuleElement({}), True,
                 id="module-cancelled"),
    pytest.param(lambda: H([2, 1]).scale(X) + H([1, 2]), lambda: H([1, 2]) + H([2, 1]).scale(X),
                 True, id="hecke-order-free"),
    pytest.param(lambda: M([2, 1]), lambda: M([2, 1], "des"), False, id="module-M-vs-N"),
])
def test_element_equality(make_a, make_b, equal):
    a, b = make_a(), make_b()
    assert (a == b) is equal
    assert (a != b) is not equal


def test_elements_of_two_types_do_not_add():
    m, h = M([2, 1]), HeckeElement({(2, 1, 4, 3): 1})
    for a, b in ((m, h), (h, m)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
