"""Every value class of the package rejects assignment, and the record
classes compare by type and fields."""

import pytest

from supercircle import (
    DecompositionReport,
    ExpansionResult,
    ExtendedScalar,
    FactorizationTriple,
    GeneratorSet,
    GL11Point,
    GrassmannElement,
    LieSuperAlgebra,
    Matrix,
    Representation,
    Section,
    SuperMatrix,
    builtin_algebra,
    decompose_s11,
    expand,
    factorize,
    make_V_m,
    sqrt_neg_im,
    su11_chart_ring,
)
from supercircle._values import Record


def _instances():
    point = su11_chart_ring("su11")[1][0]
    section = Section("su11", {(1, 0): 1, (0, 0b11): 2})
    return {
        GeneratorSet: GeneratorSet(["x"]),
        GrassmannElement: GeneratorSet(["x"]).odd_gen("x"),
        Section: section,
        ExpansionResult: expand(section),
        LieSuperAlgebra: builtin_algebra("s11"),
        Representation: make_V_m(1),
        Matrix: Matrix.identity(2),
        DecompositionReport: decompose_s11(make_V_m(1)),
        ExtendedScalar: sqrt_neg_im(3),
        GL11Point: point,
        FactorizationTriple: factorize(point, "su11"),
        SuperMatrix: point.matrix(),
    }


INSTANCES = _instances()
RECORDS = [GL11Point, FactorizationTriple, Representation, Section]


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda c: c.__name__)
def test_value_classes_reject_assignment(cls):
    x = INSTANCES[cls]
    assert type(x) is cls
    for name in (cls.__slots__[0], "other"):
        with pytest.raises(AttributeError, match="^%s is immutable$" % cls.__name__):
            setattr(x, name, None)
    assert isinstance(x, Record) == (cls in RECORDS)
    if cls in RECORDS:
        assert x == INSTANCES[cls]
        for other in (object(), 1, "x", INSTANCES[Matrix]):
            assert (x == other) is False and (x != other) is True
        with pytest.raises(TypeError):
            hash(x)


def test_record_repr_lists_fields_in_slot_order():
    p = INSTANCES[GL11Point]
    assert repr(p) == "GL11Point(%r, %r, %r, %r)" % (p.a, p.beta, p.gamma, p.d)
