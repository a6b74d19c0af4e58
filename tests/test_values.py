"""Every value class of the package rejects assignment, the record classes
compare by type and fields, and the source keeps the rules of ``_values``."""

import ast
import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supercircle
from supercircle import (
    DecompositionReport,
    ExpansionResult,
    ExtendedScalar,
    FactorizationTriple,
    GaussianRational,
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
from supercircle._values import Frozen, Record
from supercircle.cli import RunConfig
from supercircle.harmonic import ODD_COORDS


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
        RunConfig: RunConfig(),
    }


INSTANCES = _instances()
RECORDS = [GL11Point, FactorizationTriple, Representation, Section,
           SuperMatrix]


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


@st.composite
def _section_terms(draw):
    """A group and distinct (weight, mask) keys with valid coefficients, a
    zero among them in most draws."""
    group = draw(st.sampled_from(["s11", "su11"]))
    keys = st.tuples(st.integers(-40, 40),
                     st.integers(0, (1 << len(ODD_COORDS[group])) - 1))
    coefficients = st.one_of(
        st.just(GaussianRational(0)), st.just(sqrt_neg_im(3)),
        st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2)))
    return group, draw(st.lists(st.tuples(keys, coefficients), max_size=8,
                                unique_by=lambda item: item[0]))


@settings(max_examples=100, deadline=None)
@given(_section_terms())
def test_section_builder_agrees_with_the_constructor(drawn):
    group, terms = drawn
    built = Section._of(group, dict(terms))
    assert type(built) is Section
    assert built == Section(group, terms)
    assert not any(c.is_zero() for c in built.terms.values())


def test_record_repr_lists_fields_in_slot_order():
    p = INSTANCES[GL11Point]
    assert repr(p) == "GL11Point(%r, %r, %r, %r)" % (p.a, p.beta, p.gamma, p.d)


# --- the rules of _values, checked over the source ---------------------------

SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(supercircle.__file__).parent.glob("*.py"))}
# the private builders, the only code that may call object.__new__
BUILDERS = {"linalg.Matrix._of", "grassmann.GrassmannElement._of",
            "grassmann.GeneratorSet.with_star_images", "scalars._gr",
            "scalars._ext", "supermatrix.SuperMatrix._of",
            "harmonic.Section._of", "liealg.Representation._of"}


def _is_object_new(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "object")


def _object_new_calls(module: str, tree: ast.Module) -> list:
    """The qualified name of the function around each call of object.__new__,
    made directly or through a module-level alias such as ``_new``."""
    aliases = {target.id for node in tree.body if isinstance(node, ast.Assign)
               and _is_object_new(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Call) and (
                    _is_object_new(child.func) or (
                        isinstance(child.func, ast.Name)
                        and child.func.id in aliases)):
                calls.append(".".join([module] + scope))
            visit(child, inner)

    visit(tree, [])
    return calls


def test_slotted_classes_derive_from_frozen():
    slotted = [(module, node.name) for module, tree in SOURCES.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and any(isinstance(stmt, ast.Assign)
                       and any(getattr(t, "id", None) == "__slots__"
                               for t in stmt.targets) for stmt in node.body)]
    assert ("scalars", "GaussianRational") in slotted
    loose = [
        "%s.%s" % (module, name) for module, name in slotted
        if not issubclass(getattr(importlib.import_module(
            "supercircle." + module), name), Frozen)]
    assert loose == ["scalars.GaussianRational"]


def test_only_the_private_builders_call_object_new():
    calls = [call for module, tree in SOURCES.items()
             for call in _object_new_calls(module, tree)]
    assert "linalg.Matrix._of" in calls  # the search finds a direct call
    assert "scalars._gr" in calls  # and one through an alias
    assert set(calls) <= BUILDERS, sorted(set(calls) - BUILDERS)
