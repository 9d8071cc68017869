"""Value semantics of the library's record types.

Value types compare and hash by their fields, never equal an instance of
another type, and print as ``Name(field=value, ...)`` (a BitVector prints
its bits).  They derive from one base, Record, which writes these methods
once; only BitMatrix, whose hash leaves out its derived row count, writes
its own.  Mutable holders compare by identity.
"""

import importlib
import inspect
import pkgutil

import pytest

import wsteenrod
from wsteenrod._record import Record
from wsteenrod.charts import ExtChart
from wsteenrod.classical import ClassicalElement
from wsteenrod.gf2 import BitMatrix, BitVector, Subspace
from wsteenrod.milnor import BiDegree, DualElement, MilnorAlgebra, SteenrodElement
from wsteenrod.modules import (
    AlgebraModule,
    GradedModule,
    QuotientModule,
    TensorModule,
    TrivialModule,
)
from wsteenrod.resolution import FreeModule, ModuleMap, Resolution
from wsteenrod.towers import KwComplex, WbpComplex
from wsteenrod.verify import VerificationReport, VerifyConfig

D = BiDegree(3, 1)

# (make, an instance with one field changed, its repr)
HASHABLE = [
    (
        lambda: Subspace(3, BitMatrix(3, [1, 6]), (0, 1)),
        Subspace(3, BitMatrix(3, [1, 6]), (0, 2)),
        "Subspace(ambient_dim=3, basis=BitMatrix(2x3), pivots=(0, 1))",
    ),
    (
        lambda: DualElement(D, 5),
        DualElement(D, 4),
        "DualElement(degree=BiDegree(stem=3, weight=1), bits=5)",
    ),
    (
        lambda: SteenrodElement(D, 5),
        SteenrodElement(BiDegree(3, 0), 5),
        "SteenrodElement(degree=BiDegree(stem=3, weight=1), bits=5)",
    ),
    (
        lambda: ClassicalElement(3, frozenset({(0, 1)})),
        ClassicalElement(3, frozenset()),
        "ClassicalElement(weight=3, terms=frozenset({(0, 1)}))",
    ),
    (
        lambda: BitVector(3, 5),
        BitVector(4, 5),
        "BitVector(3, 0b101)",
    ),
]

UNHASHABLE = [
    (
        lambda: ExtChart("F2", 4, {(0, 0, 0): 1}),
        ExtChart("F2", 4),
        "ExtChart(module='F2', max_stem=4, classes={(0, 0, 0): 1})",
    ),
]


@pytest.mark.parametrize("make, other, text", HASHABLE)
def test_value_types_compare_and_hash_by_fields(make, other, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2
    assert a != other
    assert repr(a) == text
    fields = inspect.signature(type(a)).parameters
    assert hash(a) == hash(tuple(getattr(a, name) for name in fields))


@pytest.mark.parametrize("make, other, text", UNHASHABLE)
def test_charts_compare_by_fields_and_are_unhashable(make, other, text):
    a, b = make(), make()
    assert a == b
    assert a != other
    assert repr(a) == text
    with pytest.raises(TypeError):
        hash(a)


def test_equal_fields_of_another_type_are_unequal():
    assert SteenrodElement(D, 5) != DualElement(D, 5)
    assert DualElement(D, 5) != SteenrodElement(D, 5)
    assert ClassicalElement(3, frozenset()) != (3, frozenset())
    assert ExtChart("x", 2) != ("x", 2, {})


def test_optional_fields_keep_their_defaults():
    assert ExtChart("x", 2).classes == {}
    report = VerificationReport("c", {})
    assert (report.verdict, report.witnesses) == (True, [])
    assert repr(report) == "VerificationReport(check='c', params={}, verdict=True, witnesses=[])"
    assert VerifyConfig(12).seed == 20170927
    # fresh containers per instance, never a shared default
    assert ExtChart("x", 2).classes is not ExtChart("x", 2).classes
    assert VerificationReport("c", {}).witnesses is not report.witnesses


ALG = MilnorAlgebra(4)

# the library's holders: each is filled in or computes, so it compares by
# identity; a class that is none of the kinds test_every_class_has_a_kind
# names is added here on purpose
HOLDERS = [
    lambda: MilnorAlgebra(4),
    lambda: GradedModule(),
    lambda: AlgebraModule(ALG),
    lambda: TrivialModule(ALG),
    lambda: QuotientModule(ALG, (1,)),
    lambda: TensorModule(TrivialModule(ALG), TrivialModule(ALG)),
    lambda: FreeModule(0),
    lambda: ModuleMap(ALG, FreeModule(0), FreeModule(0)),
    lambda: Resolution(ALG, None, 4, 2),
    lambda: KwComplex(ALG, 0, 1),
    lambda: WbpComplex(ALG, 1),
    lambda: VerificationReport("c", {}),
    lambda: VerifyConfig(24),
]

# the classes that write their own __eq__ or __hash__
OWN_VALUE_SEMANTICS = {"Record", "BitMatrix"}


def test_holders_compare_by_identity():
    for make in HOLDERS:
        a = make()
        assert a == a
        assert a != make()
        assert len({a, make()}) == 2


def _library_classes():
    for info in pkgutil.iter_modules(wsteenrod.__path__):
        module = importlib.import_module(f"wsteenrod.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def test_value_semantics_are_written_once():
    # __hash__ = None, which makes a mutable record unhashable, is allowed
    writers = {
        cls.__name__
        for cls in _library_classes()
        if "__eq__" in vars(cls) or vars(cls).get("__hash__") is not None
    }
    assert writers == OWN_VALUE_SEMANTICS


def test_every_class_has_a_kind():
    # a record, an exception, a NamedTuple, a private helper, a holder, or
    # one of the classes that write their own value semantics
    holders = {type(make()) for make in HOLDERS}
    kindless = [
        cls.__qualname__
        for cls in _library_classes()
        if not (
            issubclass(cls, (Record, BaseException))
            or (issubclass(cls, tuple) and hasattr(cls, "_fields"))
            or cls.__name__.startswith("_")
            or cls in holders
            or cls.__name__ in OWN_VALUE_SEMANTICS
        )
    ]
    assert kindless == []


def test_record_fields_are_init_parameters():
    records = [cls for cls in _library_classes() if issubclass(cls, Record)]
    cases = {type(make()) for make, _, _ in HASHABLE + UNHASHABLE}
    assert cases <= set(records)
    for cls in records:
        assert cls._fields == tuple(inspect.signature(cls).parameters), cls
