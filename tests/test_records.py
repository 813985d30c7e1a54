"""Every library record is a NamedTuple and keeps the contract of a frozen value.

The expected reprs and error messages below were recorded from the frozen
dataclasses the records used to be; QMatrix, a hand-written class before,
takes the NamedTuple repr that names its fields.  The differences a
NamedTuple brings on purpose (tuple equality, iteration, ``_replace``) are
pinned down at the end.
"""

import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qmarkoff
from qmarkoff import language, morphism, pairs, qpoly, spectrum, words
from qmarkoff.language import (
    Change,
    Characteristic,
    Mechanical,
    Periodic,
    Skew,
)
from qmarkoff.morphism import ChristoffelNode, MarkoffTriple, christoffel_node, markoff_triple, mu_q
from qmarkoff.pairs import AsymptoticPair, PairReport
from qmarkoff.qpoly import QMatrix
from qmarkoff.spectrum import PeriodicCF, SpectrumValue

import oracles
from oracles import PositivityReport, WrapDeltas, delta_wrap, positivity_report

# (type, build, a record of the same type with other values, repr of build())
RECORDS = [
    (Mechanical, lambda: Mechanical(Fraction(2, 5)), Mechanical("1/3"), "Mechanical(alpha=Fraction(2, 5))"),
    (Mechanical, lambda: Mechanical("2/6"), Mechanical(1), "Mechanical(alpha=Fraction(1, 3))"),
    (Periodic, lambda: Periodic("00101"), Periodic("ab"), "Periodic(word='aabab')"),
    (Characteristic, lambda: Characteristic([2, 1]), Characteristic((1, 2)), "Characteristic(directive=(2, 1))"),
    (Skew, lambda: Skew("aba", "blocks", "ba"), Skew("aba", "blocks"), "Skew(m='aba', form='blocks', xy='ba')"),
    (Skew, lambda: Skew(), Skew(xy="ba"), "Skew(m='', form='xxyxx', xy='ab')"),
    (Change, lambda: Change("ab", "ba", "flip_ab_ba"), Change("ab", "bb", "last_letter"),
     "Change(src='ab', dst='ba', kind='flip_ab_ba')"),
    (PositivityReport, lambda: positivity_report("ab"), positivity_report("ba"),
     "PositivityReport(e11=IntPolynomial([0, 1, 2, 3, 3, 2, 1]), e12=IntPolynomial([1, 1, 2, 1]), "
     "e21=IntPolynomial([0, 1, 2, 2, 1, 1]), e22=IntPolynomial([1, 1, 1]), "
     "combo1=IntPolynomial([0, 1, 2, 3, 2, 3, 2, 1]), combo2=IntPolynomial([0, 0, 1, 2, 2, 3, 2, 2, 1]))"),
    (WrapDeltas, lambda: delta_wrap("a"), delta_wrap("b"),
     "WrapDeltas(awa_minus_bw=IntPolynomial([0, 0, 0, 1]), awb_minus_awa=IntPolynomial([0, 0, 1, 1, 2, 1]))"),
    (MarkoffTriple, lambda: markoff_triple("LR"), MarkoffTriple(1, 5, 2), "MarkoffTriple(x=13, y=194, z=5)"),
    (ChristoffelNode, lambda: christoffel_node("RL"), ChristoffelNode("a", "b"), "ChristoffelNode(u='ab', v='abb')"),
    (AsymptoticPair, lambda: AsymptoticPair(str, frozenset({0})), AsymptoticPair(str, frozenset()),
     "AsymptoticPair(s=<class 'str'>, difference_set=frozenset({0}))"),
    (PairReport, lambda: PairReport(4, 10, False, (-1, "ab")), PairReport(4, 10, False),
     "PairReport(radius=4, patterns_checked=10, indistinguishable=False, failing=(-1, 'ab'))"),
    (PairReport, lambda: PairReport(4, 0, True), PairReport(5, 0, True),
     "PairReport(radius=4, patterns_checked=0, indistinguishable=True, failing=None)"),
    (PeriodicCF, lambda: PeriodicCF([1, 2, 2]), PeriodicCF((2, 2, 1)), "PeriodicCF(period=(1, 2, 2))"),
    (QMatrix, lambda: mu_q("a"), mu_q("b"),
     "QMatrix(e11=IntPolynomial([0, 1, 1]), e12=IntPolynomial([1]), e21=IntPolynomial([0, 1]), "
     "e22=IntPolynomial([1]))"),
    (SpectrumValue, lambda: SpectrumValue(2.5, 0.125), SpectrumValue(2.5, 0.25),
     "SpectrumValue(value=2.5, error_bound=0.125)"),
]

IDS = [expected.partition("(")[0] for *_, expected in RECORDS]


def _public_records(module) -> set[type]:
    """The public tuple subclasses with fields that `module` defines."""
    return {
        cls
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and not name.startswith("_") and issubclass(cls, tuple)
        and hasattr(cls, "_fields")
    }


def test_every_record_is_covered():
    library = set().union(*map(_public_records, (language, morphism, pairs, qpoly, spectrum, words)))
    assert {cls for cls, *_ in RECORDS} == library | _public_records(oracles)
    assert len(library) == 12


@pytest.mark.parametrize("cls, build, other, expected", RECORDS, ids=IDS)
def test_repr_and_equality(cls, build, other, expected):
    record = build()
    assert type(record) is cls and type(other) is cls
    assert repr(record) == expected
    assert record == build() and not (record != build())
    assert record != other and not (record == other)


@pytest.mark.parametrize("cls, build, other, expected", RECORDS, ids=IDS)
def test_hash_follows_the_field_values(cls, build, other, expected):
    record = build()
    values = tuple(getattr(record, name) for name in record._fields)
    assert hash(record) == hash(build()) == hash(values)


@pytest.mark.parametrize("cls, build, other, expected", RECORDS, ids=IDS)
def test_attributes_cannot_be_assigned(cls, build, other, expected):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(other, other._fields[0]))
    with pytest.raises(AttributeError):
        record.note = "x"
    assert record == build()


VALIDATION_ERRORS = [
    (lambda: Mechanical(Fraction(3, 2)), "slope must lie in [0, 1]"),
    (lambda: Mechanical(-1), "slope must lie in [0, 1]"),
    (lambda: Mechanical("x"), "Invalid literal for Fraction: 'x'"),
    (lambda: Periodic(""), "period must be nonempty"),
    (lambda: Periodic("aabb"), "period 'aabb' does not generate a balanced sequence"),
    (lambda: Periodic("abc"), "malformed word 'abc': letters ['c'] not in {a,b,0,1}"),
    (lambda: Characteristic(()), "directive must be a nonempty sequence of positive integers"),
    (lambda: Characteristic((1, 0)), "directive must be a nonempty sequence of positive integers"),
    (lambda: Characteristic(("x",)), "invalid literal for int() with base 10: 'x'"),
    (lambda: Skew("abc"), "malformed word 'abc': letters ['c'] not in {a,b,0,1}"),
    (lambda: Skew("", "other"), "form must be one of ('xxyxx', 'blocks')"),
    (lambda: Skew("", "blocks", "aa"), "xy must be 'ab' or 'ba'"),
    (lambda: Skew("ab"), "'aabb' is not a Christoffel word"),
    (lambda: MarkoffTriple(0, 1, 1), "Markoff triples are positive"),
    (lambda: MarkoffTriple(1, 2, 2), "(1,2,2) does not solve the Markoff equation"),
    (lambda: PeriodicCF(()), "period must be a nonempty sequence of positive integers"),
    (lambda: PeriodicCF((1, 0)), "period must be a nonempty sequence of positive integers"),
]


@pytest.mark.parametrize("build, message", VALIDATION_ERRORS)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_keyword_construction_and_defaults():
    assert Mechanical(alpha="1/3") == Mechanical(Fraction(1, 3))
    assert Skew(form="blocks") == Skew("", "blocks", "ab")
    assert PairReport(radius=3, patterns_checked=1, indistinguishable=True).failing is None


# The differences a NamedTuple brings, on purpose.


def test_records_are_tuples_of_their_fields():
    spec = Skew("aba", "blocks", "ba")
    assert tuple(spec) == ("aba", "blocks", "ba")
    assert spec == ("aba", "blocks", "ba")
    assert Periodic("ab") == ("ab",) and Mechanical("2/5") == (Fraction(2, 5),)
    m, form, xy = spec
    assert (m, form, xy) == (spec.m, spec.form, spec.xy)


def test_replace_validates_and_normalises():
    spec = Mechanical("2/5")
    assert spec._replace(alpha="3/9") == Mechanical(Fraction(1, 3))
    with pytest.raises(ValueError, match=r"slope must lie in \[0, 1\]"):
        spec._replace(alpha=2)
    with pytest.raises(ValueError, match="does not generate a balanced sequence"):
        Periodic("ab")._replace(word="aabb")
    with pytest.raises(ValueError, match="Christoffel"):
        Skew()._replace(m="ab")
    with pytest.raises(ValueError, match="Markoff equation"):
        markoff_triple("")._replace(x=2)


def test_pair_report_is_immutable_and_hashable():
    report = PairReport(4, 0, True)
    with pytest.raises(AttributeError):
        report.radius = 5
    assert hash(report) == hash((4, 0, True, None))
    assert hash(PairReport(4, 1, False, (0, "b"))) == hash((4, 1, False, (0, "b")))


def test_import_loads_every_module_and_no_dataclasses():
    src = Path(qmarkoff.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "import qmarkoff.cli, qmarkoff.language, qmarkoff.pairs, qmarkoff.spectrum\n"
        "print(sorted(m for m in sys.modules if m.startswith('qmarkoff.')), 'dataclasses' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    modules = ["cli", "language", "morphism", "pairs", "qpoly", "spectrum", "words"]
    assert out == f"{['qmarkoff.' + m for m in modules]} False\n"
