"""The package's frozen records: construction, validation, equality, hash,
repr, immutability, pickling and the key order of their dictionaries."""

import copy
import inspect
import pickle
import re

import pytest

from buckbounds import (
    ACoefficients,
    Basis1D,
    BoundReport,
    ConvergenceTable,
    DeltaSequence,
    Domain,
    InvalidParameterError,
    LemmaRow,
    Polynomial,
    Spectrum,
    TheoremCheck,
    VerificationReport,
)

_REPORT_ARGS = ("cor11", 1, 4.0, 6.5, -2.5, 6.5e-09, True)
_REPORT_FIELDS = ("method", "k", "lhs", "rhs", "residual", "tolerance", "satisfied")
_REPORT_REPR = (
    "BoundReport(method='cor11', k=1, lhs=4.0, rhs=6.5, residual=-2.5, "
    "tolerance=6.5e-09, satisfied=True)"
)
_REPORT = BoundReport(*_REPORT_ARGS)
_ROW_ARGS = (1, 2, 0.5, 1.0, 0.5, True)
_ROW_FIELDS = ("i", "k", "value", "bound", "margin", "passed")
_ROW = LemmaRow(*_ROW_ARGS)
_TABLE_ARGS = ((2, 3), ((54.0, 98.5), (52.25, 98.25)), (True, False), (52.0, 98.0), (None, 3))
_TABLE_FIELDS = ("m_values", "eigenvalues", "monotone", "extrapolated", "converged_at")
_TABLE_REPR = (
    "ConvergenceTable(m_values=(2, 3), eigenvalues=((54.0, 98.5), (52.25, 98.25)), "
    "monotone=(True, False), extrapolated=(52.0, 98.0), converged_at=(None, 3))"
)
_TABLE = ConvergenceTable(*_TABLE_ARGS)
_CHECK = TheoremCheck(_REPORT, "pass")
_VERIFICATION_FIELDS = (
    "domain",
    "l",
    "m",
    "count",
    "checks",
    "lemma_rows",
    "convergence",
    "passed",
)
_VERIFICATION_ARGS = (Domain((1.0, 2.0)), 2, 3, 2, (_CHECK,), (_ROW,), _TABLE, False)

# Each record: its class, its arguments by position, every field in __init__
# order (the instance __dict__ holds the same names in the same order), the
# fields that == and hash read, its repr, and each parameter of __init__
# with its default (None for a required one).
RECORDS = {
    "Spectrum": (
        Spectrum,
        ((1.0, 2), 2, 3, "file", [1.0, 2.0], "forms", 4),
        ("values", "n", "l", "provenance", "vectors", "forms", "m"),
        ("values", "n", "l", "provenance"),
        "Spectrum(values=(1.0, 2.0), n=2, l=3, provenance='file', m=4)",
        {"provenance": "synthetic", "vectors": None, "forms": None, "m": None},
    ),
    "DeltaSequence": (
        DeltaSequence,
        ([1, 0.5],),
        ("values",),
        ("values",),
        "DeltaSequence(values=(1.0, 0.5))",
        {},
    ),
    "BoundReport": (BoundReport, _REPORT_ARGS, _REPORT_FIELDS, _REPORT_FIELDS, _REPORT_REPR, {}),
    "Polynomial": (
        Polynomial,
        ([-2, 0, 1, 0, 0],),
        ("coefficients",),
        ("coefficients",),
        "Polynomial(coefficients=(-2, 0, 1))",
        {},
    ),
    "ACoefficients": (
        ACoefficients,
        (4, 3, (19, -1), (19, 0)),
        ("l", "n", "a", "a_plus"),
        ("l", "n", "a", "a_plus"),
        "ACoefficients(l=4, n=3, a=(19, -1), a_plus=(19, 0))",
        {},
    ),
    "Domain": (Domain, ([1, 2.5],), ("edges",), ("edges",), "Domain(edges=(1.0, 2.5))", {}),
    "Basis1D": (Basis1D, (2, 3), ("l", "m"), ("l", "m"), "Basis1D(l=2, m=3)", {}),
    "LemmaRow": (
        LemmaRow,
        _ROW_ARGS,
        _ROW_FIELDS,
        _ROW_FIELDS,
        "LemmaRow(i=1, k=2, value=0.5, bound=1.0, margin=0.5, passed=True)",
        {},
    ),
    "ConvergenceTable": (
        ConvergenceTable,
        _TABLE_ARGS,
        _TABLE_FIELDS,
        _TABLE_FIELDS,
        _TABLE_REPR,
        {},
    ),
    "TheoremCheck": (
        TheoremCheck,
        (_REPORT, "pass"),
        ("report", "verdict"),
        ("report", "verdict"),
        f"TheoremCheck(report={_REPORT_REPR}, verdict='pass')",
        {},
    ),
    "VerificationReport": (
        VerificationReport,
        _VERIFICATION_ARGS,
        _VERIFICATION_FIELDS,
        _VERIFICATION_FIELDS,
        "VerificationReport(domain=Domain(edges=(1.0, 2.0)), l=2, m=3, count=2, "
        f"checks=(TheoremCheck(report={_REPORT_REPR}, verdict='pass'),), "
        "lemma_rows=(LemmaRow(i=1, k=2, value=0.5, bound=1.0, margin=0.5, passed=True),), "
        f"convergence={_TABLE_REPR}, passed=False)",
        {},
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_names_each_field_once(name):
    # A record's fields are its __init__ parameters, stored by one _store
    # call: its class body holds no field list, no post-init hook and no
    # store of a single field.
    cls = RECORDS[name][0]
    source = inspect.getsource(cls)
    assert cls._fields == RECORDS[name][2]
    for absent in ("_fields", "__post_init__", "__setattr__"):
        assert absent not in source
    assert source.count("self._store(locals())") == 1


def _built(name):
    cls, args, fields, _, _, _ = RECORDS[name]
    return cls(*args), cls(**dict(zip(fields, args)))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_builds_by_position_and_by_keyword(name):
    cls, args, fields, _, shown, defaults = RECORDS[name]
    by_position, by_keyword = _built(name)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert repr(by_position) == repr(by_keyword) == shown
    assert list(vars(by_position)) == list(fields)
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in parameters] == [
        (f, defaults.get(f, inspect.Parameter.empty)) for f in fields
    ]
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) missing \d+ required positional"):
        cls()


def test_spectrum_defaults():
    spectrum = Spectrum((1.0,), 2, 2)
    assert (spectrum.provenance, spectrum.vectors, spectrum.forms, spectrum.m) == (
        "synthetic",
        None,
        None,
        None,
    )
    assert repr(spectrum) == "Spectrum(values=(1.0,), n=2, l=2, provenance='synthetic', m=None)"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_and_hash_read_the_compared_fields(name):
    _, _, fields, compared, _, _ = RECORDS[name]
    record, _ = _built(name)
    assert hash(record) == hash(tuple(getattr(record, f) for f in compared))
    assert record.__eq__(object()) is NotImplemented
    for field in fields:
        other = copy.copy(record)
        object.__setattr__(other, field, object())
        assert (record == other) is (field not in compared), field
        assert (record != other) is (field in compared), field


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_refuses_assignment_and_deletion(name):
    _, _, fields, _, _, _ = RECORDS[name]
    record, _ = _built(name)
    before = dict(vars(record))
    for field in fields + ("unknown",):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
    assert vars(record) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_pickles_and_deep_copies(name):
    cls, _, _, _, shown, _ = RECORDS[name]
    record, _ = _built(name)
    assert not hasattr(record, "__slots__")
    for clone in [copy.deepcopy(record)] + [
        pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]:
        assert type(clone) is cls
        assert clone == record
        assert hash(clone) == hash(record)
        assert repr(clone) == shown
        assert vars(clone) == vars(record)
    assert copy.deepcopy(record).__dict__ is not record.__dict__


def test_spectrum_copies_keep_the_uncompared_fields():
    spectrum, _ = _built("Spectrum")
    clone = copy.deepcopy(spectrum)
    assert clone.vectors == [1.0, 2.0] and clone.vectors is not spectrum.vectors
    assert (clone.forms, clone.m) == ("forms", 4)
    assert pickle.loads(pickle.dumps(spectrum)).vectors == [1.0, 2.0]


# Each refused construction, by the arguments it is given by position: the
# message must be the same when they are given by keyword.
REFUSALS = [
    (Spectrum, ((), 2, 2), "a spectrum needs at least one eigenvalue"),
    (Spectrum, ((2.0, 1.0), 2, 2), "eigenvalues must be nondecreasing"),
    (Spectrum, ((1.0, -1.0), 2, 2), "eigenvalues must be positive finite, got -1.0"),
    (Spectrum, ((1.0,), 0, 2), "n must be >= 1, got 0"),
    (Spectrum, ((1.0,), 2, 1), "l must be >= 2, got 1"),
    (
        Spectrum,
        ((1.0,), 2, 2, "other"),
        "provenance must be one of ('computed', 'synthetic', 'file'), got 'other'",
    ),
    (DeltaSequence, ((),), "delta sequence must be nonempty"),
    (DeltaSequence, ((1.0, 2.0),), "delta entries must be non-increasing"),
    (DeltaSequence, ((0.0,),), "delta entries must be positive finite, got 0.0"),
    (Polynomial, ((0, 0),), "the zero polynomial is not representable here"),
    (Polynomial, ((1, 1.5),), "coefficients must be integers, got 1.5"),
    (Domain, ((1, 1, 1, 1),), "domain needs 1 to 3 edges, got 4"),
    (Domain, (("x",),), "edge lengths must be numeric and within the float range"),
    (Basis1D, (2, 25), "m=25 exceeds the supported cap 24"),
    (Basis1D, (1, 3), "l must be >= 2, got 1"),
    (Basis1D, (2, 0), "m must be >= 1, got 0"),
]


@pytest.mark.parametrize("cls, args, message", REFUSALS)
def test_record_validation_messages(cls, args, message):
    fields = list(inspect.signature(cls).parameters)
    for call in (lambda: cls(*args), lambda: cls(**dict(zip(fields, args)))):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            call()


def test_record_dictionaries_keep_their_key_order():
    assert _REPORT.to_dict() == dict(zip(_REPORT_FIELDS, _REPORT_ARGS))
    assert list(_REPORT.to_dict()) == list(_REPORT_FIELDS)
    report = VerificationReport(*_VERIFICATION_ARGS).to_dict()
    assert list(report) == [
        "schema",
        "domain",
        "n",
        "l",
        "m",
        "count",
        "theorem_checks",
        "lemma_rows",
        "convergence",
        "passed",
    ]
    assert report["lemma_rows"] == [dict(zip(_ROW_FIELDS, _ROW_ARGS))]
    assert list(report["lemma_rows"][0]) == list(_ROW_FIELDS)
    assert [list(check) for check in report["theorem_checks"]] == [
        list(_REPORT_FIELDS) + ["verdict"]
    ]
    assert report["theorem_checks"][0]["verdict"] == "pass"
