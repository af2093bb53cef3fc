"""The behaviour every record type shares: equality by type and fields,
hashing, immutability, repr, keyword construction with defaults, pickling,
and the checks made when a record is built."""

import inspect
import pickle
from fractions import Fraction

import pytest

from graphnorms import (
    Certificate,
    Graph,
    HessianMatrix,
    PsdResult,
    Refusal,
    SparsePoly,
    SymbolicTemplate,
    SymRationalMatrix,
    UsageError,
)
from graphnorms.errors import Record
from graphnorms.homs import Affine

HALF = Fraction(1, 2)
K2 = Graph(2, ((0, 1),))
ONE = SymRationalMatrix(1, (HALF,))

# a record type, then the values of its fields in order
RECORDS = {
    "Graph": (Graph, (3, ((0, 1), (1, 2)))),
    "SymRationalMatrix": (SymRationalMatrix, (2, (Fraction(1), HALF, Fraction(0)))),
    "SparsePoly": (SparsePoly, (("x", "y"), {(2, 0): 3, (1, 1): -1}, 4)),
    "SymbolicTemplate": (SymbolicTemplate, (2, (Fraction(1), Affine(HALF, 1, "x"), Fraction(0)))),
    "HessianMatrix": (HessianMatrix, (((0, 0),), ONE)),
    "PsdResult": (PsdResult, ("not_psd", (Fraction(1), Fraction(-1)), Fraction(-2))),
    "Certificate": (
        Certificate,
        ("not_norming", K2, 1, ONE, ((0, 0),), (Fraction(1),), Fraction(-1), None, "t", None, 7),
    ),
    "Refusal": (Refusal, ("certify", "no witness", {"trials": 3})),
}
UNHASHABLE = {"SparsePoly", "Refusal"}  # their fields hold a dict


def make(name):
    cls, values = RECORDS[name]
    return cls(*values)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_are_equal(name):
    assert make(name) == make(name)
    assert not make(name) != make(name)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_equals_no_tuple_and_no_other_record_type(name):
    cls, values = RECORDS[name]
    record = cls(*values)
    assert record != values and values != record

    class Other(cls):
        pass

    assert record != Other(*values) and Other(*values) != record


@pytest.mark.parametrize("name", RECORDS)
def test_every_slot_is_a_field(name):
    # a record holds its fields and nothing else: no cache rides along
    cls = RECORDS[name][0]
    assert cls._fields == cls.__slots__


def test_records_with_the_same_fields_and_different_types_differ():
    # both accept these values, and only their types tell them apart
    tri = (Fraction(1), HALF, Fraction(0))
    assert SymRationalMatrix(2, tri) != SymbolicTemplate(2, tri)
    assert HessianMatrix(2, tri) != SymRationalMatrix(2, tri)
    assert PsdResult("a", "b", {}) != Refusal("a", "b", {})


@pytest.mark.parametrize("name", RECORDS)
def test_equal_hashable_records_hash_equal(name):
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(make(name))
    else:
        assert hash(make(name)) == hash(make(name))
        assert len({make(name), make(name)}) == 1


def test_a_certificate_holding_degree_evidence_is_unhashable():
    cls, values = RECORDS["Certificate"]
    with pytest.raises(TypeError):
        hash(cls(*values[:9], {"x2_coeff": "0"}, values[10]))


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_read_only(name):
    cls, values = RECORDS[name]
    record = cls(*values)
    first = repr(record).split("(", 1)[1].split("=", 1)[0]  # the first field's name
    with pytest.raises(AttributeError):
        setattr(record, first, values[0])
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert record == cls(*values)


def test_repr_names_the_class_and_its_fields():
    assert repr(PsdResult("psd")) == "PsdResult(verdict='psd', witness=None, value=None)"
    assert repr(K2) == "Graph(n=2, edges=((0, 1),))"
    assert repr(ONE) == "SymRationalMatrix(n=1, tri=(Fraction(1, 2),))"
    assert repr(SparsePoly(("x",), {(1,): 3}, 6)) == "SparsePoly(symbols=('x',), terms={(1,): 3}, den=6)"
    assert repr(Refusal("op", "why", {})) == "Refusal(operation='op', reason='why', evidence={})"
    assert repr(HessianMatrix(((0, 0),), ONE)) == f"HessianMatrix(pairs=((0, 0),), matrix={ONE!r})"
    assert repr(SymbolicTemplate(1, ("x",))) == (
        "SymbolicTemplate(n=1, cells=(Affine(const=Fraction(0, 1), slope=1, symbol='x'),))"
    )
    cert = Certificate(kind="screening_failure", graph=K2, reason="odd edge count")
    assert repr(cert) == (
        f"Certificate(kind='screening_failure', graph={K2!r}, n=None, witness=None, "
        "pairs=None, direction=None, value=None, reason='odd edge count', theorem='', "
        "degree_evidence=None, seed=None)"
    )


def test_keyword_construction_takes_the_defaults():
    assert PsdResult("psd") == PsdResult(verdict="psd", witness=None, value=None)
    assert PsdResult("psd").witness is None and PsdResult("psd").value is None
    assert SparsePoly(("x",), {(1,): 2}) == SparsePoly(symbols=("x",), terms={(1,): 2}, den=1)
    assert SparsePoly(("x",)).terms == {} and SparsePoly(("x",)).den == 1
    assert SparsePoly(("x",)).terms is not SparsePoly(("x",)).terms
    cert = Certificate(kind="screening_failure", graph=K2)
    assert (cert.n, cert.witness, cert.pairs, cert.direction, cert.value) == (None,) * 5
    assert (cert.reason, cert.theorem, cert.degree_evidence, cert.seed) == (None, "", None, None)
    assert Graph(n=2, edges=((0, 1),)) == K2
    assert SymRationalMatrix(tri=(HALF,), n=1) == ONE
    assert HessianMatrix(matrix=ONE, pairs=((0, 0),)) == HessianMatrix(((0, 0),), ONE)
    assert Refusal(operation="a", reason="b", evidence={}) == Refusal("a", "b", {})
    assert SymbolicTemplate(n=1, cells=("x",)) == SymbolicTemplate(1, (Affine(0, 1, "x"),))


@pytest.mark.parametrize(
    "call",
    [
        lambda: PsdResult(),
        lambda: PsdResult("psd", None, None, None),
        lambda: PsdResult("psd", verdict="psd"),
        lambda: PsdResult("psd", bogus=1),
        lambda: Certificate(kind="screening_failure"),
    ],
    ids=["missing", "too-many", "twice", "unknown", "missing-keyword"],
)
def test_a_call_that_binds_no_record_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    record = make(name)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


def test_pickle_round_trip_of_a_built_certificate():
    from graphnorms import certify_bowtie_cycle

    cert = certify_bowtie_cycle(5)
    assert pickle.loads(pickle.dumps(cert)) == cert


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph(2, ((0, 0),)), "loop at vertex 0"),
        (lambda: SymRationalMatrix(2, (Fraction(1),)), "wrong upper-triangle length"),
        (lambda: SparsePoly(("x",), {(1,): 0}), "numerators must be nonzero ints"),
        (lambda: SymbolicTemplate(2, ("x",)), "wrong template cell count"),
    ],
    ids=["graph-loop", "matrix-length", "poly-zero", "template-count"],
)
def test_validation_messages_are_unchanged(call, message):
    with pytest.raises(UsageError) as info:
        call()
    assert str(info.value) == message


def test_a_template_reads_its_cells_when_built():
    t = SymbolicTemplate(1, ("x",))
    assert t.cells == (Affine(Fraction(0), 1, "x"),)
    assert isinstance(t.cells[0].const, Fraction)


def test_a_sparse_poly_equals_its_copy_after_a_read():
    assert SparsePoly.__slots__ == ("symbols", "terms", "den")
    p = SparsePoly(("x", "y"), {(2, 0): 3, (1, 1): -1}, 4)
    copy = SparsePoly(p.symbols, dict(p.terms), p.den)
    before = repr(p)
    h = p.hessian(("x", "y"), {"x": 1, "y": 2})
    assert h == copy.hessian(("x", "y"), {"x": 1, "y": 2})
    assert p == copy and copy == p
    assert repr(p) == before
    assert pickle.loads(pickle.dumps(p)) == copy


def test_every_record_type_is_on_the_panel():
    assert {cls.__qualname__ for cls in Record.__subclasses__()} == set(RECORDS)


@pytest.mark.parametrize("cls", Record.__subclasses__(), ids=lambda cls: cls.__qualname__)
def test_init_parameters_are_the_slots_in_order(cls):
    # Record._fill sets the fields by position, so the parameters of each
    # record's __init__ must name its slots in slot order
    assert tuple(inspect.signature(cls).parameters) == cls.__slots__
