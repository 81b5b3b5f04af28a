"""Guards that no other test reaches: each raises its error with its exact
message.  Also the `DOpPair` zero-component rule, `dop_normalize` on empty
input, a `JOperator` called on a pair, degrees the API refuses, and the
CLI's exit 2 for a failed verification and for a failing suite."""

import json

import pytest

from dgalift import cli, selftest
from dgalift.algebra import Signature
from dgalift.errors import NotInvertibleError, SchemaError, VerificationError
from dgalift.field import QQ, field_from_spec
from dgalift.io import load_json, module_from_doc, signature_from_doc
from dgalift.jop import JOperator, base_change_defect
from dgalift.lift import obstruction
from dgalift.module import (
    Differential,
    DOpPair,
    FreeModule,
    GradedMap,
    compose,
    direct_sum,
    dop_normalize,
    invert_unit,
    left_mult,
    sharp_map,
    twofold_extension,
)
from dgalift.randgen import FixturePool

POOL = FixturePool(QQ)
S1, S3 = POOL.S1, POOL.S3
N3, D3 = POOL.N3, POOL.d3
OTHER = FreeModule(S3, [("g0", 0), ("g1", 1), ("g2", 2)])  # N3's degrees, other names
D_OTHER = Differential(GradedMap(OTHER, -1, dict(D3.matrix.entries)))
A = GradedMap.single(N3, 0, 0, S3.parse("a"))  # degree 0
AX = GradedMap.single(N3, 0, 0, S3.parse("X"))  # degree 1
NOT_SQUARE_ZERO = Differential(GradedMap(N3, -1, {(0, 1): S3.parse("a"), (1, 2): S3.parse("a")}))
PAIR = DOpPair.of_map(A, D3)

GUARDS = [
    ("top-variable", lambda: Signature(QQ, ["a"]).top_variable,
     SchemaError, "signature has no adjoined variables"),
    ("negative-exponent", lambda: S3.gen_power("a", -1),
     SchemaError, "exponents must be non-negative"),
    ("unknown-generator", lambda: S3.gen_power("z", 1),
     SchemaError, "unknown generator 'z'"),
    ("adjoin-degree-0", lambda: S3.adjoin("Y", 0, "a"),
     SchemaError, "adjoined variables must have positive degree"),
    ("adjoin-foreign-cycle", lambda: S3.adjoin("Y", 1, S1.parse("a")),
     SchemaError, "cycle lives in a different signature"),
    ("field-spec", lambda: field_from_spec("fp:x"),
     SchemaError, "bad field spec 'fp:x'"),
    ("signature-doc", lambda: signature_from_doc([]),
     SchemaError, "$: signature document must be an object"),
    ("module-doc", lambda: module_from_doc([], S3),
     SchemaError, "$: module document must be an object"),
    ("module-doc-differential",
     lambda: module_from_doc({"basis": [{"name": "e", "degree": 0}], "differential": []}, S3),
     SchemaError, "differential: must be an object keyed by column names"),
    ("jop-foreign-map", lambda: JOperator(N3, "X").of_map(GradedMap.zero(OTHER, 0)),
     SchemaError, "map acts on a different module"),
    ("jop-target", lambda: JOperator(N3, "X")(5),
     SchemaError, "cannot apply to 5"),
    ("base-change-degree", lambda: base_change_defect(JOperator(N3, "X"), AX),
     SchemaError, "base change requires a degree-0 unit"),
    ("lift-foreign-differential", lambda: obstruction(N3, D_OTHER, "X"),
     SchemaError, "differential acts on a different module"),
    ("basis-names-unique", lambda: FreeModule(S3, [("e", 0), ("e", 1)]),
     SchemaError, "module basis names must be unique"),
    ("basis-empty", lambda: FreeModule(S3, []),
     SchemaError, "module basis must be non-empty"),
    ("basis-element", lambda: N3.index("zz"),
     SchemaError, "unknown basis element 'zz'"),
    # a zero coefficient does not hide an unknown name
    ("elem-unknown-name", lambda: N3.elem([("nope", "a")]),
     SchemaError, "unknown basis element 'nope'"),
    ("elem-unknown-name-zero-text", lambda: N3.elem([("nope", "0")]),
     SchemaError, "unknown basis element 'nope'"),
    ("elem-unknown-name-zero", lambda: N3.elem([("nope", S3.zero())]),
     SchemaError, "unknown basis element 'nope'"),
    ("single-zero-degree", lambda: GradedMap.single(N3, 0, 0, S3.zero()),
     SchemaError, "degree required for a zero single entry"),
    ("sharp-map-rank", lambda: sharp_map(A, N3, 1),
     SchemaError, "doubled module has unexpected rank"),
    ("element-times-int", lambda: S3.parse("a") * 3,
     TypeError, "unsupported operand type(s) for *: 'AlgElem' and 'int'"),
    ("element-modules", lambda: N3.basis_elem(0) + OTHER.basis_elem(0),
     SchemaError, "elements belong to different modules"),
    ("entry-signature", lambda: GradedMap(N3, 0, {(0, 0): S1.one()}),
     SchemaError, "entry from a different signature"),
    ("map-modules", lambda: compose(A, GradedMap.identity(OTHER)),
     SchemaError, "maps act on different modules"),
    ("map-degrees", lambda: A + AX,
     SchemaError, "cannot add maps of different degrees"),
    ("apply-module", lambda: A.apply(OTHER.basis_elem(0)),
     SchemaError, "element belongs to a different module"),
    ("left-mult-signature", lambda: left_mult(N3, S1.one()),
     SchemaError, "element from a different signature"),
    ("differential-degree", lambda: Differential(A),
     SchemaError, "a differential matrix must have degree -1"),
    ("zero-differential-degree", lambda: Differential(GradedMap.zero(N3, 0)),
     SchemaError, "a differential matrix must have degree -1"),
    ("pair-degrees", lambda: DOpPair(A, A, D3),
     SchemaError, "pair components have inconsistent degrees"),
    ("pair-differentials", lambda: PAIR + DOpPair.of_map(A, NOT_SQUARE_ZERO),
     SchemaError, "pairs refer to different differentials"),
    ("normalize-differential", lambda: dop_normalize([[A, NOT_SQUARE_ZERO]], D3),
     SchemaError, "chains may only use the reference differential"),
    ("normalize-item", lambda: dop_normalize([[A, 5]], D3),
     SchemaError, "cannot normalize item 5"),
    ("normalize-pair", lambda: dop_normalize([[PAIR]], D3),
     SchemaError, f"cannot normalize item {PAIR!r}"),
    ("invert-degree", lambda: invert_unit(AX),
     NotInvertibleError, "only degree-0 maps can be inverted"),
    ("direct-sum-signatures", lambda: direct_sum(N3, POOL.N1),
     SchemaError, "modules over different signatures"),
    ("twofold-square-zero", lambda: twofold_extension(N3, NOT_SQUARE_ZERO, 1),
     SchemaError, "two-fold extension requires a square-zero differential"),
    # degrees given to the API that are not ints, or are bools
    ("basis-degree-float", lambda: FreeModule(S3, [("e", 1.5), ("f", True)]),
     SchemaError, "module basis degree 1.5 is not an integer"),
    ("basis-degree-bool", lambda: FreeModule(S3, [("e", 0), ("f", True)]),
     SchemaError, "module basis degree True is not an integer"),
    ("basis-degree-str", lambda: FreeModule(S3, [("e", "2")]),
     SchemaError, "module basis degree '2' is not an integer"),
    ("adjoin-degree-float", lambda: S3.adjoin("Y", 1.0, "a"),
     SchemaError, "degree of Y must be an integer, found 1.0"),
    ("adjoin-degree-bool", lambda: S3.adjoin("Y", True, "a"),
     SchemaError, "degree of Y must be an integer, found True"),
    ("adjoin-degree-str", lambda: S3.adjoin("Y", "1", "a"),
     SchemaError, "degree of Y must be an integer, found '1'"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_guard_raises_its_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_joperator_applies_to_a_pair_as_of_dop():
    j = JOperator(N3, "X", GradedMap.single(N3, 0, 1, S3.one()))  # twisted by gamma = E_01
    pair = DOpPair.of_map(AX, D3)
    assert not j.of_dop(pair).is_zero()
    assert j(pair) == j.of_dop(pair)


def test_load_json_reports_an_unreadable_path(tmp_path):
    path = str(tmp_path / "missing.json")
    with pytest.raises(OSError) as cause:
        open(path, "rb")
    with pytest.raises(SchemaError) as raised:
        load_json(path)
    assert str(raised.value) == f"cannot read {path}: {cause.value}"


def test_pair_takes_the_degree_of_its_nonzero_component():
    """A zero component is given the degree the other one implies, as
    ``GradedMap._plus`` gives a zero summand the other's."""
    p = DOpPair(GradedMap.zero(N3, 5), A, D3)
    assert (p.f.degree, p.g.degree, p.f.is_zero(), p.g is A) == (-1, 0, True, True)
    q = DOpPair(A, GradedMap.zero(N3, 7), D3)
    assert (q.f.degree, q.g.degree, q.g.is_zero(), q.f is A) == (0, 1, True, True)
    e0, e1 = N3.basis_elem(0), N3.basis_elem(1)
    assert p.apply(e1) == e0.scale_right(S3.parse("a^2")) and q.apply(e0) == e0.scale_right(S3.parse("a"))


@pytest.mark.parametrize("summands", [[], [[]], [[], []]], ids=["no-summands", "empty-chain", "empty-chains"])
def test_normalize_empty_sum_is_the_zero_pair(summands):
    p = dop_normalize(summands, D3)
    assert p.is_zero() and (p.f.degree, p.g.degree) == (0, 1) and p.partial is D3
    assert dop_normalize(summands + [[A]], D3) == PAIR


def test_cli_maps_a_verification_error_to_exit_2(monkeypatch, capsys):
    def fail(args):
        raise VerificationError("unit inverse failed verification")

    monkeypatch.setattr(cli, "_run", fail)
    assert cli.main(["selftest"]) == 2
    assert capsys.readouterr() == ("", "verification failure: unit inverse failed verification\n")


def test_cli_failing_suite_is_a_fail_verdict(monkeypatch, capsys):
    monkeypatch.setitem(selftest.SUITES, "jacobi", lambda pool, rng: False)
    assert cli.main(["selftest", "--iters", "1", "--field", "q"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "fail" and not doc["data"]["all_passed"]
    failed = [r["suite"] for r in doc["data"]["suites"] if r["failures"]]
    assert failed == ["jacobi"]
