import json
import random

import pytest

from dgalift.cli import main
from dgalift.errors import SchemaError
from dgalift.field import QQ, PrimeField
from dgalift.io import (
    matrix_to_doc,
    module_from_doc,
    module_to_doc,
    signature_from_doc,
    signature_to_doc,
)
from dgalift.lift import construct_lift_even, construct_lift_odd, decide_naive_lift
from dgalift.module import invert_unit
from dgalift.randgen import FixturePool, rand_unit
from dgalift.tensor import NaiveTensor, verify_splitting

S1_DOC = {
    "field": {"type": "Q"},
    "polygens": ["a", "b"],
    "variables": [
        {"name": "W1", "degree": 1, "d": "a"},
        {"name": "W2", "degree": 1, "d": "b"},
        {"name": "X", "degree": 2, "d": "b*W1 - a*W2"},
    ],
}

S2_DOC = {
    "field": {"type": "Q"},
    "polygens": ["a", "b", "c"],
    "variables": [
        {"name": "X1", "degree": 1, "d": "a*b"},
        {"name": "X2", "degree": 1, "d": "a*c"},
        {"name": "Y", "degree": 2, "d": "c*X1 - b*X2"},
    ],
}

S3_DOC = {
    "field": {"type": "Q"},
    "polygens": ["a"],
    "variables": [{"name": "X", "degree": 1, "d": "a"}],
}

N3_DOC = {
    "basis": [
        {"name": "f0", "degree": 0},
        {"name": "f1", "degree": 1},
        {"name": "f2", "degree": 2},
    ],
    "differential": {"f1": {"f0": "a"}, "f2": {"f1": "a", "f0": "- a*X"}},
}

N1_DOC = {
    "basis": [{"name": "e0", "degree": 0}, {"name": "e1", "degree": 3}],
    "differential": {"e1": {"e0": "X + W1*W2"}},
}


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_signature_roundtrip(S1):
    sig = signature_from_doc(S1_DOC)
    assert sig == S1
    assert signature_from_doc(signature_to_doc(sig)) == sig


def test_signature_schema_errors():
    with pytest.raises(SchemaError, match="missing key"):
        signature_from_doc({"field": {"type": "Q"}, "polygens": []})
    with pytest.raises(SchemaError, match="variables\\[0\\]"):
        signature_from_doc(
            {
                "field": {"type": "Q"},
                "polygens": ["a"],
                "variables": [{"name": "X", "degree": 1, "d": "q"}],
            }
        )
    with pytest.raises(SchemaError, match="not a cycle"):
        signature_from_doc(
            {
                "field": {"type": "Q"},
                "polygens": ["a"],
                "variables": [
                    {"name": "X", "degree": 1, "d": "a"},
                    {"name": "Z", "degree": 2, "d": "X"},
                ],
            }
        )


def test_module_roundtrip(S3):
    module, d = module_from_doc(N3_DOC, S3)
    assert module.names == ("f0", "f1", "f2")
    assert d.square_zero
    doc = module_to_doc(module, d)
    module2, d2 = module_from_doc(doc, S3)
    assert module2 == module and d2 == d


def test_module_schema_errors(S3):
    with pytest.raises(SchemaError, match="basis"):
        module_from_doc({"basis": []}, S3)
    with pytest.raises(SchemaError, match="unknown column"):
        module_from_doc(
            {"basis": [{"name": "e0", "degree": 0}], "differential": {"zz": {}}}, S3
        )
    with pytest.raises(SchemaError, match="homogeneous"):
        module_from_doc(
            {
                "basis": [{"name": "e0", "degree": 0}, {"name": "e1", "degree": 3}],
                "differential": {"e1": {"e0": "a"}},
            },
            S3,
        )


def test_matrix_doc_is_column_major(S3):
    module, d = module_from_doc(N3_DOC, S3)
    doc = matrix_to_doc(d.matrix)
    assert doc["f1"] == {"f0": "a"}
    assert set(doc["f2"]) == {"f0", "f1"}


# -- command line ----------------------------------------------------------------


def test_cli_validate(tmp_path, capsys):
    sig = _write(tmp_path, "sig.json", S2_DOC)
    assert main(["validate", "--sig", sig]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "pass"


def test_cli_validate_rejects_bad_name(tmp_path, capsys):
    bad = dict(S3_DOC, variables=[{"name": "X", "degree": 1, "d": "W1"}])
    sig = _write(tmp_path, "sig.json", bad)
    assert main(["validate", "--sig", sig]) == 1


def test_cli_validate_module(tmp_path, capsys):
    sig = _write(tmp_path, "sig.json", S3_DOC)
    mod = _write(tmp_path, "mod.json", N3_DOC)
    assert main(["validate", "--sig", sig, "--mod", mod]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["data"]["square_zero"] is True
    sig1 = _write(tmp_path, "sig1.json", S1_DOC)
    mod1 = _write(tmp_path, "mod1.json", N1_DOC)
    assert main(["validate", "--sig", sig1, "--mod", mod1]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["data"]["square_zero"] is True


def test_cli_validate_rejects_nonzero_square(tmp_path, capsys):
    sig = _write(tmp_path, "sig.json", S3_DOC)
    bad = {
        "basis": [{"name": "e0", "degree": 0}, {"name": "e1", "degree": 2}],
        "differential": {"e1": {"e0": "X"}},
    }
    mod = _write(tmp_path, "mod.json", bad)
    assert main(["validate", "--sig", sig, "--mod", mod]) == 1


def test_cli_derive(tmp_path, capsys):
    sig = _write(tmp_path, "sig.json", S2_DOC)
    assert main(["derive", "--sig", sig, "--var", "X1", "c*X1 - b*X2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["data"]["result"] == "c"


def test_cli_eval_and_diff(tmp_path, capsys):
    sig = _write(tmp_path, "sig.json", S1_DOC)
    assert main(["eval", "--sig", sig, "X^(2)*X^(3)"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["data"]["result"] == "10*X^(5)"
    assert main(["diff", "--sig", sig, "X"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["data"]["result"] == "-a*W2 + b*W1"
    assert out["data"]["is_cycle"] is True


def test_cli_eval_syntax_error(tmp_path, capsys):
    sig = _write(tmp_path, "sig.json", S1_DOC)
    assert main(["eval", "--sig", sig, "X^(2"]) == 1


def test_cli_jop_and_obstruct(tmp_path, capsys):
    sig = _write(tmp_path, "sig.json", S3_DOC)
    mod = _write(tmp_path, "mod.json", N3_DOC)
    assert main(["jop", "--sig", sig, "--mod", mod]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["data"]["matrix"] == {"f2": {"f0": "-a"}}
    assert out["data"]["commutes_with_differential"] is True
    assert main(["obstruct", "--sig", sig, "--mod", mod]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["data"]["cycle_verified"] is True


def test_cli_naive_inconclusive(tmp_path, capsys):
    sig = _write(tmp_path, "sig.json", S1_DOC)
    mod = _write(tmp_path, "mod.json", N1_DOC)
    assert main(["naive", "--sig", sig, "--mod", mod, "--bound", "3"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "inconclusive"


def test_cli_naive_vanishes(tmp_path, capsys):
    sig = _write(tmp_path, "sig.json", S3_DOC)
    mod = _write(tmp_path, "mod.json", N3_DOC)
    assert main(["naive", "--sig", sig, "--mod", mod, "--bound", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "vanishes"
    assert out["data"]["certificate"] == {"f1": {"f0": "-1"}}


def test_cli_lift_roundtrip(tmp_path, capsys, S3):
    sig = _write(tmp_path, "sig.json", S3_DOC)
    mod = _write(tmp_path, "mod.json", N3_DOC)
    assert main(["lift", "--sig", sig, "--mod", mod, "--bound", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "lifted"
    assert out["data"]["verification"] == {
        "lift": True,
        "splitting": True,
        "sequence": True,
    }
    # round-trip: the transcript data re-verifies through the library
    from dgalift.io import module_from_doc
    from dgalift.lift import verify_lift
    from dgalift.module import Differential, GradedMap, twofold_extension

    module, d = module_from_doc(N3_DOC, S3)
    doubled, d_sharp = twofold_extension(module, d, out["data"]["shift"])
    lifted_doc = out["data"]["lifted_module"]
    assert [b["name"] for b in lifted_doc["basis"]] == list(doubled.names)
    u_entries = {}
    for col, rows in out["data"]["basis_change"].items():
        for row, text in rows.items():
            u_entries[(doubled.index(row), doubled.index(col))] = S3.parse(text)
    u = GradedMap(doubled, 0, u_entries)
    m_entries = {}
    for col, rows in out["data"]["lifted_matrix"].items():
        for row, text in rows.items():
            m_entries[(doubled.index(row), doubled.index(col))] = S3.parse(text)
    lift_diff = Differential(GradedMap(doubled, -1, m_entries))
    assert verify_lift(lift_diff, u, d_sharp, "X").passed


def test_cli_lift_even_roundtrip(tmp_path, capsys, S1, N1prime):
    mod, d, m_flat, _ = N1prime
    sig = _write(tmp_path, "sig.json", S1_DOC)
    modf = _write(tmp_path, "mod.json", module_to_doc(mod, d))
    assert main(["lift", "--sig", sig, "--mod", modf, "--bound", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "lifted"
    assert out["data"]["parity"] == "even"
    assert out["data"]["verification"] == {"lift": True, "splitting": True}
    # the lifted matrix in the transcript is the known variable-free one
    got = {
        (row, col): text
        for col, rows in out["data"]["lifted_matrix"].items()
        for row, text in rows.items()
    }
    want = {
        (mod.names[r], mod.names[c]): str(e)
        for (r, c), e in m_flat.matrix.entries.items()
    }
    assert got == want


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_cli_splitting_flag_matches_oracle(tmp_path, capsys, field):
    """The ``splitting`` flag that ``lift`` derives from its lift checks
    equals `verify_splitting` on the same lift: the README example's module
    and seeded conjugated fixtures of both parities."""
    pool = FixturePool(field)
    rng = random.Random(19)
    cases = [(pool.N3, pool.d3, 0)]
    for mod, d0 in [(pool.N3, pool.d3), (pool.NK, pool.dK), (pool.Nodd, pool.dodd)]:
        for _ in range(2):
            u = rand_unit(mod, rng, poly_bound=2)
            cases.append((mod, d0.conjugate(u, invert_unit(u)), 2))
    parities = set()
    for n, (mod, d, bound) in enumerate(cases):
        sig = _write(tmp_path, f"sig{n}.json", signature_to_doc(mod.sig))
        modf = _write(tmp_path, f"mod{n}.json", module_to_doc(mod, d))
        assert main(["lift", "--sig", sig, "--mod", modf, "--bound", str(bound)]) == 0
        out = json.loads(capsys.readouterr().out)
        var = mod.sig.top_variable.name
        construct = construct_lift_odd if mod.sig.var(var).odd else construct_lift_even
        lift = construct(mod, d, var, decide_naive_lift(mod, d, var, bound).certificate)
        assert out["data"]["basis_change"] == matrix_to_doc(lift.u)
        nt = NaiveTensor(lift.module, lift.ambient_diff, var)
        assert out["data"]["verification"]["splitting"] is verify_splitting(nt, lift).passed
        parities.add(lift.parity)
    assert parities == {"odd", "even"}


def test_cli_tate(tmp_path, capsys):
    base = {
        "field": {"type": "Q"},
        "polygens": ["a", "b"],
        "variables": [
            {"name": "W1", "degree": 1, "d": "a"},
            {"name": "W2", "degree": 1, "d": "b"},
        ],
    }
    sig = _write(tmp_path, "sig.json", base)
    assert main(
        ["tate", "--sig", sig, "--name", "X", "--degree", "2", "--cycle", "b*W1 - a*W2"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert signature_from_doc(out["data"]["signature"]) == signature_from_doc(S1_DOC)
    assert (
        main(["tate", "--sig", sig, "--name", "Z", "--degree", "2", "--cycle", "W1"])
        == 1
    )


def test_cli_selftest_deterministic(capsys):
    assert main(["selftest", "--seed", "3", "--iters", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest", "--seed", "3", "--iters", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["data"]["all_passed"] is True
    assert "timing_ms" not in doc


def test_cli_selftest_single_field(capsys):
    assert main(["selftest", "--seed", "1", "--iters", "3", "--field", "fp:5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    fields = {json.dumps(r["field"], sort_keys=True) for r in doc["data"]["suites"]}
    assert fields == {json.dumps({"type": "Fp", "p": 5}, sort_keys=True)}


@pytest.mark.parametrize(
    "sig_doc, mod_doc, argv, message",
    [
        (
            dict(S3_DOC, field={"type": "Fp", "p": 5}),
            N3_DOC,
            ["eval", "1/5*a"],
            "zero denominator (at position 2)",
        ),
        (dict(S3_DOC, field={"type": "Fp", "p": 561}), N3_DOC, ["validate"], "561 is not prime"),
        (
            dict(S3_DOC, field={"type": "Fp", "p": 3317044064679887385961981}),
            N3_DOC,
            ["validate"],
            "prime field characteristic 3317044064679887385961981 is too large",
        ),
        (S3_DOC, N3_DOC, ["naive", "--bound", "-1"], "--bound must be a non-negative integer"),
        (S3_DOC, N3_DOC, ["lift", "--bound", "-1"], "--bound must be a non-negative integer"),
        (
            dict(S3_DOC, variables=[{"name": 5, "degree": 1, "d": "a"}]),
            N3_DOC,
            ["validate"],
            "variables[0]: bad generator name 5",
        ),
        (
            dict(S3_DOC, variables=[{"name": [1], "degree": 1, "d": "a"}]),
            N3_DOC,
            ["validate"],
            "variables[0]: bad generator name [1]",
        ),
        (
            S3_DOC,
            dict(N3_DOC, basis=N3_DOC["basis"] + [{"name": 5, "degree": 0}]),
            ["lift", "--bound", "0"],
            "basis: module basis name 5 is not a string",
        ),
        (
            S3_DOC,
            dict(N3_DOC, basis=N3_DOC["basis"] + [{"name": [1], "degree": 0}]),
            ["lift", "--bound", "0"],
            "basis: module basis name [1] is not a string",
        ),
        (
            dict(S3_DOC, field={"type": "Fp", "p": True}),
            N3_DOC,
            ["validate"],
            "Fp field descriptor needs an integer 'p'",
        ),
        (
            dict(S3_DOC, variables=[{"name": "X", "degree": True, "d": "a"}]),
            N3_DOC,
            ["validate"],
            "variables[0].degree: must be an integer",
        ),
        (
            S3_DOC,
            {
                "basis": [{"name": "f0", "degree": False}, {"name": "f1", "degree": True}],
                "differential": {"f1": {"f0": "a"}},
            },
            ["lift", "--bound", "0"],
            "basis[0].degree: must be an integer",
        ),
        (
            dict(S3_DOC, variables=[{"name": "X", "degree": 1, "d": "a^²"}]),
            N3_DOC,
            ["validate"],
            "variables[0]: unexpected character '²' (at position 2)",
        ),
    ],
    ids=[
        "zero-denominator-in-F5",
        "carmichael-p",
        "p-too-large",
        "naive-bound",
        "lift-bound",
        "int-variable-name",
        "list-variable-name",
        "int-basis-name",
        "list-basis-name",
        "bool-prime",
        "bool-variable-degree",
        "bool-basis-degree",
        "superscript-digit",
    ],
)
def test_cli_hostile_inputs_exit_1(tmp_path, capsys, sig_doc, mod_doc, argv, message):
    sig = _write(tmp_path, "sig.json", sig_doc)
    mod = _write(tmp_path, "mod.json", mod_doc)
    extra = ["--mod", mod] if argv[0] in ("naive", "lift") else []
    assert main([argv[0], "--sig", sig, *extra, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
