import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys

import pytest

from dgalift.cli import main
from dgalift.errors import SchemaError
from dgalift.field import QQ, PrimeField
from dgalift.io import (
    dump_canonical,
    load_json,
    matrix_to_doc,
    module_from_doc,
    module_to_doc,
    signature_from_doc,
    signature_to_doc,
)
from dgalift.lift import construct_lift_even, construct_lift_odd, decide_naive_lift
from dgalift.module import invert_unit
from dgalift.randgen import FixturePool, rand_unit
from dgalift.tensor import NaiveTensor, odd_ses, verify_splitting
from oracles import odd_coefficient_module
from test_cli_fuzz import CAP_S, _time_cap
from test_corpus import _gen as _corpus_gen

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
    """Write `doc` as JSON, or as it is when it is already text."""
    p = tmp_path / name
    p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
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


@pytest.mark.parametrize(
    "differential, message",
    [
        ({"g": {"f0": "a"}}, "differential['g']: unknown column basis name"),
        ({"f1": ["a"]}, "differential['f1']: must be an object keyed by row names"),
        ({"f1": {"g": "a"}}, "differential['f1']['g']: unknown row basis name"),
        ({"f1": {"f0": 3}}, "differential['f1']['f0']: must be an expression string"),
        (
            {"f1": {"f0": "a +"}},
            "differential['f1']['f0']: expected a generator name, found 'end of input' (at position 3)",
        ),
        ({"f1": {"f0": "a*X"}}, "differential: entry (f0,f1) must be homogeneous of degree 0"),
        ({"f2": {"f1": "a", "'q\"": "a"}}, "differential['f2']['\\'q\"']: unknown row basis name"),
    ],
)
def test_module_entry_errors_name_their_location(S3, differential, message):
    """Each failing entry of a module document is reported at its column
    and row, quoted by `repr`, with the text these messages have always had."""
    with pytest.raises(SchemaError) as info:
        module_from_doc({"basis": N3_DOC["basis"], "differential": differential}, S3)
    assert str(info.value) == message


def test_module_entries_parse_each_text_once(S3, monkeypatch):
    """Entries with the same text share one parsed element (nothing changes
    an element in place), and a bad text that occurs twice is reported at
    its first location in document order."""
    import dgalift.parser

    calls = []
    parse = dgalift.parser.parse_expr
    monkeypatch.setattr(dgalift.parser, "parse_expr", lambda *a: calls.append(a[0]) or parse(*a))
    module, d = module_from_doc(N3_DOC, S3)
    assert calls == ["a", "- a*X"]
    assert d.matrix.entries[0, 1] is d.matrix.entries[1, 2]
    assert d.square_zero and d.matrix.entries[0, 1] == S3.parse("a")
    bad = {"basis": N3_DOC["basis"], "differential": {"f1": {"f0": "a +"}, "f2": {"f1": "a +"}}}
    with pytest.raises(SchemaError, match=r"^differential\['f1'\]\['f0'\]: "):
        module_from_doc(bad, S3)


def test_matrix_doc_is_column_major(S3):
    module, d = module_from_doc(N3_DOC, S3)
    doc = matrix_to_doc(d.matrix)
    assert doc["f1"] == {"f0": "a"}
    assert set(doc["f2"]) == {"f0", "f1"}


# -- command line ----------------------------------------------------------------


_CRAFTED = [
    {},
    [],
    {"empty": {}, "nothing": [], "none": None},
    [[], [[]], [[1, [2, {}]], []], {"a": []}],
    {"yes": True, "no": False, "flags": [True, False, None]},
    {"ints": [0, -1, 7, -(10**30), 10**300, 2**63]},
    {"timing_ms": 12.345, "small": 1e-07, "big": 1e22, "neg": -0.0, "half": 0.5, "special": [float("inf"), float("-inf")]},
    {"\u00e9t\u00e9": "na\u00efve \u65e5\u672c \U0001f600", "z": "\"quoted\" \\ back", "ctl": "\n\t\r\b\f\x00\x1f\x7f"},
    {"b": 1, "a": 2, "B": 3, "\u00e4": 4, "aa": 5, "a b": 6, "": 7, "\n": 8},
    ("tuple", ["inside", ("nested",)]),
    "just a string",
    -5,
    None,
]


@pytest.mark.parametrize("doc", _CRAFTED)
def test_canonical_writer_matches_json(doc):
    assert dump_canonical(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_canonical_writer_matches_json_on_nan():
    assert dump_canonical([float("nan")]) == json.dumps([float("nan")], indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{"a": {1, 2}}, [object()], {"x": [b"bytes"]}])
def test_canonical_writer_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError) as json_error:
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as writer_error:
        dump_canonical(doc)
    assert str(writer_error.value) == str(json_error.value)


@pytest.mark.parametrize(
    "raw",
    [
        b'{"a": 1}',
        b'{"a":\r\n 1,\r "b": [2]}\r\n',
        b'{"a": "x\r\ny"}',
        b'{"a": "x\ry"}',
        b'{"a":\r\n 1,\r "b" 2}',
        b"\xef\xbb\xbf{}",
        b'{"\xc3\xa9": "\xe6\x97\xa5"}',
        b"{\xff}",
        b"",
    ],
)
def test_load_json_reads_what_a_text_read_gives_json(tmp_path, raw):
    """`load_json` reads the bytes once; the document, or the error, must
    be the one a text-mode `json.load` of the file gives, and the digest
    that of the bytes.  Either error is a `SchemaError` naming the path."""
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    try:
        with open(path, encoding="utf-8") as fh:
            want = json.load(fh), hashlib.sha256(raw).hexdigest()
    except json.JSONDecodeError as ex:
        want = SchemaError(f"{path} is not valid JSON: {ex}")
    except UnicodeDecodeError as ex:
        want = SchemaError(f"{path} is not UTF-8 text: {ex}")
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as got:
            load_json(str(path))
        assert str(got.value) == str(want)
    else:
        assert load_json(str(path)) == want


@pytest.mark.parametrize("flag", ["--sig", "--mod"])
def test_cli_non_utf8_input_names_its_file(tmp_path, capsys, flag):
    """A Latin-1 ``é`` in either input exits 1 with an error that names the
    file, not the codec's message alone."""
    paths = {"--sig": _write(tmp_path, "sig.json", S3_DOC), "--mod": _write(tmp_path, "mod.json", N3_DOC)}
    if flag == "--sig":
        doc = dict(S3_DOC, polygens=["\u00e9"])
    else:
        doc = dict(N3_DOC, basis=[{"name": "\u00e9", "degree": 0}], differential={})
    bad = tmp_path / "latin1.json"
    bad.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
    paths[flag] = str(bad)
    assert main(["validate", "--sig", paths["--sig"], "--mod", paths["--mod"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad} is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="needs a limit on int digits")
@pytest.mark.parametrize("flag", ["--sig", "--mod"])
def test_cli_over_limit_integer_names_its_file(tmp_path, capsys, flag):
    """An integer literal longer than Python converts, as a signature's
    ``p`` or a basis degree, exits 1 with an error that names the file.
    `json.dumps` cannot write such an int, so the text is written as is."""
    if not sys.get_int_max_str_digits():
        pytest.skip("int digits unlimited in this process")
    digits = "1" + "0" * sys.get_int_max_str_digits()
    with pytest.raises(ValueError) as cause:
        int(digits)
    paths = {"--sig": _write(tmp_path, "sig.json", S3_DOC), "--mod": _write(tmp_path, "mod.json", N3_DOC)}
    if flag == "--sig":
        text = '{"field": {"type": "Fp", "p": %s}, "polygens": ["a"], "variables": []}' % digits
    else:
        text = '{"basis": [{"name": "e", "degree": %s}], "differential": {}}' % digits
    paths[flag] = _write(tmp_path, "long-int.json", text)
    assert main(["validate", "--sig", paths["--sig"], "--mod", paths["--mod"]]) == 1
    assert capsys.readouterr() == ("", f"error: {paths[flag]} cannot be read as JSON: {cause.value}\n")


def test_cli_opens_each_input_once(tmp_path, capsys, monkeypatch):
    sig, mod = _write(tmp_path, "s.json", S3_DOC), _write(tmp_path, "n.json", N3_DOC)
    opened = []
    real_open = open
    monkeypatch.setattr("builtins.open", lambda path, *a, **k: opened.append(str(path)) or real_open(path, *a, **k))
    assert main(["naive", "--sig", sig, "--mod", mod, "--bound", "0"]) == 0
    monkeypatch.undo()
    assert sorted(opened) == sorted([sig, mod])
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    for key, path in (("sig", sig), ("mod", mod)):
        with open(path, "rb") as fh:
            assert inputs[key] == {"path": path, "sha256": hashlib.sha256(fh.read()).hexdigest()}


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


def _transcript(capsys, argv):
    """Exit code, transcript without `timing_ms` (None when nothing was
    printed) and standard error of an in-process run."""
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out else None
    if out is not None:
        out.pop("timing_ms", None)
    return code, out, captured.err


@pytest.mark.parametrize(
    "command, options, expr",
    [
        ("eval", [], "X^(2)*X^(3)"),
        ("eval", [], "a*W1 + b*W2 - 3"),
        ("eval", [], "X^(2"),
        ("diff", [], "X*W1"),
        ("derive", ["--var", "X"], "a*X^(2)*W1 + b*W2"),
    ],
)
def test_cli_expression_from_stdin_matches_argv(tmp_path, capsys, monkeypatch, command, options, expr):
    """An expression given as ``-`` is read from standard input, without
    its trailing line break, and gives the transcript and exit code of the
    same text given as the argument (a syntax error included)."""
    sig = _write(tmp_path, "sig.json", S1_DOC)
    want = _transcript(capsys, [command, "--sig", sig, *options, expr])
    monkeypatch.setattr(sys, "stdin", io.StringIO(expr + "\n"))
    assert _transcript(capsys, [command, "--sig", sig, *options, "-"]) == want


def test_cli_eval_reads_a_sum_past_the_argument_limit_from_stdin(tmp_path, capsys):
    """A 12 000-term sum, about 150 KB, is longer than one command-line
    argument may be (128 KiB on Linux); piped into ``eval -`` it reaches
    the parser and gives the transcript of the same text passed to `main`
    in-process as an argument."""
    sig = _write(tmp_path, "sig.json", S3_DOC)
    text = " + ".join(f"{i}*a^{i}" for i in range(1, 12_001))
    assert len(text.encode()) > 128 * 1024
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, "-m", "dgalift.cli", "eval", "--sig", sig, "-"],
        input=text + "\n", env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    got.pop("timing_ms")
    assert (0, got, "") == _transcript(capsys, ["eval", "--sig", sig, text])
    assert got["data"]["input"] == text


@pytest.mark.parametrize(
    "command, name, n, verdict",
    [("naive", "naive-odd-q-r256-b0", 8, "vanishes"), ("lift", "lift-odd-q-r128-b0", 7, "lifted")],
    ids=["naive-rank-256", "lift-rank-128"],
)
def test_cli_large_odd_rungs_finish(tmp_path, command, name, n, verdict):
    """`naive` on the odd Q Koszul rung of rank 256 (19448 unknowns) and
    `lift` on the one of rank 128, as `bench/gen.py` draws them for seed 0,
    at bound 0: ranks no benchmark workload reaches.  Each runs in a fresh
    process under the 20-s limit CI gives it, and the lift passes all three
    checks."""
    sig_doc, mod_doc = _corpus_gen().rung_docs(0, name, "q", n, "odd", False)
    argv = [command, "--sig", _write(tmp_path, "sig.json", sig_doc)]
    argv += ["--mod", _write(tmp_path, "mod.json", mod_doc), "--bound", "0"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, "-m", "dgalift.cli", *argv],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert (run.returncode, run.stderr) == (0, "")
    doc = json.loads(run.stdout)
    assert doc["verdict"] == verdict
    if command == "lift":
        assert doc["data"]["verification"] == {"lift": True, "sequence": True, "splitting": True}


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
    equals `verify_splitting` on the same lift, and for an odd variable the
    ``sequence`` flag equals `OddSequence.check`: the README example's
    module, a module whose X-coefficient has odd degree, and seeded
    conjugated fixtures of both parities."""
    pool = FixturePool(field)
    rng = random.Random(19)
    cases = [(pool.N3, pool.d3, 0), (*odd_coefficient_module(field), 0)]
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
        if lift.parity == "odd":
            ses = odd_ses(mod, d, var)
            assert out["data"]["verification"]["sequence"] is ses.check().passed
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


NK_DOC = {
    "basis": [
        {"name": "k0", "degree": 0},
        {"name": "k1", "degree": 1},
        {"name": "k2", "degree": 1},
        {"name": "k3", "degree": 2},
    ],
    "differential": {"k1": {"k0": "a"}, "k2": {"k0": "b"}, "k3": {"k1": "b", "k2": "-a"}},
}
NONZERO_SQUARE_DOC = {
    "basis": [{"name": "e0", "degree": 0}, {"name": "e1", "degree": 2}],
    "differential": {"e1": {"e0": "X"}},
}


@pytest.mark.parametrize(
    "sig_doc, mod_doc, argv, verdict, code, keys, timed",
    [
        (S3_DOC, None, ["validate"], "pass", 0, {"inputs"}, True),
        (S3_DOC, NONZERO_SQUARE_DOC, ["validate"], "fail", 1, {"inputs"}, False),
        (S1_DOC, None, ["eval", "X^(2)*X^(3)"], "ok", 0, {"inputs"}, True),
        (S1_DOC, None, ["diff", "X"], "ok", 0, {"inputs"}, True),
        (S2_DOC, None, ["derive", "--var", "X1", "c*X1"], "ok", 0, {"inputs"}, True),
        (
            S3_DOC,
            None,
            ["tate", "--name", "Y", "--degree", "1", "--cycle", "a"],
            "ok",
            0,
            {"inputs"},
            True,
        ),
        (S3_DOC, N3_DOC, ["jop"], "ok", 0, {"inputs", "params"}, True),
        (S3_DOC, N3_DOC, ["obstruct"], "ok", 0, {"inputs", "params"}, True),
        (S3_DOC, N3_DOC, ["naive", "--bound", "0"], "vanishes", 0, {"inputs", "params"}, True),
        (
            S1_DOC,
            N1_DOC,
            ["naive", "--bound", "1"],
            "inconclusive",
            3,
            {"inputs", "params"},
            True,
        ),
        (S3_DOC, N3_DOC, ["lift", "--bound", "0"], "lifted", 0, {"inputs", "params"}, True),
        (S1_DOC, NK_DOC, ["lift", "--bound", "0"], "lifted", 0, {"inputs", "params"}, True),
        (None, None, ["selftest", "--seed", "0", "--iters", "2"], "pass", 0, {"params"}, False),
    ],
    ids=[
        "validate-pass",
        "validate-fail",
        "eval",
        "diff",
        "derive",
        "tate",
        "jop",
        "obstruct",
        "naive-vanishes",
        "naive-inconclusive",
        "lift-odd",
        "lift-even",
        "selftest",
    ],
)
def test_cli_transcript_shape(
    tmp_path, capsys, sig_doc, mod_doc, argv, verdict, code, keys, timed
):
    """Every command and outcome: the top-level keys of the transcript, its
    verdict, the exit code, and whether it carries ``timing_ms`` (never
    for selftest, whose transcript is a function of the seed, nor for an
    input that validate rejects)."""
    extra = []
    if sig_doc is not None:
        extra += ["--sig", _write(tmp_path, "sig.json", sig_doc)]
    if mod_doc is not None:
        extra += ["--mod", _write(tmp_path, "mod.json", mod_doc)]
    assert main([argv[0], *extra, *argv[1:]]) == code
    out = json.loads(capsys.readouterr().out)
    assert out["command"] == argv[0]
    assert out["verdict"] == verdict
    want = {"tool", "command", "verdict", "data"} | keys | ({"timing_ms"} if timed else set())
    assert set(out) == want


# JSON text nested 10^5 deep, past the decoder's recursion limit
_DEEP_LIST = "[" * 10**5 + "]" * 10**5
_DEEP_OBJECT = '{"a":' * 10**5 + "0" + "}" * 10**5
# one key written twice in one object: `json` alone keeps the last value, and
# each of these would then read as a valid document
_REPEATED_SIG = json.dumps(S3_DOC)[:-1] + ', "polygens": ["b"]}'
_REPEATED_COLUMN = json.dumps(N3_DOC).replace('"f2": {', '"f1": {"f0": "a"}, "f2": {')
_REPEATED_ROW = json.dumps(N3_DOC).replace('"f0": "- a*X"', '"f0": "- a*X", "f1": "a"')
_REPEATED_DEGREE = json.dumps(N3_DOC).replace('"degree": 0', '"degree": 0, "degree": 0')
# a decimal literal longer than int() reads, where it has a limit
_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_NINES = "9" * max(5000, _INT_LIMIT + 1)
_NO_INT_LIMIT = pytest.mark.skipif(not _INT_LIMIT, reason="int() reads integers of any length here")


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
        (None, None, ["selftest", "--iters", "-2"], "--iters must be a positive integer"),
        (None, None, ["selftest", "--iters", "0"], "--iters must be a positive integer"),
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
        (_DEEP_LIST, N3_DOC, ["validate"], "{tmp}/sig.json is nested too deeply to read"),
        (_DEEP_OBJECT, N3_DOC, ["validate"], "{tmp}/sig.json is nested too deeply to read"),
        (S3_DOC, _DEEP_LIST, ["naive"], "{tmp}/mod.json is nested too deeply to read"),
        (S3_DOC, _DEEP_OBJECT, ["lift"], "{tmp}/mod.json is nested too deeply to read"),
        (_REPEATED_SIG, N3_DOC, ["validate"], "{tmp}/sig.json repeats the key 'polygens' in one object"),
        (S3_DOC, _REPEATED_COLUMN, ["naive"], "{tmp}/mod.json repeats the key 'f1' in one object"),
        (S3_DOC, _REPEATED_ROW, ["lift"], "{tmp}/mod.json repeats the key 'f1' in one object"),
        (S3_DOC, _REPEATED_DEGREE, ["naive"], "{tmp}/mod.json repeats the key 'degree' in one object"),
        pytest.param(
            S3_DOC,
            N3_DOC,
            ["eval", _NINES + "*a"],
            f"integer literal of {len(_NINES)} digits is too long (at position 0)",
            marks=_NO_INT_LIMIT,
        ),
        pytest.param(
            S3_DOC,
            dict(N3_DOC, differential={"f1": {"f0": "a^" + _NINES}}),
            ["naive", "--bound", "0"],
            f"differential['f1']['f0']: integer literal of {len(_NINES)} digits is too long"
            " (at position 2)",
            marks=_NO_INT_LIMIT,
        ),
    ],
    ids=[
        "zero-denominator-in-F5",
        "carmichael-p",
        "p-too-large",
        "naive-bound",
        "lift-bound",
        "selftest-negative-iters",
        "selftest-zero-iters",
        "int-variable-name",
        "list-variable-name",
        "int-basis-name",
        "list-basis-name",
        "bool-prime",
        "bool-variable-degree",
        "bool-basis-degree",
        "superscript-digit",
        "deep-list-sig",
        "deep-object-sig",
        "deep-list-mod",
        "deep-object-mod",
        "repeated-sig-key",
        "repeated-column",
        "repeated-row",
        "repeated-basis-key",
        "oversized-coefficient",
        "oversized-exponent-in-module",
    ],
)
def test_cli_hostile_inputs_exit_1(tmp_path, capsys, sig_doc, mod_doc, argv, message):
    extra = []
    if sig_doc is not None:
        extra += ["--sig", _write(tmp_path, "sig.json", sig_doc)]
    if argv[0] in ("naive", "lift"):
        extra += ["--mod", _write(tmp_path, "mod.json", mod_doc)]
    assert main([argv[0], *extra, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.replace('{tmp}', str(tmp_path))}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["naive", "--sig", "{sig}"], "the following arguments are required: --mod"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["naive", "--sig", "{sig}", "--mod", "{mod}", "--bound", "x"], "invalid int value: 'x'"),
    ],
    ids=["missing-mod", "unknown-command", "bound-not-int"],
)
def test_cli_usage_errors_exit_1(tmp_path, capsys, argv, message):
    """A command line argparse rejects is bad input: exit 1, not argparse's
    2, which the exit-code table reserves for a failed verification, with
    nothing on stdout and argparse's usage message on stderr."""
    sig, mod = _write(tmp_path, "sig.json", S3_DOC), _write(tmp_path, "mod.json", N3_DOC)
    paths = {"{sig}": sig, "{mod}": mod}
    assert main([paths.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: dgalift") and message in captured.err


def test_cli_help_exits_0(capsys):
    """``--help`` still prints the usage on stdout and exits 0."""
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: dgalift")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
@pytest.mark.parametrize("command", ["naive", "lift"])
@pytest.mark.parametrize("degree", [2 * 10**6, 10**12])
def test_cli_zero_obstruction_over_two_even_variables_finishes(tmp_path, capsys, command, degree):
    """README's even signature plus ``Y | dY = b*W1 - a*W2``, and basis
    degrees 0 and `degree` with no differential: the obstruction is 0, so
    `naive` and `lift` answer at once with the empty certificate, where a
    search would enumerate a band of about ``degree / 2`` monomials in
    ``X`` and ``Y``."""
    y = {"name": "Y", "degree": 2, "d": "b*W1 - a*W2"}
    sig_doc = dict(S1_DOC, variables=S1_DOC["variables"] + [y])
    basis = [{"name": "e0", "degree": 0}, {"name": "e1", "degree": degree}]
    mod_doc = {"basis": basis, "differential": {}}
    argv = [command, "--sig", _write(tmp_path, "sig.json", sig_doc)]
    argv += ["--mod", _write(tmp_path, "mod.json", mod_doc), "--bound", "0"]
    with _time_cap(CAP_S):
        code, doc, err = _transcript(capsys, argv)
    assert (code, err) == (0, "")
    assert doc["params"]["var"] == "Y" and doc["data"]["certificate"] == {}
    if command == "naive":
        assert doc["verdict"] == "vanishes"
    else:
        assert doc["verdict"] == "lifted" and doc["data"]["verification"]["lift"] is True
