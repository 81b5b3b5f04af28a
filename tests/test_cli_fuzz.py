"""Seeded in-process fuzzing of the CLI with hostile documents.

Each case mutates the README example documents (`bench/data/s3.json` and
`bench/data/n3.json`, read only) once or twice and runs one module command
through `cli.main`.  Other cases keep the documents valid but change their
mathematics: the differential conjugated by a unit, one entry doubled so
that it no longer squares to zero, the basis permuted, or a miss rung of
`bench/gen.py` (imported by path) in their place.  Some cases also write
one object of a document with a key repeated.  The contract: a JSON
transcript with exit 0, 2 or 3, or exit 1 with a single line on standard
error; no exception escapes, and each run stays within a time cap.  A
repeated key always gets exit 1, and so does an integer literal longer
than Python converts.
"""

import copy
import json
import random
import signal
import sys
import time
from contextlib import contextmanager
from math import comb
from pathlib import Path

import pytest

from dgalift.cli import main
from dgalift.io import module_from_doc, module_to_doc, signature_from_doc
from dgalift.module import Differential, GradedMap
from dgalift.randgen import rand_unit
from test_corpus import _gen as _corpus_gen

DATA = Path(__file__).resolve().parent.parent / "bench" / "data"
CASES = 200
CAP_S = 10.0

# Junk that `json.dumps` cannot write: an integer past Python's limit on
# converting decimal text (4300 digits by default), put in as a marker and
# spliced into the document's text.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
OVER_LIMIT = "\u0000over-limit\u0000"
OVER_LIMIT_TEXT = "9" * (max(DIGIT_LIMIT, 4300) + 1)
JUNK = [None, True, False, 0, 1, -1, 2.5, 10**30, "", "x", "1/0", [], [1], {}, {"a": 1}, OVER_LIMIT]
BAD_NAMES = ["", "1a", "a b", "a-b", "é", "X", "a", "f0", "_", "n" * 300, 7, None]
BAD_DEGREES = [-3, -1, 0, 1, 2, 3, 99, 10**6, True, 1.5, "1", None, OVER_LIMIT]
BAD_EXPRS = [
    "a + X",          # inhomogeneous
    "a*X",            # wrong sign: d no longer squares to zero
    "X",
    "a^2",
    "a +* X",
    "a^",
    "a^²",
    "(a",
    "1/0",
    "1/2*a",
    "a^99999999",
    "X^(3)",
    "Y",
    "0",
    "",
    "a*a*a*a - a^4",
]
BAD_FIELDS = [
    {"type": "Fp", "p": 4},
    {"type": "Fp", "p": 1},
    {"type": "Fp", "p": -5},
    {"type": "Fp", "p": "5"},
    {"type": "Fp"},
    {"type": "Fp", "p": 2},
    {"type": "Fp", "p": OVER_LIMIT},
    {"type": "Fp", "p": 5},
    {"type": "R"},
    {},
    "Q",
]


def _paths(doc, prefix=()):
    """Every (path to a container, key) in a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix, key
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(sig, mod, rng):
    """One or two hostile edits of (sig, mod), in place: a targeted one,
    a structural one (a key dropped or a value of the wrong JSON type), or
    the first then the second."""
    kind = rng.randrange(8)
    if kind == 0:
        rng.choice(sig["variables"] + mod["basis"])["name"] = rng.choice(BAD_NAMES)
    elif kind == 1:
        rng.choice(sig["variables"] + mod["basis"])["degree"] = rng.choice(BAD_DEGREES)
    elif kind == 2:
        column = rng.choice(["f0", "f1", "f2", "g"])
        row = rng.choice(["f0", "f1", "f2", "g"])
        mod["differential"].setdefault(column, {})[row] = rng.choice(BAD_EXPRS)
    elif kind == 3:
        sig["variables"][0]["d"] = rng.choice(BAD_EXPRS)
    elif kind == 4:
        sig["field"] = copy.deepcopy(rng.choice(BAD_FIELDS))
    if kind < 5 and rng.random() < 0.7:
        return
    doc = rng.choice([sig, mod])
    path, key = rng.choice(list(_paths(doc)))
    parent = _at(doc, path)
    if rng.random() < 0.5:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(rng.choice(JUNK))


def _valid_mutate(sig, mod, rng, gen):
    """One edit that keeps (sig, mod) valid documents but changes their
    mathematics; returns the new pair and the kind of edit."""
    kind = rng.choice(["conjugate", "double", "permute", "miss"])
    if kind == "permute":
        rng.shuffle(mod["basis"])
    elif kind == "miss":
        n, field_key, bound = rng.choice([2, 3]), rng.choice(["q", "f5"]), rng.choice([0, 1])
        name = f"naive-even-{field_key}-r{(1 << n) + 2}-b{bound}-miss"
        sig, mod = gen.rung_docs(rng.randrange(4), name, field_key, n, "even", True)
    else:
        module, d = module_from_doc(mod, signature_from_doc(sig))
        if kind == "conjugate":
            d = d.conjugate(rand_unit(module, rng))
        else:  # double the first entry, in a seeded order, that breaks d o d = 0
            entries = sorted(d.matrix.entries)
            rng.shuffle(entries)
            for key in entries:
                doubled = dict(d.matrix.entries)
                doubled[key] = doubled[key].scale(2)
                twice = Differential(GradedMap(module, -1, doubled))
                if not twice.square_zero:
                    d = twice
                    break
        mod = module_to_doc(module, d)
    return sig, mod, kind


def _repeat_key(doc, rng):
    """The text of `doc` with one key of one of its objects written twice,
    the second time with a junk value, and the repeated key."""
    objects = [()] + [path + (key,) for path, key in _paths(doc)
                      if isinstance(_at(doc, path + (key,)), dict)]
    path = rng.choice([p for p in objects if _at(doc, p)])
    obj = _at(doc, path)
    key = rng.choice(list(obj))
    items = [(k, json.dumps(v)) for k, v in obj.items()]
    items.append((key, json.dumps(rng.choice(JUNK))))
    text = "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in items) + "}"
    if not path:
        return text, key
    marker = "\u0000repeated\u0000"
    parent = copy.deepcopy(doc)
    _at(parent, path[:-1])[path[-1]] = marker
    return json.dumps(parent).replace(json.dumps(marker), text), key


@contextmanager
def _time_cap(seconds):
    """Turn a run longer than `seconds` into a test failure."""

    def expire(signum, frame):
        raise TimeoutError(f"a CLI run exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_cli_fuzz_hostile_documents(tmp_path, capsys):
    base_sig = json.loads((DATA / "s3.json").read_text())
    base_mod = json.loads((DATA / "n3.json").read_text())
    rng = random.Random(2020)
    repeats = random.Random(2021)  # apart from `rng`, which draws the other cases
    valid = random.Random(2022)  # the cases that keep their documents valid
    gen = _corpus_gen()
    codes: dict = {}
    kinds: dict = {}
    repeated = over_limit = 0
    start = time.perf_counter()
    for case in range(CASES):
        sig, mod = copy.deepcopy(base_sig), copy.deepcopy(base_mod)
        kind = None
        if valid.random() < 0.6:
            sig, mod, kind = _valid_mutate(sig, mod, valid, gen)
        else:
            _mutate(sig, mod, rng)
        texts = [json.dumps(sig), json.dumps(mod)]
        dup = None  # the document with a repeated key
        cut = rng.random() < 0.05
        if cut:  # not JSON at all: cut short
            i = rng.randrange(2)
            texts[i] = texts[i][: rng.randrange(len(texts[i]))]
        elif repeats.random() < 0.1:
            dup = repeats.randrange(2)
            texts[dup], key = _repeat_key([sig, mod][dup], repeats)
            repeated += 1
        else:  # where a key is repeated the marker stays a string, so the repeat is refused
            texts = [t.replace(json.dumps(OVER_LIMIT), OVER_LIMIT_TEXT) for t in texts]
        sig_path, mod_path = tmp_path / f"s{case}.json", tmp_path / f"n{case}.json"
        sig_path.write_text(texts[0], encoding="utf-8")
        mod_path.write_text(texts[1], encoding="utf-8")
        command = rng.choice(["lift", "naive", "obstruct", "jop"])
        argv = [command, "--sig", str(sig_path), "--mod", str(mod_path)]
        if command in ("lift", "naive"):
            argv += ["--bound", str(rng.choice([0, 1]))]
        with _time_cap(CAP_S):
            code = main(argv)
        out, err = capsys.readouterr()
        where = f"case {case}: {command} on {texts[0]} / {texts[1]}"
        if dup is not None:
            assert code == 1, where
            if dup == 0:  # the signature is read first, so its error is the one shown
                assert err == f"error: {sig_path} repeats the key {key!r} in one object\n", where
        if not cut and dup is None and OVER_LIMIT_TEXT in texts[0] + texts[1]:
            over_limit += 1
            if DIGIT_LIMIT and OVER_LIMIT_TEXT in texts[0]:
                assert err.startswith(f"error: {sig_path} cannot be read as JSON: Exceeds the limit"), where
        if kind == "double" and not cut and dup is None:  # validate fails on the square
            with _time_cap(CAP_S):
                assert main(["validate", "--sig", str(sig_path), "--mod", str(mod_path)]) == 2, where
            v_out, v_err = capsys.readouterr()
            assert (json.loads(v_out)["verdict"], v_err) == ("fail", ""), where
        if code == 1:
            assert out == "", where
            assert err.count("\n") == 1 and err.endswith("\n"), where
        else:
            assert code in (0, 2, 3), where
            assert isinstance(json.loads(out)["verdict"], str), where
        codes[code] = codes.get(code, 0) + 1
        kinds[kind] = kinds.get(kind, 0) + 1
    assert time.perf_counter() - start < 60
    # the mutations must reach past the parser as well as fail in it
    assert codes.get(1, 0) > CASES // 4 and codes.get(0, 0) + codes.get(3, 0) > 10, codes
    # ... and the valid edits must reach the search, and its inconclusive end
    assert all(codes.get(code, 0) >= 10 for code in (0, 1, 3)), codes
    assert all(kinds.get(kind, 0) >= 10 for kind in ("conjugate", "double", "permute", "miss")), kinds
    assert repeated > 10, repeated
    assert over_limit > 0


HUGE = "a^99999999999"
HUGE_DIVIDED = "X^(99999999999)*X^(99999999999)"
HUGE_DIVIDED_Q = "X^(1000000)*X^(1000000)"
WIDE = 10**400
WIDE_DIVIDED_Q = f"X^({WIDE})*X"
EVEN_F5 = {
    "field": {"type": "Fp", "p": 5},
    "polygens": ["a", "b"],
    "variables": [
        {"name": "W1", "degree": 1, "d": "a"},
        {"name": "W2", "degree": 1, "d": "b"},
        {"name": "X", "degree": 2, "d": "b*W1 - a*W2"},
    ],
}
EVEN_Q = dict(EVEN_F5, field={"type": "Q"})
BIG_P = 10**18 + 3
EVEN_FBIG = dict(EVEN_F5, field={"type": "Fp", "p": BIG_P})
MID_DIVIDED = "X^(300000)*X^(300000)"
HUGE_DIVIDED_FBIG = "X^(99999999999) * X^(99999999999)"


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
@pytest.mark.parametrize(
    "command, expr",
    [("eval", HUGE), ("naive", HUGE), ("lift", HUGE), ("eval", HUGE_DIVIDED), ("eval", HUGE_DIVIDED_Q),
     ("eval", WIDE_DIVIDED_Q), ("eval", MID_DIVIDED), ("eval", HUGE_DIVIDED_FBIG)],
    ids=["eval", "naive", "lift", "eval-divided-F5", "eval-divided-Q", "eval-divided-Q-wide",
         "eval-divided-Fbig", "eval-divided-Fbig-refused"],
)
def test_cli_huge_exponents_finish(tmp_path, capsys, command, expr):
    """A polygen exponent of 10^11, typed or in a module entry, costs what a
    small one does: each run prints its transcript well within the cap.
    The entry sits in the README module (``f2 -> a^N f1 - a^N X f0``), which
    keeps it square-zero and liftable at bound 0, so that `lift` prints it.
    So does a product of two divided powers ``X^(N)`` over F5 (README's even
    signature), whose binomial ``C(2N, N)`` is taken in the field: it is 0,
    because ``N + N`` carries in base 5.  Over Q the binomial
    ``C(2 10^6, 10^6)`` has some 600000 digits, more than Python prints
    (`sys.get_int_max_str_digits`): it is refused before it is computed,
    with exit 1 and one line on standard error.  A 401-digit exponent over
    Q is no such case: ``X^(10^400) X`` has the coefficient ``10^400 + 1``.
    Over ``F_p``, ``p = 10^18 + 3``, ``C(2N, N)`` has one base-``p`` digit:
    ``N = 300000`` is taken mod ``p`` by the product formula (``comb``
    itself runs for seconds), ``N = 10^11`` is past the step limit and is
    refused like the Q case (the blanks around ``*`` tell the two
    expressions apart)."""
    sig_path = str(DATA / "s3.json")
    mod = json.loads((DATA / "n3.json").read_text())
    mod["differential"]["f2"] = {"f1": HUGE, "f0": f"- {HUGE}*X"}
    mod_path = tmp_path / "n3-huge.json"
    mod_path.write_text(json.dumps(mod), encoding="utf-8")
    divided = {HUGE_DIVIDED: EVEN_F5, HUGE_DIVIDED_Q: EVEN_Q, WIDE_DIVIDED_Q: EVEN_Q,
               MID_DIVIDED: EVEN_FBIG, HUGE_DIVIDED_FBIG: EVEN_FBIG}
    if expr in divided:
        sig_path = tmp_path / "s1.json"
        sig_path.write_text(json.dumps(divided[expr]), encoding="utf-8")
        argv = ["eval", "--sig", str(sig_path), expr]
    elif command == "eval":
        argv = ["eval", "--sig", sig_path, HUGE]
    else:
        argv = [command, "--sig", sig_path, "--mod", str(mod_path), "--bound", "0"]
    with _time_cap(CAP_S):
        code = main(argv)
    out, err = capsys.readouterr()
    if expr in (HUGE_DIVIDED_Q, HUGE_DIVIDED_FBIG):
        assert (code, out) == (1, "")
        n = 2000000 if expr == HUGE_DIVIDED_Q else 199999999998
        assert err.startswith(f"error: divided-power coefficient C({n}, {n // 2})")
        assert err.count("\n") == 1 and err.endswith("\n")
        return
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == {"eval": "ok", "naive": "vanishes", "lift": "lifted"}[command]
    if expr == HUGE_DIVIDED:
        assert doc["data"]["result"] == "0"
    elif expr == WIDE_DIVIDED_Q:
        assert doc["data"]["result"] == f"{WIDE + 1}*X^({WIDE + 1})"
    elif expr == MID_DIVIDED:
        coeff, mono = doc["data"]["result"].split("*")
        assert mono == "X^(600000)" and 0 < int(coeff) < BIG_P
    elif command == "naive":
        assert doc["data"]["certificate"] == {"f1": {"f0": "-1"}}
    else:
        assert HUGE in json.dumps(doc["data"])


def test_cli_divided_powers_over_q_print_exact_binomials(tmp_path, capsys):
    """Below the digit limit the Q binomial is exact: ``X^(100) X^(100)`` is
    ``C(200, 100) X^(200)``."""
    sig_path = tmp_path / "s1-q.json"
    sig_path.write_text(json.dumps(EVEN_Q), encoding="utf-8")
    assert main(["eval", "--sig", str(sig_path), "X^(100)*X^(100)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["data"]["result"] == f"{comb(200, 100)}*X^(200)"
    # C(20000, 10000) has 6019 digits, but it cancels and is cheap to compute
    expr = "X^(10000)*X^(10000) - X^(10000)*X^(10000)"
    assert main(["eval", "--sig", str(sig_path), expr]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["result"] == "0"


HUGE_DEGREES = {"basis": [{"name": "e0", "degree": 0}, {"name": "e1", "degree": 10**12}],
                "differential": {}}


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
@pytest.mark.parametrize("command", ["naive", "lift"])
@pytest.mark.parametrize("sig", ["even", "odd"])
def test_cli_huge_basis_degrees_finish(tmp_path, capsys, sig, command):
    """Basis degrees 0 and 10^12 with no differential: the search has
    bands of degree about 10^12, which hold a few monomials each, so `naive`
    and `lift` finish at once with the zero certificate.  Over README's
    even signature the band enumeration used to try every exponent of the
    even variable ``X`` (5 * 10^11 of them)."""
    sig_path = DATA / "s3.json"
    if sig == "even":
        sig_path = tmp_path / "even-q.json"
        sig_path.write_text(json.dumps(EVEN_Q), encoding="utf-8")
    mod_path = tmp_path / "huge-degrees.json"
    mod_path.write_text(json.dumps(HUGE_DEGREES), encoding="utf-8")
    argv = [command, "--sig", str(sig_path), "--mod", str(mod_path), "--bound", "0"]
    with _time_cap(CAP_S):
        code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["verdict"] == {"naive": "vanishes", "lift": "lifted"}[command]
    assert doc["data"]["certificate"] == {}
