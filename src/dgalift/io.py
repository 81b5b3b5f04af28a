"""Reading and writing the signature / module document formats.

Signature document:

    {"field": {"type": "Q"} | {"type": "Fp", "p": 5},
     "polygens": ["a", "b"],
     "variables": [{"name": "W1", "degree": 1, "d": "a"}, ...]}

Module document (over a given signature):

    {"basis": [{"name": "e0", "degree": 0}, ...],
     "differential": {"e1": {"e0": "X + W1*W2"}}}

``differential`` is column-major: the value of the differential on the
column basis element is the sum of row elements times the entries.
Schema problems are reported with the offending location.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .algebra import Signature, format_expr
from .errors import DgaliftError, SchemaError
from .field import field_from_doc
from .module import Differential, FreeModule, GradedMap


def _fail(loc: str, msg: str):
    raise SchemaError(f"{loc}: {msg}")


def signature_from_doc(doc: dict) -> Signature:
    if not isinstance(doc, dict):
        _fail("$", "signature document must be an object")
    for key in ("field", "polygens", "variables"):
        if key not in doc:
            _fail("$", f"missing key {key!r}")
    field = field_from_doc(doc["field"])
    polygens = doc["polygens"]
    if not isinstance(polygens, list) or not all(isinstance(p, str) for p in polygens):
        _fail("polygens", "must be a list of names")
    sig = Signature(field, polygens)
    variables = doc["variables"]
    if not isinstance(variables, list):
        _fail("variables", "must be a list")
    for i, v in enumerate(variables):
        loc = f"variables[{i}]"
        if not isinstance(v, dict):
            _fail(loc, "must be an object")
        for key in ("name", "degree", "d"):
            if key not in v:
                _fail(loc, f"missing key {key!r}")
        if isinstance(v["degree"], bool) or not isinstance(v["degree"], int):
            _fail(f"{loc}.degree", "must be an integer")
        if not isinstance(v["d"], str):
            _fail(f"{loc}.d", "must be an expression string")
        try:
            sig = sig.adjoin(v["name"], v["degree"], v["d"])
        except DgaliftError as ex:
            _fail(f"{loc}", str(ex))
    return sig


def signature_to_doc(sig: Signature) -> dict:
    return {
        "field": sig.field.to_doc(),
        "polygens": list(sig.polygens),
        "variables": [
            {"name": v.name, "degree": v.degree, "d": format_expr(v.diff)}
            for v in sig.variables
        ],
    }


def module_from_doc(doc: dict, sig: Signature):
    if not isinstance(doc, dict):
        _fail("$", "module document must be an object")
    if "basis" not in doc:
        _fail("$", "missing key 'basis'")
    basis = doc["basis"]
    if not isinstance(basis, list) or not basis:
        _fail("basis", "must be a non-empty list")
    pairs = []
    for i, b in enumerate(basis):
        loc = f"basis[{i}]"
        if not isinstance(b, dict) or "name" not in b or "degree" not in b:
            _fail(loc, "must be an object with 'name' and 'degree'")
        if isinstance(b["degree"], bool) or not isinstance(b["degree"], int):
            _fail(f"{loc}.degree", "must be an integer")
        pairs.append((b["name"], b["degree"]))
    try:
        module = FreeModule(sig, pairs)
    except DgaliftError as ex:
        _fail("basis", str(ex))
    entries = {}
    # each distinct text is parsed once; entries may share an element, as
    # nothing changes an element's terms in place
    parsed: dict = {}  # text -> element
    dmat = doc.get("differential", {})
    if not isinstance(dmat, dict):
        _fail("differential", "must be an object keyed by column names")
    index = module._index

    def fail_at(msg: str, *names):  # the location is built only on failure
        _fail("differential" + "".join(f"[{n!r}]" for n in names), msg)

    for col_name, col in dmat.items():
        c = index.get(col_name)
        if c is None:
            fail_at("unknown column basis name", col_name)
        if not isinstance(col, dict):
            fail_at("must be an object keyed by row names", col_name)
        for row_name, text in col.items():
            r = index.get(row_name)
            if r is None:
                fail_at("unknown row basis name", col_name, row_name)
            if not isinstance(text, str):
                fail_at("must be an expression string", col_name, row_name)
            e = parsed.get(text)
            if e is None:
                try:
                    e = parsed[text] = sig.parse(text)
                except DgaliftError as ex:
                    fail_at(str(ex), col_name, row_name)
            entries[(r, c)] = e
    try:
        matrix = GradedMap(module, -1, entries)
    except DgaliftError as ex:
        _fail("differential", str(ex))
    return module, Differential(matrix)


def matrix_to_doc(m: GradedMap) -> dict:
    """Column-major expression map; empty columns are omitted."""
    names = m.module.names
    out: dict = {}
    for (r, c), e in sorted(m.entries.items()):
        out.setdefault(names[c], {})[names[r]] = format_expr(e)
    return out


def module_to_doc(module: FreeModule, d: Optional[Differential] = None) -> dict:
    doc = {
        "basis": [
            {"name": n, "degree": deg}
            for n, deg in zip(module.names, module.degrees)
        ]
    }
    if d is not None:
        doc["differential"] = matrix_to_doc(d.matrix)
    return doc


def load_json(path: str) -> tuple:
    """The JSON document in the file at `path` and the `file_digest` of its
    bytes, read once.  The bytes are decoded as UTF-8 with universal
    newlines, as a text-mode read of the file would give them to `json`.
    Bytes that are not UTF-8, and an integer longer than Python converts,
    are refused with the path named.  An object that repeats a key is
    refused; `json` would keep the last."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as ex:
        raise SchemaError(f"cannot read {path}: {ex}") from ex
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as ex:
        raise SchemaError(f"{path} is not UTF-8 text: {ex}") from ex
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen: set = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise SchemaError(f"{path} repeats the key {key!r} in one object")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys), file_digest(raw)
    except json.JSONDecodeError as ex:
        raise SchemaError(f"{path} is not valid JSON: {ex}") from ex
    except ValueError as ex:  # an integer literal past Python's digit limit
        raise SchemaError(f"{path} cannot be read as JSON: {ex}") from ex
    except RecursionError as ex:  # the decoder recurses once per nesting level
        raise SchemaError(f"{path} is nested too deeply to read") from ex


def file_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def dump_canonical(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, character for
    character, for documents of str-keyed dicts, lists, str, int, float,
    bool and None.  With `indent` set, `json` runs its pure-Python
    encoder; this writer does the same walk with less per-value dispatch."""
    out: list = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(obj, out: list, nl: str) -> None:
    """Append the text of `obj`, indented by `nl` (a newline and the
    current indentation), to `out`."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + _quote(key) + ": ")
            _write(obj[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif obj is None or obj is True or obj is False:
        out.append(_CONSTANTS[obj])
    else:  # a number, or json's TypeError for what it cannot write
        out.append(json.dumps(obj))


_CONSTANTS = {None: "null", True: "true", False: "false"}
