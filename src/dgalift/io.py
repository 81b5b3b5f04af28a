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
            if not e.is_zero():
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


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as ex:
        raise SchemaError(f"cannot read {path}: {ex}") from ex
    except json.JSONDecodeError as ex:
        raise SchemaError(f"{path} is not valid JSON: {ex}") from ex
    except RecursionError as ex:  # the decoder recurses once per nesting level
        raise SchemaError(f"{path} is nested too deeply to read") from ex


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def dump_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
