"""The transcript corpus: the same inputs give the same transcripts.

`naive` and `lift` run on every `decide-large` and `lift-small` input of
benchmark seeds 0-3 (generated by `bench/gen.py`, imported by path) and on
the README example.  The digest of each run covers the exit code and the
transcript's `verdict`, `data` and `params`, not `timing_ms` or the input
paths, and must equal the one recorded in `corpus.json`.  Each
transcript's text must also be, byte for byte, what
``json.dumps(..., indent=2, sort_keys=True)`` writes for it.

Re-record after a change that is meant to move a transcript, and say in
CHANGES.md which ones moved and why:

    PYTHONPATH=src python tests/test_corpus.py --write
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from dgalift.cli import main
from dgalift.module import Differential

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "corpus.json"
SEEDS = range(4)
COMMANDS = ("naive", "lift")


def _gen():
    spec = importlib.util.spec_from_file_location("_bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up there
    spec.loader.exec_module(gen)
    return gen


def _inputs(workdir: str):
    """``(key, sig path, mod path, bound)`` for every input of the corpus."""
    gen = _gen()
    ops = [("readme", gen.readme_op())]
    for seed in SEEDS:
        # the file names carry no seed: one directory per seed
        seed_dir = Path(workdir) / str(seed)
        seed_dir.mkdir()
        ops += [(f"{seed}:{op.name}", op) for op in gen.decide_large(seed, str(seed_dir))]
        ops += [(f"{seed}:{op.name}", op) for op in gen.lift_small(seed, str(seed_dir))[1:]]
    for key, op in ops:
        args = dict(zip(op.argv[1::2], op.argv[2::2]))
        yield key, args["--sig"], args["--mod"], args["--bound"]


def _digest(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    transcript = json.loads(text)
    # the CLI writes the text json's own indented, key-sorted encoder gives
    assert text == json.dumps(transcript, indent=2, sort_keys=True) + "\n", argv
    kept = {k: transcript.get(k) for k in ("verdict", "data", "params")}
    kept["exit"] = code
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def record(workdir: str) -> dict:
    return {
        f"{key}:{command}": _digest([command, "--sig", sig, "--mod", mod, "--bound", bound])
        for key, sig, mod, bound in _inputs(workdir)
        for command in COMMANDS
    }


def test_transcripts_match_the_corpus(tmp_path):
    want = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = record(str(tmp_path))
    assert len(got) == 426
    assert got.keys() == want.keys()
    assert [k for k in got if got[k] != want[k]] == []


def test_lift_never_conjugates(tmp_path, monkeypatch):
    """`lift` builds the lifted differential in closed form: with
    `Differential.conjugate` raising, the README example and the even
    rank-16 Koszul rung of seed 0 (bound 1) still exit 0 with their
    recorded transcripts.  The rung is generated before the patch, since
    `bench/gen.py` conjugates to draw it."""
    gen = _gen()
    ops = {"readme": gen.readme_op()}
    ops.update((f"0:{op.name}", op) for op in gen.decide_large(0, str(tmp_path)))
    want = json.loads(CORPUS.read_text(encoding="utf-8"))

    def refuse(*_):
        raise AssertionError("Differential.conjugate called")

    monkeypatch.setattr(Differential, "conjugate", refuse)
    for key in ("readme", "0:naive-even-q-r16-b1"):
        args = dict(zip(ops[key].argv[1::2], ops[key].argv[2::2]))
        argv = ["lift", "--sig", args["--sig"], "--mod", args["--mod"], "--bound", args["--bound"]]
        assert _digest(argv) == want[f"{key}:lift"], key


def test_lift_never_inverts(tmp_path, monkeypatch):
    """`lift` checks its lift without inverting the basis change or
    squaring the lifted differential.  With `invert_unit` and the flat
    solve `_invert_flat` refusing in `dgalift.module`, the README example
    (odd) and the even rank-16 Koszul rung of seed 0 (bound 1) still exit
    0 with their recorded transcripts, and each run computes one square,
    that of its input: `twofold_extension` stores the doubled one in
    closed form.
    The rung is generated before the patch, since `bench/gen.py` inverts
    to draw it."""
    gen = _gen()
    ops = {"readme": gen.readme_op()}
    ops.update((f"0:{op.name}", op) for op in gen.decide_large(0, str(tmp_path)))
    want = json.loads(CORPUS.read_text(encoding="utf-8"))

    def refuse(*_):
        raise AssertionError("invert_unit called")

    monkeypatch.setattr("dgalift.module.invert_unit", refuse)
    monkeypatch.setattr("dgalift.module._invert_flat", refuse)
    squared = []
    square = Differential.square

    def counted(self):
        if self._square is None:
            squared.append(self.module.rank)
        return square(self)

    monkeypatch.setattr(Differential, "square", counted)
    for key, rank in (("readme", 3), ("0:naive-even-q-r16-b1", 16)):
        squared.clear()
        args = dict(zip(ops[key].argv[1::2], ops[key].argv[2::2]))
        argv = ["lift", "--sig", args["--sig"], "--mod", args["--mod"], "--bound", args["--bound"]]
        assert _digest(argv) == want[f"{key}:lift"], key
        assert squared == [rank], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        CORPUS.write_text(json.dumps(record(tmp), indent=1, sort_keys=True) + "\n", encoding="utf-8")
