"""Tests of the benchmark's own code: generators, checks and tracing.

    python3 -m pytest bench -q
"""

import json
import os
import random

import pytest

import gen
import run
import tracer
from dgalift import algebra, lift, module, solver
from dgalift.io import module_from_doc, signature_from_doc
from dgalift.lift import decide_naive_lift


def _files(workdir):
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("make", [gen.decide_large, gen.lift_small])
def test_cli_generators_are_deterministic_per_seed(tmp_path, make):
    docs = []
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        workdir = tmp_path / sub
        workdir.mkdir()
        ops = make(seed, str(workdir))
        docs.append(([(op.name, op.expect) for op in ops], _files(workdir)))
    assert docs[0] == docs[1]
    assert docs[0][0] == docs[2][0]
    assert docs[0][1] != docs[2][1]


def test_identity_generator_is_deterministic_per_seed():
    assert gen.identities(3) == gen.identities(3)
    assert gen.identities(3) != gen.identities(4)
    assert len({op.seed for op in gen.identities(3)}) == gen.IDENTITY_ROUNDS


def _load(op):
    argv = list(op.argv)
    with open(argv[argv.index("--sig") + 1], encoding="utf-8") as fh:
        sig = signature_from_doc(json.load(fh))
    with open(argv[argv.index("--mod") + 1], encoding="utf-8") as fh:
        return module_from_doc(json.load(fh), sig)


@pytest.mark.parametrize("make", [gen.decide_large, gen.lift_small])
def test_generated_differentials_square_to_zero(tmp_path, make):
    for op in make(1, str(tmp_path)):
        _, d = _load(op)
        assert d.square_zero, op.name
        assert not d.matrix.is_zero()


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("field_key", ["q", "f5"])
@pytest.mark.parametrize("n", [2, 3])
def test_liftable_rungs_vanish(parity, field_key, n):
    sig = gen.koszul_signature(field_key, n, parity)
    mod, d = gen.koszul_module(sig, n, random.Random(n), random.Random(n))
    has_x = any(not algebra.derivative(e, "X").is_zero() for e in d.matrix.entries.values())
    # the even rank-4 complex has a single slot, whose conjugation leaves X out
    assert has_x == (parity == "odd" or n > 2)
    assert decide_naive_lift(mod, d, "X", 0).vanishes


@pytest.mark.parametrize("n,bound", [(2, 0), (2, 1), (3, 0)])
def test_miss_rungs_are_inconclusive(n, bound):
    sig = gen.koszul_signature("q", n, "even")
    mod, d = gen.koszul_module(sig, n, random.Random(n), random.Random(n), miss=True)
    assert not decide_naive_lift(mod, d, "X", bound).vanishes


def test_generated_verdicts_match_the_rung_kind(tmp_path):
    ops = gen.decide_large(0, str(tmp_path))
    assert {op.expect for op in ops} == {"vanishes", "inconclusive"}
    assert all((op.expect == "inconclusive") == op.name.endswith("-miss") for op in ops)


def test_self_time_on_a_synthetic_nested_span():
    #  root [0, 10]
    #    a [1, 4]
    #      a1 [2, 3]
    #    b [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a1", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_spans_nest_and_uninstall_restores(tmp_path):
    originals = (lift.solve_exact, module.solve_exact, algebra.AlgElem.__mul__)
    t = tracer.Tracer()
    with t:
        assert lift.solve_exact is not originals[0]
        assert lift.solve_exact is module.solve_exact
        _, rc, _ = run.run_cli(gen.readme_op())
    assert rc == 0
    assert (lift.solve_exact, module.solve_exact, algebra.AlgElem.__mul__) == originals
    assert solver.solve_exact is originals[0]
    names = [s[0] for s in t.spans]
    assert names[0] == "cli.main" and t.spans[0][3] == -1
    by_index = {i: s for i, s in enumerate(t.spans)}
    for s in t.spans[1:]:
        parent = by_index[s[3]]
        assert parent[1] <= s[1] <= s[2] <= parent[2]
    layers = t.layer_metrics()
    assert layers["lift.verify_lift_calls"][0] == 2
    assert layers["solver.calls"][0] >= 1
    assert layers["algebra.mul_calls"][0] > 0


def _digests(checked):
    return [(op.name, dig) for op, _, dig in checked]


@pytest.mark.parametrize("workload", ["lift-small", "identities"])
def test_traced_batch_matches_untraced(tmp_path, workload):
    wl = run.Workload(workload, 0, str(tmp_path / "work"))
    wl.setup()
    wl.ops = wl.ops[::6]
    plain = wl.run_batch()
    assert all(dig is not None for _, _, dig in plain)
    counts = []
    t = tracer.Tracer()
    for _ in range(2):
        t.reset()
        with t:
            traced = wl.run_batch()
        assert _digests(traced) == _digests(plain)
        counts.append(
            {k: v for k, (v, unit) in t.layer_metrics().items() if unit == "count"}
        )
    assert counts[0] == counts[1]
    assert counts[0]["algebra.mul_calls"] > 0


def test_golden_digests_cover_the_default_seed(tmp_path):
    with open(run.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert golden["seed"] == run.DEFAULT_SEED
    names = {
        "decide-large": [op.name for op in gen.decide_large(run.DEFAULT_SEED, str(tmp_path))],
        "lift-small": [op.name for op in gen.lift_small(run.DEFAULT_SEED, str(tmp_path))],
        "identities": [op.name for op in gen.identities(run.DEFAULT_SEED)],
    }
    for workload, ops in names.items():
        assert sorted(golden["workloads"][workload]) == sorted(ops)


def test_ledger_counts_mismatches_and_crashes():
    ops = gen.identities(0)[:3]
    ledger = run.Ledger({ops[0].name: "x", ops[1].name: "y", ops[2].name: "z"})
    ledger.record([(ops[0], 0.1, "x"), (ops[1], 0.1, "other"), (ops[2], 0.0, None)])
    assert (ledger.attempted, ledger.failed) == (3, 2)
    ledger = run.Ledger(None)
    ledger.record([(ops[0], 0.1, "x")])
    ledger.record([(ops[0], 0.1, "x2")])
    assert (ledger.attempted, ledger.failed) == (2, 1)


@pytest.mark.parametrize(
    "rc,data,ok",
    [
        (0, {"certificate": {"f1": {"f0": "-1"}}, "verification": {"lift": True}}, True),
        (0, {"certificate": {"f1": {"f0": "1"}}, "verification": {"lift": True}}, False),
        (0, {"certificate": {"f1": {"f0": "-1"}}, "verification": {"lift": False}}, False),
        (2, {"certificate": {"f1": {"f0": "-1"}}, "verification": {"lift": True}}, False),
        (0, None, False),
    ],
)
def test_check_cli_rejects_wrong_outcomes(rc, data, ok):
    stdout = json.dumps({"verdict": "lifted", "data": data, "timing_ms": 1.0})
    assert (run.check_cli(gen.readme_op(), rc, stdout) is not None) == ok


def test_times_are_scaled_by_the_median_reference_run_around_them():
    ref = run.REFERENCE_S
    # the host runs at half speed throughout: times halve
    assert run.at_reference_speed([0.2, 0.4], [2 * ref] * 3) == pytest.approx([0.1, 0.2])
    # one slow reference run among its neighbours does not move the scale
    refs = [ref, ref, 10 * ref, ref, ref, ref]
    assert run.at_reference_speed([0.1] * 5, refs) == pytest.approx([0.1] * 5)
