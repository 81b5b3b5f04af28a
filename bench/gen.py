"""Seeded input documents for the benchmark workloads.

The rungs are Koszul complexes ``K(a0..a_{n-1})`` (rank ``2^n``) over a
signature with one adjoined top variable ``X``:

* odd:  ``F[a0..a_{n-1}]<X | dX = a0>``, ``|X| = 1``;
* even: ``F[a0..a_{n-1}]<W0, W1, X | dW0 = a0, dW1 = a1,
  dX = a1*W0 - a0*W1>``, ``|X| = 2``.

Each complex is conjugated by ``u = 1 + sum c*X*E_rc`` with one slot
``|e_c| = |e_r| + |X|`` per degree band ``|e_r|``.  The slots are drawn
from the op name alone and the seed draws only the coefficients ``c``,
so every seed gives systems of the same shape and sparsity, and so of
nearly the same cost.  This keeps the
complex liftable at bound 0 but puts the variable into the differential
(all but the even rank-4 complex, whose one slot conjugates to a
variable-free matrix with ``W`` entries; a draw whose terms cancel is
drawn again).  A *miss* rung direct-sums the
even complex with the block ``d(z1) = z0*(X + W0*W1)``, whose obstruction
never bounds, so the search is inconclusive at every bound.

Everything is a function of ``(seed, op name)``; the program under test
only ever sees the JSON documents written from these values.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Optional

from dgalift.algebra import Signature, derivative
from dgalift.field import QQ, PrimeField
from dgalift.io import module_to_doc, signature_to_doc
from dgalift.module import Differential, FreeModule, GradedMap

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

FIELDS = {"q": QQ, "f5": PrimeField(5)}

# Coefficients of the conjugation terms; all nonzero modulo 5.
_UNIT_COEFFS = (1, 2, 3, -1, -2)
# Coefficient draws per slot draw before the slots are drawn again.
_COEFF_DRAWS = 8

# The identity batch is IDENTITY_ROUNDS alike operations, each every core suite
# over Q and F5 at IDENTITY_ITERS instances, so that the per-operation times
# compare like with like.
IDENTITY_ROUNDS = 20
IDENTITY_ITERS = 10


@dataclass(frozen=True)
class CliOp:
    """One in-process ``dgalift`` command and the verdict it must reach."""

    name: str
    argv: tuple
    expect: str  # "vanishes", "inconclusive" or "lifted"
    certificate: Optional[dict] = None  # expected transcript certificate


@dataclass(frozen=True)
class IdentityOp:
    """One round of the identity batch: ``run_suite`` for every core suite
    over every field, with one suite seed."""

    name: str
    seed: int
    iters: int


def koszul_signature(field_key: str, n: int, parity: str) -> Signature:
    sig = Signature(FIELDS[field_key], [f"a{i}" for i in range(n)])
    if parity == "odd":
        return sig.adjoin("X", 1, "a0")
    return sig.adjoin("W0", 1, "a0").adjoin("W1", 1, "a1").adjoin("X", 2, "a1*W0 - a0*W1")


def koszul_module(
    sig: Signature, n: int, slot_rng: random.Random, coeff_rng: random.Random,
    miss: bool = False,
) -> tuple:
    """The conjugated Koszul complex, plus the miss block when asked.

    `slot_rng` picks where the conjugation terms go, `coeff_rng` their
    coefficients.
    """
    subsets = sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s))
    basis = [
        ("e" + "".join(str(i) for i in range(n) if s >> i & 1), bin(s).count("1"))
        for s in subsets
    ]
    if miss:
        basis += [("z0", 0), ("z1", 3)]
    module = FreeModule(sig, basis)
    pos = {s: k for k, s in enumerate(subsets)}
    entries = {}
    for s in subsets:
        sign = 1
        for i in range(n):
            if s >> i & 1:
                entries[(pos[s & ~(1 << i)], pos[s])] = sig.parse(f"a{i}").scale(sign)
                sign = -sign
    if miss:
        entries[(len(subsets), len(subsets) + 1)] = sig.parse("X + W0*W1")
    d = Differential(GradedMap(module, -1, entries))

    xdeg = sig.top_variable.degree
    degs = module.degrees
    x = sig.gen("X")
    bands = range(n + 1 - xdeg)
    while True:
        slots = []
        for band in bands:
            rows = [r for r in range(len(subsets)) if degs[r] == band]
            cols = [c for c in range(len(subsets)) if degs[c] == band + xdeg]
            slots.append((slot_rng.choice(rows), slot_rng.choice(cols)))
        for _ in range(_COEFF_DRAWS):
            u = GradedMap.identity(module)
            for slot in slots:
                u = u + GradedMap(module, 0, {slot: x.scale(coeff_rng.choice(_UNIT_COEFFS))})
            conj = d.conjugate(u)
            # A lone even band always conjugates X away; other draws lose X
            # only when the bands' terms cancel, and are drawn again.
            if (xdeg == 2 and len(bands) == 1) or any(
                not derivative(e, "X").is_zero() for e in conj.matrix.entries.values()
            ):
                return module, conj


def rung_docs(seed: int, name: str, field_key: str, n: int, parity: str, miss: bool):
    sig = koszul_signature(field_key, n, parity)
    module, d = koszul_module(
        sig, n, random.Random(name), random.Random(f"{seed}:{name}"), miss
    )
    return signature_to_doc(sig), module_to_doc(module, d)


# -- workloads ------------------------------------------------------------------

# (parity, field, n, bound, miss): rank 2^n, plus 2 for a miss rung.  The
# odd Q rank-32 and even rank-34 miss rungs take 8-10 s and 3 s on a shared
# 2-vCPU Xeon VM, too long for a batch that must repeat several times per
# run to be steady.
DECIDE_LARGE_RUNGS = (
    ("odd", "q", 4, 0, False),
    ("odd", "f5", 5, 0, False),
    ("even", "q", 4, 1, False),
    ("even", "q", 4, 1, True),
    ("even", "q", 3, 2, True),
)

LIFT_SMALL_VARIANTS = 6


def _rung_name(cmd, parity, field_key, n, bound, miss, variant=None):
    name = f"{cmd}-{parity}-{field_key}-r{(1 << n) + (2 if miss else 0)}-b{bound}"
    if miss:
        name += "-miss"
    if variant is not None:
        name += f"-v{variant}"
    return name


def _write(workdir: str, fname: str, doc: dict) -> str:
    path = os.path.join(workdir, fname)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _rung_op(workdir, seed, cmd, parity, field_key, n, bound, miss, variant=None):
    name = _rung_name(cmd, parity, field_key, n, bound, miss, variant)
    sig_doc, mod_doc = rung_docs(seed, name, field_key, n, parity, miss)
    sig_path = _write(workdir, name + ".sig.json", sig_doc)
    mod_path = _write(workdir, name + ".mod.json", mod_doc)
    argv = (cmd, "--sig", sig_path, "--mod", mod_path, "--bound", str(bound))
    if miss:
        expect = "inconclusive"
    else:
        expect = "vanishes" if cmd == "naive" else "lifted"
    return CliOp(name, argv, expect)


def decide_large(seed: int, workdir: str) -> list:
    return [
        _rung_op(workdir, seed, "naive", parity, field_key, n, bound, miss)
        for parity, field_key, n, bound, miss in DECIDE_LARGE_RUNGS
    ]


def readme_op() -> CliOp:
    """The README worked example, from the committed documents."""
    sig_path = os.path.join(DATA_DIR, "s3.json")
    mod_path = os.path.join(DATA_DIR, "n3.json")
    argv = ("lift", "--sig", sig_path, "--mod", mod_path, "--bound", "0")
    return CliOp("lift-readme-s3-n3", argv, "lifted", {"f1": {"f0": "-1"}})


def lift_small(seed: int, workdir: str) -> list:
    ops = [readme_op()]
    for parity in ("odd", "even"):
        for field_key in FIELDS:
            for n in (2, 3):
                for v in range(LIFT_SMALL_VARIANTS):
                    ops.append(
                        _rung_op(workdir, seed, "lift", parity, field_key, n, 0, False, v)
                    )
    return ops


def identities(seed: int) -> list:
    ops = []
    for r in range(IDENTITY_ROUNDS):
        name = f"identity-round{r}"
        ops.append(IdentityOp(name, random.Random(f"{seed}:{name}").getrandbits(32), IDENTITY_ITERS))
    return ops
