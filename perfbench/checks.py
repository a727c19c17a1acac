"""Oracle checks on command outputs; every function returns a list of problems.

They run outside the timed region.  The oracles are independent of the
code path that produced the output where the library has one:
``canonical_basis_direct`` solves psi(x) = x by generic linear algebra,
the Bruhat order is compared with the 01-matrix order through the weight
dictionary, and linkage with the Bruhat and dominance orders.
"""

from __future__ import annotations

import json

from superkl import canonical as canon
from superkl.cli import _vec_json
from superkl.laurent import one, render, zero
from superkl.qmodule import ModuleVec
from superkl.superweights import (
    SuperWeight,
    bruhat_leq,
    dominance_super,
    to_matrix01,
)
from superkl.weights import Interval, TypeNC, order_leq, parse_matrix, truncate


def _context(argv: list[str]) -> tuple[Interval, TypeNC]:
    opts = dict(zip(argv[1::2], argv[2::2]))
    tnc = TypeNC(tuple(map(int, opts["--n"].split(","))),
                 tuple(map(int, opts["--c"].split(","))))
    return Interval.parse(opts["--interval"]), tnc


def block_identity(block) -> list[str]:
    """d . p = I on one block, and every p in N[q]."""
    d, p = block.d_matrix(), block.p_matrix()
    problems = []
    for a in range(block.size):
        for b in range(a, block.size):
            s = sum((dk * p[k][b] for k, dk in d[a].items() if b in p[k]), zero)
            if s != (one if a == b else zero):
                problems.append(f"(d.p)[{a},{b}] = {s} in block of "
                                f"{block.members[0].text()}")
    for row in p:
        for entry in row.values():
            if not entry.subs_neg_q().in_Nq():
                problems.append(f"p = {entry.subs_neg_q()} not in N[q]")
    return problems


def touched_blocks() -> list[str]:
    """block_identity on every block the last query built."""
    problems = []
    for block in list(canon._single_block_cache.values()):
        problems += block_identity(block)
    return problems


def canonical_context(op: dict, out: str) -> list[str]:
    """A seeded sample of basis vectors against the direct oracle."""
    interval, tnc = _context(op["argv"])
    basis = {json.dumps(e["lambda"], sort_keys=True): e["terms"]
             for e in json.loads(out)["basis"]}
    problems = []
    for text in op["sample"]:
        lam = parse_matrix(text, interval, tnc)
        got = basis.get(json.dumps(lam.to_json(), sort_keys=True))
        if got != _vec_json(canon.canonical_basis_direct(lam)):
            problems.append(f"b[{text}] differs from canonical_basis_direct")
        problems += block_identity(canon.block_data(lam))
    return problems


def p_positive(op: dict, out: str) -> list[str]:
    """The p printed by klpoly lies in N[q]: its rendering has no minus sign."""
    if op["kind"] not in ("klpoly", "klpoly-z"):
        return []
    p = json.loads(out)["p"]
    return [] if "-" not in p else [f"{op['label']}: p = {p} not in N[q]"]


def kl_query(op: dict, out: str) -> list[str]:
    """The direct oracle on one query, run while its caches are still warm."""
    interval, tnc = _context(op["argv"])
    payload = json.loads(out)
    kind = op["kind"]
    if kind == "klpoly-z":
        window = Interval.parse(payload["window"])
        lam = truncate(parse_matrix(op["lam"], interval, tnc), window)
        mu = truncate(parse_matrix(op["mu"], interval, tnc), window)
        want = render(canon.canonical_basis_direct(lam).coeff(mu))
        ok = payload["d"] == want
    elif kind == "klpoly":
        lam = parse_matrix(op["lam"], interval, tnc)
        mu = parse_matrix(op["mu"], interval, tnc)
        ok = payload["d"] == render(canon.canonical_basis_direct(lam).coeff(mu))
    elif kind == "canonical":
        lam = parse_matrix(op["lam"], interval, tnc)
        ok = payload["basis"][0]["terms"] == _vec_json(canon.canonical_basis_direct(lam))
    elif kind == "twisted":
        lam = parse_matrix(op["lam"], interval, tnc)
        rlam = canon._reverse_rows(lam)
        direct = canon.canonical_basis_direct(rlam).terms
        twisted = ModuleVec(lam.interval, lam.tnc,
                            {canon._reverse_rows(m): c.bar() for m, c in direct.items()})
        ok = payload["terms"] == _vec_json(twisted)
    else:  # dualbasis: its column of p is checked by block_identity
        ok = True
    return [] if ok else [f"{op['label']}: differs from canonical_basis_direct"]


def klr_verify(op: dict, out: str) -> list[str]:
    payload = json.loads(out)
    ok = payload["ok"] is True and payload["checked"] > 0
    return [] if ok else [f"{op['label']}: relations fail"]


def bruhat(op: dict, out: str) -> list[str]:
    """The Bruhat order equals the 01-matrix order through the dictionary."""
    payload = json.loads(out)
    _, tnc = _context(op["argv"])
    ml = to_matrix01(SuperWeight(tuple(op["lam"]), tnc))
    mm = to_matrix01(SuperWeight(tuple(op["mu"]), tnc))
    ok = payload["leq"] == order_leq(ml, mm) and payload["geq"] == order_leq(mm, ml)
    return [] if ok else [f"{op['label']}: differs from the 01-matrix order"]


def linkage(op: dict, out: str) -> list[str]:
    """Every weight linked up from lam lies below it in Bruhat and dominance."""
    payload = json.loads(out)
    _, tnc = _context(op["argv"])
    lam = SuperWeight(tuple(op["lam"]), tnc)
    ups = [SuperWeight(tuple(c), tnc) for c in payload["up"]]
    ok = all(bruhat_leq(mu, lam) and dominance_super(lam, mu) for mu in ups)
    return [] if ok else [f"{op['label']}: linked weight not below in Bruhat order"]


# Checks that run on the outputs kept until the end of the first pass.
AFTER_PASS = {
    "canonical-context": canonical_context,
    "klr-verify": klr_verify,
    "bruhat": bruhat,
    "linkage": linkage,
}
