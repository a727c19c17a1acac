"""Seeded inputs of the three benchmark workloads.

Every operation is one ``superkl`` command line, run in-process through
``superkl.cli.main``.  An operation is a dict with the keys ``label`` (the
command line, which also keys the pinned output digests), ``argv`` and
``kind``, plus the weights its oracle check needs.

The same (workload, seed, size) always gives the same operations.
"""

from __future__ import annotations

import itertools
import random

from superkl.errors import SuperklError
from superkl.superweights import SuperWeight, to_matrix01
from superkl.weights import Interval, TypeNC, enumerate_weights, weight_of

SIZES = {
    "full": {
        "canonical-context": {"interval": "0:4", "n": "2,2,2", "c": "0,0,0",
                              "oracle_sample": 8},
        "kl-queries": {
            "interval": "0:2", "n": "2,2,2,2", "c": "0,1,0,1",
            # queries per pass by kind; 80 in all, so the two or three passes
            # of a run put 16 to 24 samples beyond p90
            "quota": {"klpoly": 32, "canonical": 16, "dualbasis": 12,
                      "twisted": 12, "klpoly-z": 8},
            # over z the enlarged windows grow every block; a base block of
            # 48 takes over ten seconds, so z queries start in small blocks
            "z_max_block": 4,
            "oracle_sample": 6,
        },
        "orders": {
            "poset": ("0:3", "2,2,1", "0,0,0"),
            "crystal": ("0:4", "2,2,2", "0,0,0"),
            "blocks": ("0:3", "2,2,2,2", "0,1,0,1"),
            "prinjective": ("0:4", "2,2,2", "0,0,0"),
            "prinjective_z": ("2,1", "0,0", "@0:110/001", 4),
            "klr": ("0:3", 3),
            # 28 light commands beside the 6 heavy ones: over two or more
            # passes p90 then falls among the samples of the fourth slowest
            # command (blocks), not on the jitter of sub-millisecond ones
            "super_type": ("2,2", "0,1"),
            "bruhat": 19,
            "linkage": 9,
        },
    },
    "tiny": {
        "canonical-context": {"interval": "0:1", "n": "2,1,1", "c": "0,0,0",
                              "oracle_sample": 3},
        "kl-queries": {
            "interval": "0:1", "n": "1,1,1,1", "c": "0,1,0,1",
            "quota": {"klpoly": 8, "canonical": 4, "dualbasis": 3,
                      "twisted": 3, "klpoly-z": 2},
            "z_max_block": 4,
            "oracle_sample": 3,
        },
        "orders": {
            "poset": ("0:1", "2,1", "0,0"),
            "crystal": ("0:1", "2,1", "0,0"),
            "blocks": ("0:1", "1,1,1", "0,1,0"),
            "prinjective": ("0:1", "2,1", "0,0"),
            "prinjective_z": ("1,1", "0,0", "@0:10/01", 2),
            "klr": ("0:1", 2),
            "super_type": ("1,1", "0,1"),
            "bruhat": 6,
            "linkage": 4,
        },
    },
}


def _context(interval: str, n: str, c: str) -> list[str]:
    return ["--interval", interval, "--n", n, "--c", c]


def _op(kind: str, argv: list[str], items: int = 1, **extra) -> dict:
    """One command; ``items`` is the work it counts for in items_per_s."""
    argv = argv + ["--threads", "1"]
    return {"label": " ".join(argv), "argv": argv, "kind": kind, "items": items, **extra}


def _type(n: str, c: str) -> TypeNC:
    return TypeNC(tuple(map(int, n.split(","))), tuple(map(int, c.split(","))))


def canonical_context(p: dict, rng: random.Random) -> tuple[list[dict], dict]:
    """One ``canonical`` over the whole context; the seed picks the oracle sample."""
    ctx = _context(p["interval"], p["n"], p["c"])
    weights = enumerate_weights(Interval.parse(p["interval"]), _type(p["n"], p["c"]))
    sample = sorted(rng.sample([w.text() for w in weights],
                               min(p["oracle_sample"], len(weights))))
    op = _op("canonical-context", ["canonical"] + ctx, items=len(weights), sample=sample)
    return [op], {"weights": len(weights)}


def _spread_blocks(pool: list, k: int) -> list:
    """k evenly spaced picks from pool, which is sorted by block size.

    Each block size is drawn in proportion to its share of the weights,
    and the picks are the same for every seed: the work of a query depends
    on its block alone, so the latency distribution does not move with the
    seed.  The seed then picks the weights inside those blocks.
    """
    step = len(pool) / k
    return [pool[int((i + 0.5) * step)] for i in range(k)]


def kl_queries(p: dict, rng: random.Random) -> tuple[list[dict], dict]:
    """Single-weight queries, each with a partner from its own block."""
    interval = Interval.parse(p["interval"])
    weights = enumerate_weights(interval, _type(p["n"], p["c"]))
    blocks: dict = {}
    for w in weights:
        blocks.setdefault(weight_of(w), []).append(w)
    pool = sorted(blocks.values(), key=lambda b: (len(b), b[0].text()))
    pool = [b for b in pool for _ in b]  # one entry per weight
    z_pool = [b for b in pool if len(b) <= p["z_max_block"]]
    ctx = _context(p["interval"], p["n"], p["c"])
    zctx = _context("z", p["n"], p["c"])
    ops = []
    for kind, k in p["quota"].items():
        for block in _spread_blocks(z_pool if kind == "klpoly-z" else pool, k):
            lam, mu = rng.choice(block), rng.choice(block)
            matrix = ["--matrix", lam.text()]
            pair = matrix + ["--mu", mu.text()]
            if kind == "klpoly":
                ops.append(_op(kind, ["klpoly"] + ctx + pair, lam=lam.text(), mu=mu.text()))
            elif kind == "klpoly-z":
                ops.append(_op(kind, ["klpoly"] + zctx + pair, lam=lam.text(), mu=mu.text()))
            else:
                ops.append(_op(kind, [kind] + ctx + matrix, lam=lam.text()))
    rng.shuffle(ops)
    for i in rng.sample(range(len(ops)), min(p["oracle_sample"], len(ops))):
        ops[i]["oracle"] = True
    return ops, {"weights": len(weights), "blocks": len(blocks)}


def _dominant_box(tnc: TypeNC, lo: int, hi: int) -> list[SuperWeight]:
    out = []
    for coords in itertools.product(range(lo, hi + 1), repeat=sum(tnc.n)):
        lam = SuperWeight(coords, tnc)
        try:
            to_matrix01(lam)
        except SuperklError:
            continue
        out.append(lam)
    return out


def _coords(lam: SuperWeight) -> str:
    return ",".join(map(str, lam.coords))


def orders(p: dict, rng: random.Random) -> tuple[list[dict], dict]:
    """A fixed sequence of order and crystal commands plus seeded super pairs."""
    heavy = [
        _op("poset", ["poset"] + _context(*p["poset"])),
        _op("crystal", ["crystal"] + _context(*p["crystal"])),
        _op("blocks", ["blocks"] + _context(*p["blocks"])),
        _op("prinjective", ["prinjective"] + _context(*p["prinjective"])),
    ]
    n, c, matrix, max_r = p["prinjective_z"]
    heavy.append(_op("prinjective-z", ["prinjective"] + _context("z", n, c)
                     + ["--matrix", matrix, "--max-r", str(max_r)]))
    interval, d = p["klr"]
    heavy.append(_op("klr-verify", ["klr-verify", "--interval", interval, "--d", str(d)]))
    n, c = p["super_type"]
    box = _dominant_box(_type(n, c), -2, 2)
    zctx = _context("z", n, c)
    light = []
    for _ in range(p["bruhat"]):
        lam, mu = rng.choice(box), rng.choice(box)
        # --coords=... because argparse reads a bare "-1,2" as an option
        light.append(_op("bruhat", ["bruhat"] + zctx + [
            f"--coords={_coords(lam)}", f"--mu-coords={_coords(mu)}"],
            lam=lam.coords, mu=mu.coords))
    for lam in rng.sample(box, p["linkage"]):
        light.append(_op("linkage", ["linkage"] + zctx + [f"--coords={_coords(lam)}"],
                         lam=lam.coords))
    rng.shuffle(light)
    # the light commands run in runs between the heavy ones, so that their
    # latencies sample the whole pass; the heavy ones keep a fixed order,
    # which keeps peak RSS the same from seed to seed
    ops = []
    share = len(light) / len(heavy)
    for i, op in enumerate(heavy):
        ops.append(op)
        ops += light[round(i * share):round((i + 1) * share)]
    return ops, {"box": [-2, 2]}


GENERATORS = {
    "canonical-context": canonical_context,
    "kl-queries": kl_queries,
    "orders": orders,
}


def generate(workload: str, seed: int, size: str) -> tuple[list[dict], dict]:
    """Operations and recorded parameters of one workload at one seed."""
    params = SIZES[size][workload]
    ops, info = GENERATORS[workload](params, random.Random(f"{workload}/{seed}"))
    return ops, {"size": size, **params, **info}
