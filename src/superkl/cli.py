"""Command-line front end.

Every command prints one machine-readable document on stdout (JSON by
default; tsv/text/dot where it makes sense) and reports errors as a JSON
object on stderr.  Exit codes: 0 success, 2 budget exhausted or undecided,
1 error.  Outputs are byte-deterministic: everything is sorted, never
emitted in completion order.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from json.encoder import encode_basestring_ascii

from . import canonical as canon
from . import crystal as crys
from . import klr
from . import superweights as sw
from .errors import BudgetExceeded, SuperklError
from .laurent import render
from .qmodule import ModuleVec
from .weights import (
    Interval,
    TypeNC,
    defect,
    defect_in_window,
    enumerate_weights,  # noqa: F401 (perfbench/tracing.py wraps cli.enumerate_weights)
    koszul_dual,
    order_leq,  # noqa: F401 (perfbench/tracing.py wraps cli.order_leq)
    parse_matrix,
    stable_window,
    truncate,
)


class Unknown(Exception):
    """Raised when a budgeted computation ends undecided (exit code 2)."""

    def __init__(self, payload):
        super().__init__("undecided")
        self.payload = payload


def _parse_type(args) -> TypeNC:
    n = tuple(int(x) for x in args.n.split(",")) if args.n else ()
    c = tuple(int(x) for x in args.c.split(",")) if args.c else ()
    return TypeNC(n, c)


def _context(args):
    return Interval.parse(args.interval), _parse_type(args)


def _vec_json(v: ModuleVec) -> list:
    return [{"basis": lam.to_json(), "coeff": render(c)}
            for lam, c in sorted(v.terms.items(), key=lambda kv: kv[0].text())]


class _Shared(dict):
    """A payload fragment that several places of one payload name.

    ``_json_text`` keeps the text it last rendered, and the depth it
    rendered it at, on the fragment itself, and hands that text back when
    asked for the same depth.  This is safe because no payload fragment is
    ever mutated once it is built, and the text lives and dies with the
    payload, so no earlier run can reach it.  One slot, not one text per
    depth: a canonical member is named at two depths, as a lambda and as a
    term's basis, and one slot already renders each member once per depth
    on 0:4 (2,2,2), while a text per depth would keep twice the text alive
    for as long as the payload.
    """

    __slots__ = ("indent", "text")

    def __init__(self, fragment: dict):
        super().__init__(fragment)
        self.indent = None


def _block_basis(block) -> list[tuple]:
    """(lam, basis entry) for every member, read off the block's d rows.

    Each member is rendered once per block into one ``_Shared`` dict, and
    that one object is the ``"lambda"`` of its own entry and the
    ``"basis"`` of every term that names it, so the writer need not render
    it once per term; a row's terms are sorted by text as in ``_vec_json``.
    """
    members = block.members
    js = [_Shared(m.to_json()) for m in members]
    rank = {b: r for r, b in enumerate(sorted(range(block.size),
                                              key=lambda b: members[b].text()))}
    return [(lam, {"lambda": js[a],
                   "terms": [{"basis": js[b], "coeff": render(row[b])}
                             for b in sorted(row, key=rank.__getitem__)]})
            for a, (lam, row) in enumerate(zip(members, block.d_matrix()))]


def _map_blocks(fn, items, threads: int):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def cmd_poset(args):
    interval, tnc = _context(args)
    table = canon.BlockTable(interval, tnc)
    covers = []
    for block in table.blocks:  # the order never relates two blocks
        # members is a linear extension, so only a later member can lie above
        size, text = block.size, [m.text() for m in block.members]
        above = [{b for b in range(a + 1, size) if block.leq(a, b)} for a in range(size)]
        covers += [(text[a], text[b]) for a, ups in enumerate(above)
                   for b in ups.difference(*(above[c] for c in ups))]
    covers.sort()
    payload = {"weights": [w.to_json() for w in table.weights], "count": len(table.weights),
               "covers": [{"lower": a, "upper": b} for a, b in covers]}
    return payload, covers


def cmd_blocks(args):
    interval, tnc = _context(args)
    table = canon.BlockTable(interval, tnc)
    blocks = [{"weight": b.weight.to_json(),
               "members": [m.text() for m in b.members]}
              for b in table.blocks]
    payload = {"blocks": blocks, "count": len(blocks)}
    rows = ((json.dumps(b["weight"]), " ".join(b["members"])) for b in blocks)
    return payload, rows


def _over_budget(args, lam) -> BudgetExceeded:
    return BudgetExceeded(f"block of {lam.text()} exceeds --max-block {args.max_block}")


def _check_block_budget(args, lam, built=None):
    """Refuse lam when the block the command builds for it, the block of
    ``built`` (of lam itself by default), exceeds --max-block."""
    if args.max_block and canon.block_data(built or lam).size > args.max_block:
        raise _over_budget(args, lam)


def cmd_canonical(args):
    interval, tnc = _context(args)
    if args.matrix:
        lam = parse_matrix(args.matrix, interval, tnc)
        _check_block_budget(args, lam)
        basis = [{"lambda": lam.to_json(), "terms": _vec_json(canon.canonical_basis(lam))}]
    else:
        table = canon.BlockTable(interval, tnc)
        if args.max_block:  # name the first weight, in enumeration order, over budget
            over = {lam for block in table.blocks if block.size > args.max_block
                    for lam in block.members}
            for lam in table.weights:
                if lam in over:
                    raise _over_budget(args, lam)
        entries = dict(pair for pairs in _map_blocks(_block_basis, table.blocks, args.threads)
                       for pair in pairs)
        # enumeration order is the sorted order of the lambda JSON
        basis = [entries[lam] for lam in table.weights]
    return {"basis": basis}, _basis_rows(basis)


def _basis_rows(basis):
    """The tsv/text rows of a basis: each distinct fragment is dumped once.

    The memo is keyed by ``id`` and lives only as long as this generator;
    ``basis`` holds every fragment alive for that long, so no id is reused.
    """
    texts: dict[int, str] = {}

    def dumps(fragment) -> str:
        text = texts.get(id(fragment))
        if text is None:
            text = texts[id(fragment)] = json.dumps(fragment)
        return text

    for e in basis:
        yield dumps(e["lambda"]), " + ".join(f"({t['coeff']}) {dumps(t['basis'])}"
                                             for t in e["terms"])


def cmd_klpoly(args):
    interval, tnc = _context(args)
    lam = parse_matrix(args.matrix, interval, tnc)
    mu = parse_matrix(args.mu, interval, tnc)
    payload = {"lambda": lam.to_json(), "mu": mu.to_json()}
    for window in canon.stable_windows(lam, mu):
        _check_block_budget(args, lam, truncate(lam, window))
    if interval.is_finite():
        d, p = canon.kl_d(lam, mu), canon.kl_p(lam, mu)
    else:
        d, p = canon.kl_d_stable(lam, mu), canon.kl_p_stable(lam, mu)
        payload["window"] = stable_window(lam, mu).text()
    payload.update(d=render(d), p=render(p))
    return payload, [(payload["d"], payload["p"])]


def cmd_dualbasis(args):
    interval, tnc = _context(args)
    lam = parse_matrix(args.matrix, interval, tnc)
    if interval.is_finite() and tnc.level >= 2:  # below level 2 no block is built
        _check_block_budget(args, lam, koszul_dual(lam))
    v = canon.dual_canonical(lam)
    payload = {"lambda": lam.to_json(), "terms": _vec_json(v)}
    return payload, ((t["coeff"], json.dumps(t["basis"])) for t in payload["terms"])


def cmd_twisted(args):
    interval, tnc = _context(args)
    lam = parse_matrix(args.matrix, interval, tnc)
    if interval.is_finite():
        _check_block_budget(args, lam, canon._reverse_rows(lam))
    v = canon.twisted_canonical(lam)
    payload = {"lambda": lam.to_json(), "terms": _vec_json(v)}
    return payload, ((t["coeff"], json.dumps(t["basis"])) for t in payload["terms"])


def cmd_crystal(args):
    interval, tnc = _context(args)
    weights, edges = crys.crystal_edges(interval, tnc)
    payload = {
        "vertices": [w.to_json() for w in weights],
        "edges": [{"from": a.text(), "color": i, "to": b.text()}
                  for a, i, b in edges],
    }
    rows = ((e["from"], str(e["color"]), e["to"]) for e in payload["edges"])
    return payload, rows, lambda: crys.dot_text(weights, edges)


def cmd_prinjective(args):
    interval, tnc = _context(args)
    if interval.is_finite():
        members = sorted(m.text() for m in crys.lambda_circ(interval, tnc))
        payload = {"members": members, "count": len(members)}
        return payload, ((m,) for m in members)
    if args.max_r < 1:
        raise SuperklError(f"--max-r must be at least 1, got {args.max_r}")
    tower = crys.WindowTower(interval, tnc, schedule=args.schedule)
    lam = parse_matrix(args.matrix, interval, tnc)
    r = crys.is_prinjective(lam, tower, args.max_r)
    windows = [{"r": k, "interval": tower.window(k).text(),
                "kappa": tower.kappa_r(k).text()}
               for k in range(1, args.max_r + 1)]
    shifts = [{"r": k, "word": list(tower.shift(k).word),
               "sigma": str(tower.shift(k).sigma),
               "Sigma": str(tower.sigma_total(k + 1))}
              for k in range(1, args.max_r)]
    payload = {"matrix": lam.to_json(),
               "prinjective": True if r is not None else "unknown",
               "r": r, "windows": windows, "shifts": shifts,
               "max_r": args.max_r}
    if r is None:
        raise Unknown(payload)
    return payload, [(lam.text(), str(r))]


def cmd_defect(args):
    interval, tnc = _context(args)
    lam = parse_matrix(args.matrix, interval, tnc)
    window = stable_window(lam)
    payload = {"matrix": lam.to_json(), "defect": defect_in_window(lam, window),
               "window": window.text()}
    return payload, [(lam.text(), str(payload["defect"]))]


def _coords(text) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def cmd_superweight(args):
    _, tnc = _context(args)
    lam = sw.SuperWeight(_coords(args.coords), tnc)
    mat = sw.to_matrix01(lam)
    back = sw.from_matrix01(mat)
    payload = {"weight": lam.to_json(),
               "rho": list(sw.rho(tnc).coords),
               "matrix": mat.to_json(),
               "roundtrip": back == lam}
    return payload, [(args.coords, mat.text())]


def cmd_bruhat(args):
    _, tnc = _context(args)
    lam = sw.SuperWeight(_coords(args.coords), tnc)
    mu = sw.SuperWeight(_coords(args.mu_coords), tnc)
    payload = {"lhs": lam.to_json(), "rhs": mu.to_json(),
               "leq": sw.bruhat_leq(lam, mu),
               "geq": sw.bruhat_leq(mu, lam),
               "dominance_leq": sw.dominance_super(mu, lam)}
    return payload, [(str(payload["leq"]), str(payload["geq"]))]


def cmd_linkage(args):
    _, tnc = _context(args)
    lam = sw.SuperWeight(_coords(args.coords), tnc)
    ups = sw.linkage_up(lam)
    payload = {"weight": lam.to_json(),
               "up": sorted([list(mu.coords) for mu in ups])}
    return payload, ((",".join(map(str, mu)),) for mu in payload["up"])


def cmd_youngdim(args):
    interval, tnc = _context(args)
    lam = parse_matrix(args.matrix, interval, tnc)
    word = [int(x) for x in args.word.split(",")] if args.word else []
    value = canon.young_word_dim(lam, word)
    dl = defect(lam)
    normalized = value.shift(-dl)
    payload = {"lambda": lam.to_json(), "word": word,
               "value": render(value), "defect": dl,
               "normalized": render(normalized),
               "bar_symmetric": normalized.is_bar_symmetric()}
    return payload, [(payload["value"],)]


def cmd_klr_verify(args):
    if args.d < 1:
        raise SuperklError(f"--d must be at least 1, got {args.d}")
    colors = ([int(x) for x in args.colors.split(",")]
              if args.colors else list(Interval.parse(args.interval).colors()))
    report = klr.verify_relations(colors, args.d)
    report["failures"] = [repr(f) for f in report["failures"]]
    return report, [(str(report["checked"]), str(report["ok"]))]


def cmd_nilhecke_rank(args):
    if args.m < 1:
        raise SuperklError(f"--m must be at least 1, got {args.m}")
    # below m(m-1) no degree is compared; an m over budget is refused below
    floor = args.m * (args.m - 1)
    if args.cap < floor and args.m <= klr.MAX_D:
        raise SuperklError(f"--cap must be at least m(m-1) = {floor}, got {args.cap}")
    report = klr.nilhecke_graded_rank_check(args.m, args.cap)
    return report, [(str(report["ok"]),)]


COMMANDS = {
    "poset": cmd_poset,
    "canonical": cmd_canonical,
    "klpoly": cmd_klpoly,
    "dualbasis": cmd_dualbasis,
    "twisted": cmd_twisted,
    "crystal": cmd_crystal,
    "blocks": cmd_blocks,
    "prinjective": cmd_prinjective,
    "defect": cmd_defect,
    "superweight": cmd_superweight,
    "bruhat": cmd_bruhat,
    "linkage": cmd_linkage,
    "youngdim": cmd_youngdim,
    "klr-verify": cmd_klr_verify,
    "nilhecke-rank": cmd_nilhecke_rank,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="superkl",
        description="exact canonical-basis and crystal combinatorics "
                    "for tensor products of quantum exterior powers")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--interval", default="0:1",
                        help="a:b | z | geq:N | leq:N")
    parser.add_argument("--n", default="", help="comma-separated exterior degrees")
    parser.add_argument("--c", default="", help="comma-separated polarities (0/1)")
    parser.add_argument("--format", default="json",
                        choices=["json", "tsv", "dot", "text"])
    parser.add_argument("--matrix", default="", help="weight, e.g. @0:110/101")
    parser.add_argument("--mu", default="", help="second weight")
    parser.add_argument("--coords", default="", help="superweight coordinates")
    parser.add_argument("--mu-coords", default="", help="second superweight")
    parser.add_argument("--word", default="", help="comma-separated colors")
    parser.add_argument("--colors", default="", help="KLR colors")
    parser.add_argument("--d", type=int, default=2, help="number of strands")
    parser.add_argument("--m", type=int, default=2, help="nil-Hecke rank")
    parser.add_argument("--cap", type=int, default=8, help="graded degree cap")
    parser.add_argument("--max-r", type=int, default=4, dest="max_r",
                        help="window budget for prinjective search")
    parser.add_argument("--max-block", type=int, default=0, dest="max_block",
                        help="refuse blocks larger than this (0 = unlimited)")
    parser.add_argument("--schedule", default="default",
                        help="tower growth: " + "|".join(crys.SCHEDULES))
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default="", help="write output to FILE")
    return parser


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, one join per container.

    Handles str, int, bool, None, lists and dicts with str keys, the types
    every payload is made of; anything else, a non-str key included, is a
    TypeError.  A ``_Shared`` fragment keeps the text of its last depth, so
    a fragment named many times in a row at one depth is rendered once
    there.  str, dict and list, the bulk of a payload, are tested first.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is _Shared:
        if obj.indent != indent:
            obj.text, obj.indent = _dict_text(obj, indent), indent
        return obj.text
    if kind is dict:
        return _dict_text(obj, indent)
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = indent + "  "
        # the item list is dropped as soon as it is joined, not held to return
        text = f",\n{inner}".join([_json_text(v, inner) for v in obj])
        return f"[\n{inner}{text}\n{indent}]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        return _dict_text(obj, indent)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _dict_text(obj: dict, indent: str) -> str:
    """The dict case of ``_json_text``: keys sorted, each through the writer."""
    if not obj:
        return "{}"
    inner = indent + "  "
    text = f",\n{inner}".join([f"{encode_basestring_ascii(k)}: {_json_text(obj[k], inner)}"
                                for k in sorted(obj)])
    return f"{{\n{inner}{text}\n{indent}}}"


def _emit(args, payload, rows, dot=None) -> str:
    """The output text; ``rows`` is iterated only for tsv and text, and
    ``dot``, a callable returning the DOT text, is called only for dot."""
    if args.format == "dot":
        if dot is None:
            raise SuperklError("dot output is only available for crystal")
        return dot()
    if args.format == "tsv":
        return "\n".join("\t".join(row) for row in rows)
    if args.format == "text":
        return "\n".join("  ".join(row) for row in rows)
    return _json_text(payload)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.max_block < 0:  # 0 is unlimited; a negative budget refuses every block
            raise SuperklError(f"--max-block must be at least 0, got {args.max_block}")
        try:
            result = COMMANDS[args.command](args)
        except Unknown as exc:  # undecided: the payload is still the output
            text, code = _json_text({"command": args.command, **exc.payload}), 2
        else:
            payload, rows = result[0], result[1]
            dot = result[2] if len(result) > 2 else None
            meta = {"command": args.command, "interval": args.interval}
            if args.n:
                meta["type"] = {"n": [int(x) for x in args.n.split(",")],
                                "c": [int(x) for x in args.c.split(",")]}
            if isinstance(payload, dict):
                payload = {**meta, **payload}
            text, code = _emit(args, payload, rows, dot), 0
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return code
    except BudgetExceeded as exc:
        json.dump({"error": "budget", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (SuperklError, ValueError, OSError, RecursionError, MemoryError,
            KeyboardInterrupt) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
