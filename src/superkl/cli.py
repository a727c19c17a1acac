"""Command-line front end.

Every command prints one machine-readable document on stdout (JSON by
default; tsv/text/dot where it makes sense) and reports errors as a JSON
object on stderr, argparse rejections included.  Exit codes: 0 success, 2
budget exhausted or undecided, 1 error; an undecided payload is JSON
whatever ``--format`` says.  Outputs are byte-deterministic: everything is
sorted, never emitted in completion order.

The JSON text is ``json.dumps(payload, indent=2, sort_keys=True)``.  Where
a payload would be large, the command hands the writer a node (``_List``)
instead of data, a list whose items are rendered at once at the indent
they sit at, with the bytes ``json.dumps`` gives its data form.  The
items are rendered from each weight's row strings (``_weight_items``) and
text.  A whole-context ``canonical`` hands it its basis, each entry
rendered from its block's pieces (``_BlockBasis``), the data form being
``{"lambda": member JSON, "terms": _vec_json(b_lambda)}``, and its tsv and
text rows come from the same pieces.  ``crystal`` hands it its vertices
and edges, whose texts its tsv, text and DOT rows read too, ``poset``
its weights and covers, and ``blocks`` its blocks, whose members' texts
come from one pass over the context and are read by its tsv and text
rows too.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import canonical as canon
from . import crystal as crys
from . import klr
from . import superweights as sw
from .errors import BudgetExceeded, SuperklError, UsageError
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
    weight_texts,
)


class Unknown(Exception):
    """Raised when a budgeted computation ends undecided (exit code 2)."""

    def __init__(self, payload):
        super().__init__("undecided")
        self.payload = payload


def _coords(text) -> tuple[int, ...]:
    """A comma-separated int list; the empty string is ()."""
    return tuple(int(x) for x in text.split(",")) if text else ()


def _parse_type(args) -> TypeNC:
    return TypeNC(_coords(args.n), _coords(args.c))


def _context(args):
    return Interval.parse(args.interval), _parse_type(args)


def _vec_json(v: ModuleVec) -> list:
    return [{"basis": lam.to_json(), "coeff": render(c)}
            for lam, c in sorted(v.terms.items(), key=lambda kv: kv[0].text())]


class _BlockBasis:
    """The basis entries of one block of a whole-context ``canonical``, as pieces.

    It holds each member's row strings, read off the block's per-row
    tables, its d rows (read here, so ``_map_blocks`` runs the solve) and
    each member's rank in text order, the order of the terms of a row as in
    ``_vec_json``.  ``coeffs`` is the command's memo of ``render`` texts,
    keyed by the id of a d entry: the rows held here keep every entry alive
    for as long as the memo, so no id is reused.  ``_map_blocks`` may build
    the pieces in threads; the memo is filled only when entries are
    rendered, by the writer or the tsv/text rows in one thread.  No
    per-member dict or per-term object is built.
    """

    __slots__ = ("lo", "members", "rows", "rank", "coeffs")

    def __init__(self, block, coeffs: dict[int, str]):
        self.lo = block.interval.lo
        self.members = members = list(block.row_strings())
        self.rows = list(block.d_matrix())
        self.rank = [0] * len(members)
        # text order: every member's rows have the same lengths
        for r, b in enumerate(sorted(range(len(members)), key=members.__getitem__)):
            self.rank[b] = r
        self.coeffs = coeffs

    def terms(self, a: int) -> list[int]:
        """Row a's columns in term order."""
        return sorted(self.rows[a], key=self.rank.__getitem__)

    def coeff(self, c) -> str:
        """``render(c)``, once per d entry of the command."""
        text = self.coeffs.get(id(c))
        if text is None:
            text = self.coeffs[id(c)] = render(c)
        return text

    def entry_texts(self, indent: str) -> list[str]:
        """Each member's entry, ``{"lambda": member, "terms": _vec_json(b_lambda)}``,
        as ``json.dumps(entry, indent=2, sort_keys=True)`` at indent.

        Each member is rendered once at the depth of the ``"lambda"`` field
        and once at the depth of a term's fields; each term is one template
        filled with its member and its coefficient: keys "basis" < "coeff".
        """
        field, item = indent + "  ", indent + "    "
        deeper = item + "  "
        heads = [f'{{\n{deeper}"basis": {text},\n{deeper}"coeff": '
                 for text in _weight_items(self.lo, self.members, deeper)]
        close, coeff, out = f"\n{item}}}", self.coeff, []
        for a, lam in enumerate(_weight_items(self.lo, self.members, field)):
            row = self.rows[a]
            texts = [heads[b] + encode_basestring_ascii(coeff(row[b])) + close
                     for b in self.terms(a)]
            terms = f"[\n{item}" + f",\n{item}".join(texts) + f"\n{field}]"  # d_aa = 1 is in it
            out.append(f'{{\n{field}"lambda": {lam},\n{field}"terms": {terms}\n{indent}}}')
        return out

    def row_texts(self) -> list[tuple[str, str]]:
        """Each member's tsv/text row: its ``json.dumps`` text, from 0/1 row
        strings that JSON quotes as they are, and its terms."""
        head = f'{{"window_start": {self.lo}, "rows": ['
        compact = [head + ", ".join([f'"{r}"' for r in rows]) + "]}" for rows in self.members]
        coeff = self.coeff
        return [(compact[a], " + ".join([f"({coeff(row[b])}) {compact[b]}"
                                         for b in self.terms(a)]))
                for a, row in enumerate(self.rows)]


class _List:
    """The writer's node: a list whose items' texts ``items(inner)`` renders
    at once, each at the indent inner of the list's items.  ``_json_text``
    hands it the indent it sits at, and its ``json_text`` there equals
    ``json.dumps`` of the list's data form."""

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items

    def json_text(self, indent: str) -> str:
        inner = indent + "  "
        text = f",\n{inner}".join(self.items(inner))
        return f"[\n{inner}{text}\n{indent}]" if text else "[]"


def _weight_items(lo: int, weights, inner: str) -> list[str]:
    """Each weight's ``Matrix01.to_json`` text at the indent inner, from its
    ``row_strings``, 0/1 strings that JSON quotes as they are."""
    field, item = inner + "  ", inner + "    "
    # every weight has the same number of rows: level 0 has the one weight ()
    first, last = (f'[\n{item}"', f'"\n{field}]') if weights and weights[0] else ("[", "]")
    head = f'{{\n{field}"rows": {first}'
    tail = f'{last},\n{field}"window_start": {lo}\n{inner}}}'
    sep = f'",\n{item}"'
    return [head + sep.join(rows) + tail for rows in weights]


def _cover_items(covers, inner: str) -> list[str]:
    """Each cover's ``{"lower", "upper"}`` JSON text at the indent inner."""
    field = inner + "  "
    return [f'{{\n{field}"lower": {encode_basestring_ascii(a)},\n{field}"upper": '
            f'{encode_basestring_ascii(b)}\n{inner}}}' for a, b in covers]


def _edge_items(texts: list[str], edges, inner: str) -> list[str]:
    """Each edge's ``{"color", "from", "to"}`` JSON text at the indent inner."""
    field = inner + "  "
    quoted = list(map(encode_basestring_ascii, texts))
    return [f'{{\n{field}"color": {i},\n{field}"from": {quoted[n]},\n{field}"to": {quoted[m]}'
            f'\n{inner}}}' for n, i, m in edges]


def _map_blocks(fn, items, threads: int):
    if threads > 1:
        # imported here: concurrent.futures pulls in logging, which no other path needs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def cmd_poset(args):
    interval, tnc = _context(args)
    table = canon.BlockTable(interval, tnc)
    covers = []
    for block in table.blocks:  # the order never relates two blocks
        # members is a linear extension, so only a later member can lie above
        size, text = block.size, block.texts()
        above = [{b for b in range(a + 1, size) if block.leq(a, b)} for a in range(size)]
        covers += [(text[a], text[b]) for a, ups in enumerate(above)
                   for b in ups.difference(*(above[c] for c in ups))]
    covers.sort()
    weights = list(table.row_strings())
    payload = {"weights": _List(lambda inner: _weight_items(interval.lo, weights, inner)),
               "count": len(weights),
               "covers": _List(lambda inner: _cover_items(covers, inner))}
    return payload, covers


def _block_items(blocks, texts: dict[int, str], inner: str) -> list[str]:
    """Each block's ``{"members", "weight"}`` JSON text at the indent inner;
    texts holds each member's text by its packed weight, made of '@', ':',
    '/', '-' and digits, which JSON quotes as they are."""
    field, item = inner + "  ", inner + "    "
    sep = f'",\n{item}"'
    return [f'{{\n{field}"members": [\n{item}"' + sep.join(map(texts.__getitem__, b.monomials))
            + f'"\n{field}],\n{field}"weight": {_weight_text(b.weight, field)}\n{inner}}}'
            for b in blocks]  # a block has at least one member


def _weight_text(weight, indent: str) -> str:
    """``_json_text(weight.to_json(), indent)`` for a map from int to int.

    JSON sorts the keys as strings ("-1" < "0" < "10" < "2").  Each item
    is rendered first and the items are sorted as they stand: a key is
    '-' and digits, all above the '"' that closes it, so a key that is a
    prefix of another still comes first.
    """
    if not weight:
        return "{}"
    inner = indent + "  "
    text = f",\n{inner}".join(sorted([f'"{k}": {v}' for k, v in weight.items()]))
    return f"{{\n{inner}{text}\n{indent}}}"


def cmd_blocks(args):
    interval, tnc = _context(args)
    table = canon.BlockTable(interval, tnc)
    texts = dict(zip(table.monomials, table.texts()))
    payload = {"blocks": _List(lambda inner: _block_items(table.blocks, texts, inner)),
               "count": len(table.blocks)}
    rows = ((json.dumps(b.weight.to_json()), " ".join(map(texts.__getitem__, b.monomials)))
            for b in table.blocks)
    return payload, rows


def _over_budget(args, lam) -> BudgetExceeded:
    return BudgetExceeded(f"block of {lam.text()} exceeds --max-block {args.max_block}")


def _check_block_budget(args, lam, built=None):
    """Refuse lam when the block the command builds for it, the block of
    ``built`` (of lam itself by default), exceeds --max-block.  The block
    is counted up to one past the budget, so a refused one is never made."""
    if args.max_block and canon.block_size(built or lam, args.max_block) > args.max_block:
        raise _over_budget(args, lam)


def cmd_canonical(args):
    interval, tnc = _context(args)
    if args.matrix:
        lam = parse_matrix(args.matrix, interval, tnc)
        _check_block_budget(args, lam)
        basis = [{"lambda": lam.to_json(), "terms": _vec_json(canon.canonical_basis(lam))}]
        return {"basis": basis}, ((json.dumps(e["lambda"]), " + ".join(
            f"({t['coeff']}) {json.dumps(t['basis'])}" for t in e["terms"])) for e in basis)
    table = canon.BlockTable(interval, tnc)
    if args.max_block:  # name the first weight, in enumeration order, over budget
        over = {x for block in table.blocks if block.size > args.max_block
                for x in block.monomials}
        for x in table.monomials:
            if x in over:
                raise _over_budget(args, canon._from_monomial(x, interval, tnc))
    coeffs: dict[int, str] = {}  # this command's coefficient texts, see _BlockBasis
    blocks = _map_blocks(lambda block: _BlockBasis(block, coeffs), table.blocks, args.threads)

    def in_order(render):
        """render's items of every block, one per member, in enumeration
        order, the sorted order of the lambda JSON; made on first read."""
        items = {}
        for block, pieces in zip(table.blocks, blocks):
            items.update(zip(block.monomials, render(pieces)))
        yield from map(items.__getitem__, table.monomials)
    basis = _List(lambda inner: in_order(lambda pieces: pieces.entry_texts(inner)))
    return {"basis": basis}, in_order(_BlockBasis.row_texts)


def cmd_klpoly(args):
    interval, tnc = _context(args)
    lam = parse_matrix(args.matrix, interval, tnc)
    mu = parse_matrix(args.mu, interval, tnc)
    payload = {"lambda": lam.to_json(), "mu": mu.to_json()}
    for window in canon.stable_windows(lam, mu):
        _check_block_budget(args, lam, truncate(lam, window))
    if interval.is_finite():
        d, p = canon.kl_dp(lam, mu)
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
    vertices, edges = crys.crystal_edges(interval, tnc)
    texts = weight_texts(interval.lo, vertices)
    payload = {"vertices": _List(lambda inner: _weight_items(interval.lo, vertices, inner)),
               "edges": _List(lambda inner: _edge_items(texts, edges, inner))}
    rows = ((texts[n], str(i), texts[m]) for n, i, m in edges)
    return payload, rows, lambda: crys.dot_text(texts, edges)


def cmd_prinjective(args):
    interval, tnc = _context(args)
    if interval.is_finite():
        members = crys.lambda_circ_texts(interval, tnc)
        payload = {"members": members, "count": len(members)}
        return payload, ((m,) for m in members)
    if args.max_r < 1:
        raise SuperklError(f"--max-r must be at least 1, got {args.max_r}")
    tower = crys.WindowTower(interval, tnc)
    lam = parse_matrix(args.matrix, interval, tnc)
    r = crys.is_prinjective(lam, tower, args.max_r)
    windows = [{"r": k, "interval": tower.window(k).text(),
                "kappa": tower.kappa_r(k).text()}
               for k in range(1, args.max_r + 1)]
    steps = [tower.shift(k) for k in range(1, args.max_r)]
    # Sigma_{k+1} = sigma_1 + ... + sigma_k, one shift per step
    totals = itertools.accumulate(step.sigma for step in steps)
    shifts = [{"r": k, "word": list(step.word), "sigma": str(step.sigma), "Sigma": str(total)}
              for k, (step, total) in enumerate(zip(steps, totals), 1)]
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


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose rejections are ``UsageError``s: JSON on stderr, exit 1.

    ``--help`` still prints the help and exits 0.
    """

    def error(self, message):
        raise UsageError(message)


# every option of the parser, in help order: (flag, add_argument keywords)
_OPTIONS = (
    ("--interval", dict(default="0:1", help="a:b | z | geq:N | leq:N")),
    ("--n", dict(default="", help="comma-separated exterior degrees")),
    ("--c", dict(default="", help="comma-separated polarities (0/1)")),
    ("--format", dict(default="json", choices=["json", "tsv", "dot", "text"])),
    ("--matrix", dict(default="", help="weight, e.g. @0:110/101")),
    ("--mu", dict(default="", help="second weight")),
    ("--coords", dict(default="", help="superweight coordinates")),
    ("--mu-coords", dict(default="", help="second superweight")),
    ("--word", dict(default="", help="comma-separated colors")),
    ("--colors", dict(default="", help="KLR colors")),
    ("--d", dict(type=int, default=2, help="number of strands")),
    ("--m", dict(type=int, default=2, help="nil-Hecke rank")),
    ("--cap", dict(type=int, default=8, help="graded degree cap")),
    ("--max-r", dict(type=int, default=4, dest="max_r",
                     help="window budget for prinjective search")),
    ("--max-block", dict(type=int, default=0, dest="max_block",
                         help="refuse blocks larger than this (0 = unlimited)")),
    ("--threads", dict(type=int, default=1)),
    ("--out", dict(default="", help="write output to FILE")),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parsing leaves it unchanged."""
    parser = _Parser(
        prog="superkl",
        description="exact canonical-basis and crystal combinatorics "
                    "for tensor products of quantum exterior powers")
    parser.add_argument("command", choices=sorted(COMMANDS))
    for flag, options in _OPTIONS:
        parser.add_argument(flag, **options)
    return parser


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, one join per container.

    Handles str, int, bool, None, lists and dicts with str keys, the types
    every payload is made of, and writer nodes (``_List``), each rendered
    by itself at the indent it is handed; anything else, a non-str key
    included, is a TypeError.  str, dict, nodes and list, the bulk of a
    payload, are tested first.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is dict:
        return _dict_text(obj, indent)
    if kind is _List:
        return obj.json_text(indent)
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


# flags whose values may start with a minus sign: intervals, coordinates, colors
_SIGNED_FLAGS = frozenset(("--interval", "--coords", "--mu-coords", "--colors", "--word"))


def _is_signed_flag(arg: str) -> bool:
    """Whether arg names a signed flag as argparse resolves it: the one
    option it spells or abbreviates.  No signed flag is the prefix of
    another option, so spelled in full it is its own unique match."""
    matches = [flag for flag, _ in _OPTIONS if flag.startswith(arg)] if arg[:2] == "--" else []
    return len(matches) == 1 and matches[0] in _SIGNED_FLAGS


def _join_signed_values(argv) -> list[str]:
    """argv with ``FLAG VALUE`` written ``FLAG=VALUE`` for a signed flag and a
    value that starts with '-' and a digit, which argparse would read as a flag."""
    out: list[str] = []
    for arg in argv:
        if out and arg[:1] == "-" and arg[1:2].isdigit() and _is_signed_flag(out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _join_signed_values(sys.argv[1:] if argv is None else argv))
        if args.max_block < 0:  # 0 is unlimited; a negative budget refuses every block
            raise SuperklError(f"--max-block must be at least 0, got {args.max_block}")
        try:
            result = COMMANDS[args.command](args)
        except Unknown as exc:  # undecided: the payload is the output, in JSON
            text, code = _json_text({"command": args.command, **exc.payload}), 2
        else:
            payload, rows = result[0], result[1]
            dot = result[2] if len(result) > 2 else None
            meta = {"command": args.command, "interval": args.interval}
            if args.n or args.c:
                tnc = _parse_type(args)
                meta["type"] = {"n": list(tnc.n), "c": list(tnc.c)}
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
