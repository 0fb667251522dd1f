"""Command-line front end tying constructions, verification, bounds, exact
search, and the probabilistic diagnostics together with reproducible file I/O.

Exit codes: 0 success, 1 semantic failure (invalid covering, unreached
target, exhausted budget), 2 usage or parse errors and ground-set mismatches.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
from math import comb, isnan

import numpy as np

from . import bounds as bnd
from . import codes, covering, diagnostics, exact, graphs
from .errors import (BicoverError, BudgetExhausted, DomainError,
                     GroundSetMismatch, ParseError, RangeError,
                     SizeLimitExceeded)

SCHEMA_VERSION = 1
EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

def _positive_int(text):
    """argparse type: a positive integer, so that bad values exit with the usage code."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_int_list(text):
    """argparse type: comma-separated positive integers; keeps the text, which
    the JSON header echoes.  Empty items are skipped."""
    for item in filter(None, text.split(",")):
        _positive_int(item)
    return text


def _emit(payload):
    sys.stdout.writelines(_json_chunks(payload))
    sys.stdout.write("\n")


def _json_text(obj):
    """``json.dumps(obj, indent=2)``; see ``_json_chunks``."""
    return "".join(_json_chunks(obj))


_PAIR_BATCH = 4096  # int pairs per piece


def _json_chunks(obj, pad="\n"):
    """The text of ``json.dumps(obj, indent=2)`` in pieces, rendered here for
    str-keyed dicts and lists, which ``pad`` (a newline and the current
    indent) lays out, with a (k, 2) integer numpy array written as the list
    of its k int pairs.

    ``indent`` makes ``json`` use its pure-Python encoder, which is slow on
    a long list of violating pairs; here the pairs of an array are written
    by ``_pair_batches``, one batch per piece, so that the text is never
    held twice and no pair becomes a Python tuple.
    """
    inner = pad + "  "
    sep = "," + inner
    if type(obj) is dict and all(type(key) is str for key in obj):
        ends = "{}"
        items = [(encode_basestring_ascii(key) + ": ", value)
                 for key, value in obj.items()]
    elif type(obj) in (list, tuple):
        ends = "[]"
        items = [("", item) for item in obj]
    elif (type(obj) is np.ndarray and obj.ndim == 2 and obj.shape[1] == 2
          and obj.dtype.kind in "iu"):
        if not len(obj):
            yield "[]"
            return
        yield from _pair_batches(obj, inner)
        yield pad + "]"
        return
    else:
        yield _json_piece(obj, pad)
        return
    if not items:
        yield ends
        return
    start = ends[0] + inner
    for head, value in items:
        if type(value) in (dict, list, tuple, np.ndarray):
            yield start + head
            yield from _json_chunks(value, inner)
        else:
            yield start + head + _json_piece(value, inner)
        start = sep
    yield pad + ends[1]


def _pair_batches(pairs, inner):
    """The text of a nonempty (k, 2) int array's pairs, as ``json.dumps``
    lays them out at indent ``inner``, from the list's opening bracket to
    its last pair, in pieces of at most _PAIR_BATCH pairs.

    Where the values span no more than the array's entries, each value of
    [min, max] becomes a ``str`` once, in a label table that both columns
    gather from, and a batch is one join over its gathered labels.  Where
    they span more (a few pairs at n = 2^20, say), that table would cost
    more than the ``str`` per entry it saves: a batch is then one
    ``%``-format, the pair template repeated over its flattened ints.
    """
    sep = "," + inner
    opener = "[" + inner + "  "
    lo, hi = int(pairs.min()), int(pairs.max())
    yield "[" + inner
    if hi - lo >= pairs.size:
        pair = f"{opener}%d,{inner}  %d{inner}]"
        for k in range(0, len(pairs), _PAIR_BATCH):
            batch = pairs[k:k + _PAIR_BATCH]
            text = sep.join([pair] * len(batch)) % tuple(batch.ravel().tolist())
            yield (sep if k else "") + text
        return
    span = hi - lo + 1
    digits = [str(v) for v in range(lo, hi + 1)]
    # Entry i writes the value lo + i as a pair's first member, entry
    # span + i as its second, with the pair's close and the separator after.
    close = inner + "]" + sep
    table = np.array([opener + d for d in digits]
                     + ["," + inner + "  " + d + close for d in digits], dtype=object)
    # Offsets from lo, in a type that holds them for every integer dtype.
    wide = np.uint64 if pairs.dtype == np.uint64 else np.int64
    for k in range(0, len(pairs), _PAIR_BATCH):
        offsets = np.subtract(pairs[k:k + _PAIR_BATCH], lo, dtype=wide)
        offsets[:, 1] += span
        text = "".join(table[offsets].ravel().tolist())
        yield text if k + _PAIR_BATCH < len(pairs) else text[:-len(sep)]


def _json_piece(obj, pad):
    """``json.dumps(obj, indent=2)`` in one piece, its lines after the first
    indented by ``pad``: ints and strs directly, the rest by ``json``."""
    if type(obj) is int:
        return repr(obj)
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj, indent=2).replace("\n", pad)
    return json.dumps(obj)  # indent lays out containers only


def _write(path, text):
    """Write text to path, overwriting an existing file in place.

    The file is not truncated to zero before the write, only cut to the new
    length after it: on file systems that flush a truncated file's data
    when it is closed (ext4's default ``auto_da_alloc``), truncate-then-write
    can cost tens of milliseconds per rewrite.  Only regular files are cut,
    so devices, pipes and FIFOs work as with ``open(path, "w")``.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e}") from e


def _header(command, args, skip=("func", "command")):
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in skip and v is not None}
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "config": config}


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def _read_graph(args):
    """The --graph target; an --n that disagrees with it is refused."""
    g = graphs.parse_graph(_read(args.graph))
    if args.n is not None and args.n != g.n:
        raise DomainError(f"--n {args.n} disagrees with the graph's {g.n} vertices")
    return g


def _hadamard_guarantee(n, lam):
    if n & (n - 1):
        raise DomainError(f"hadamard construction needs n a power of 2, got {n}")
    if lam > n // 2:
        raise DomainError(f"hadamard covering of {n} vertices guarantees lambda = {n // 2}")
    return n // 2


def _balanced_guarantee(n, lam):
    if n % 2:
        raise DomainError(f"balanced construction needs even n, got {n}")
    covering.balanced_block_count(n)  # refuses an oversize n before the binomial
    guaranteed = comb(n - 2, n // 2 - 1)
    if lam > guaranteed:
        raise DomainError(
            f"balanced covering of {n} vertices guarantees lambda = {guaranteed}")
    return guaranteed


def _code_size(code):
    return {"k": code.length, "words": len(code)}


def _code_method(family, guarantee, params=_code_size):
    """The row of a code family's covering, a block per nonconstant row of
    its first n words; ``params(code)`` is what construct reports."""
    def capacity(n, lam):
        code = codes.build_code(family, n, lam)
        return n * (code.length - len(covering.degenerate_rows(code, n)))

    def build(n, lam):
        code = codes.build_code(family, n, lam)
        return covering.code_to_covering(code, n), params(code)
    return guarantee, capacity, build


# construct's (n, lambda) methods as (guarantee, capacity, build), in the
# sweep's tie-break order.  ``guarantee`` gives the promised lambda and
# raises where the method refuses; ``capacity`` builds no covering.
_METHODS = {
    "even-weight": _code_method("even-weight", lambda n, lam: 2),
    "bch": _code_method("extended-bch", lambda n, lam: 2 * ((lam + 1) // 2),
                        lambda code: {**_code_size(code), "method": code.method}),
    "gv": _code_method("gv", lambda n, lam: lam),
    "hadamard": _code_method("hadamard", _hadamard_guarantee,
                             lambda code: {"m": code.length.bit_length() - 1}),
    "balanced": (_balanced_guarantee,
                 lambda n, lam: n * covering.balanced_block_count(n),
                 lambda n, lam: (covering.balanced_bipartitions_covering(n), {})),
}
METHODS = (*_METHODS, "coloring")
# Reached through codes.build_code; named so that bench/spans.py, which wraps
# the module functions this module names, times the even-weight code alone.
_TRACED_BUILDERS = (codes.even_weight_code,)


def _cmd_construct(args):
    if args.method == "coloring":
        if args.graph is None:
            raise DomainError("the coloring method needs --graph")
        g = _read_graph(args)
        if args.lam != 1:
            raise DomainError("coloring-based coverings guarantee lambda = 1 only")
        if g.n > codes.WORD_CAP:  # one color word per vertex, as for a code
            raise SizeLimitExceeded(f"a coloring covering of {g.n} vertices "
                                    f"exceeds the cap of {codes.WORD_CAP} words")
        colors = graphs.greedy_coloring(g)
        cov, guaranteed, params = (covering.coloring_to_covering(g, colors), 1,
                                   {"colors": max(colors) + 1 if colors else 0})
    else:
        if args.graph is not None:
            raise DomainError("--graph applies to the coloring method only")
        if args.n is None:
            raise DomainError("--n is required for this method")
        guarantee, _, build = _METHODS[args.method]
        guaranteed = guarantee(args.n, args.lam)
        cov, params = build(args.n, args.lam)
    _write(args.out, covering.serialize_covering(cov))
    report = {
        "method": args.method,
        "params": params,
        "n": cov.n,
        "blocks": len(cov),
        "capacity": covering.capacity(cov),
        "guaranteed_lambda": guaranteed,
        "requested_lambda": args.lam,
    }
    sidecar = _sidecar_path(args.out)
    _write(sidecar, _json_text({**_header("construct", args), "report": report}))
    _emit({**_header("construct", args), "out": args.out,
           "sidecar": sidecar, "report": report})
    return EXIT_OK


def _sidecar_path(out):
    return (out[:-5] if out.endswith(".json") else out) + ".report.json"


def _cmd_verify(args):
    cov = covering.parse_covering(_read(args.path))
    if args.graph is not None:
        target = _read_graph(args)
    else:
        if args.n is None:
            raise DomainError("pass --n or --graph")
        target = args.n
    report = covering.verify(cov, target, args.lam)
    _emit({**_header("verify", args), "report": report._payload()})
    return EXIT_OK if report.ok else EXIT_FAIL


def _refuse_limit(args):
    """--limit bounds the exact independence numbers of a --graph target only."""
    if args.limit is not None:
        raise DomainError("--limit applies to --graph targets only")


def _cmd_bounds(args):
    if args.graph is not None:
        g = _read_graph(args)
        if args.lam != 1:
            raise DomainError("graph bounds are for lambda = 1 only")
        if args.c is not None:
            raise DomainError("--c sets the linear K_n bound; graph bounds take none")
        report = bnd.graph_report(g, limit=args.limit)
    else:
        if args.n is None:
            raise DomainError("pass --n and --lambda, or --graph")
        _refuse_limit(args)
        report = bnd.multigraph_report(args.n, args.lam, c=args.c)
    if args.format == "table":
        print(f"instance: {report.instance}")
        for e in report.entries:
            value = "n/a" if isnan(e.value) else f"{e.value:.6f}"
            flags = f"  [{', '.join(e.flags)}]" if e.flags else ""
            print(f"{e.side:>5}  {e.name:<12} {value:>14}{flags}")
    else:
        _emit({**_header("bounds", args), "report": report.to_dict()})
    return EXIT_OK


def _cmd_exact(args):
    budget = exact.SearchBudget(max_capacity=args.max_capacity,
                                node_limit=args.node_limit)
    try:
        value, witness = exact.exact_cap(args.n, args.lam, budget)
    except BudgetExhausted as e:
        best = _best_construction(args.n, args.lam)
        if best is None or best[1] != e.lower:
            _emit({**_header("exact", args), "status": "bracket",
                   "value": None, "lower": e.lower,
                   "upper": best[1] if best else None, "witness": None})
            return EXIT_FAIL
        # The bracket is closed: the best construction meets the lower end,
        # so its covering, checked here, is an optimum.
        value, (witness, _) = e.lower, _METHODS[best[0]][2](args.n, args.lam)
        if (covering.capacity(witness) != value
                or not covering.verify(witness, args.n, args.lam).ok):
            raise AssertionError(f"the {best[0]} covering of capacity {value} "
                                 f"fails K_{args.n}^{args.lam}")
    _emit({**_header("exact", args), "status": "optimal", "value": value,
           "witness": json.loads(covering.serialize_covering(witness))})
    return EXIT_OK


def _cmd_proofcheck(args):
    cov = covering.parse_covering(_read(args.path))
    args.exhaustive = not args.sampled  # the echoed config follows the mode
    kwargs = {"mode": "exhaustive" if args.exhaustive else "sampled",
              "seed": args.seed, "trials": args.trials}
    checks = []
    if args.graph is not None:
        g = _read_graph(args)
        if args.lam != 1:
            raise DomainError("graph proof checks run at lambda = 1 only")
        base = covering.verify(cov, g, 1)
        if base.ok:
            checks.append(diagnostics.check_event_overlap(
                cov, g, limit=args.limit, **kwargs))
            checks.append(diagnostics.check_independent_event_sets(
                cov, g, **kwargs))
    else:
        if args.n is None:
            raise DomainError("pass --n and --lambda, or --graph")
        _refuse_limit(args)
        base = covering.verify(cov, args.n, args.lam)
        if base.ok:
            checks.append(diagnostics.check_tail_sum(cov, args.lam))
            checks.append(diagnostics.check_event_disjointness(cov, args.lam, **kwargs))
            if args.lam >= 3:
                checks.append(diagnostics.check_convex_tail_bound(cov, args.lam))
    ok = base.ok and all(c.ok for c in checks)
    _emit({**_header("proofcheck", args),
           "covering_valid": base.ok,
           "checks": [c.to_dict() for c in checks],
           "ok": ok})
    return EXIT_OK if ok else EXIT_FAIL


_SWEEP_COLUMNS = ("n", "lambda", "lb_edge_count", "lb_tail", "ub_even_weight",
                  "ub_gv", "ub_linear", "ub_bch", "best_construction",
                  "best_capacity", "exact")


# Flags of a bounds entry whose value bounds no covering of the instance.
_UNBACKED = {"formula-only", "vacuous"}


def _best_construction(n, lam):
    """(method, capacity) of the least-capacity construct method that
    guarantees lam on K_n, earlier methods winning ties; None if none does."""
    best = None
    for method, (guarantee, capacity, _) in _METHODS.items():
        try:
            guarantee(n, lam)
            cap = capacity(n, lam)
        except BicoverError:
            continue
        if best is None or cap < best[1]:
            best = (method, cap)
    return best


def _sweep_row(n, lam, c):
    # The report's entries; an inapplicable (NaN), formula-only or vacuous
    # bound prints as None.  The exact column is filled in by the caller.
    values = {e.name: None if isnan(e.value) or _UNBACKED & set(e.flags)
              else round(float(e.value), 6)
              for e in bnd.multigraph_report(n, lam, c=c).entries}
    row = {"n": n, "lambda": lam,
           "lb_edge_count": bnd.edge_count_lower(n, lam),
           "lb_tail": values["binomial-tail"],
           "ub_even_weight": values["even-weight"], "ub_gv": values["gv"],
           "ub_linear": values.get("linear"), "ub_bch": values["bch"]}
    best = _best_construction(n, lam)
    row["best_construction"] = best[0] if best else None
    row["best_capacity"] = best[1] if best else None
    row["exact"] = None
    return row


def _cmd_sweep(args):
    ns = [int(s) for s in args.n_list.split(",") if s]
    lams = [int(s) for s in args.lambda_list.split(",") if s]
    budget = exact.SearchBudget(node_limit=args.node_limit)
    exact_cols = {}  # n -> its exact column: one table build per n, no witness
    rows = []
    for n in ns:
        part = [_sweep_row(n, lam, args.c) for lam in lams]
        if n <= args.exact_max_n:
            if n not in exact_cols:
                exact_cols[n] = exact.exact_values(n, lams, budget)
            for row, value in zip(part, exact_cols[n]):
                row["exact"] = value
        rows += part
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        text = buf.getvalue()
        if args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
    else:
        payload = {**_header("sweep", args), "rows": rows}
        if args.out:
            _write(args.out, _json_text(payload))
        else:
            _emit(payload)
    return EXIT_OK


def _construct_args(p):
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--lambda", dest="lam", type=_positive_int, required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--graph", help="graph JSON path (coloring method)")
    p.add_argument("--out", required=True)


def _verify_args(p):
    p.add_argument("path")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--lambda", dest="lam", type=_positive_int, required=True)
    p.add_argument("--graph")


def _bounds_args(p):
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--lambda", dest="lam", type=_positive_int, default=1)
    p.add_argument("--graph")
    p.add_argument("--c", type=float, help="rate parameter for the linear upper bound")
    p.add_argument("--limit", type=_positive_int, help="exact independence-number size limit")
    p.add_argument("--format", choices=("json", "table"), default="json")


def _exact_args(p):
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--lambda", dest="lam", type=_positive_int, required=True)
    p.add_argument("--max-capacity", type=_positive_int, default=64)
    p.add_argument("--node-limit", type=_positive_int, default=2_000_000)


def _proofcheck_args(p):
    p.add_argument("path")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--lambda", dest="lam", type=_positive_int, default=1)
    p.add_argument("--graph")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True)
    mode.add_argument("--sampled", action="store_true")
    p.add_argument("--trials", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=_positive_int, help="exact independence-number size limit")


def _sweep_args(p):
    p.add_argument("--n-list", type=_positive_int_list, required=True)
    p.add_argument("--lambda-list", type=_positive_int_list, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.add_argument("--c", type=float)
    p.add_argument("--exact-max-n", type=int, default=4)
    p.add_argument("--node-limit", type=_positive_int, default=2_000_000)


# Each command's (help, arguments, handler), in the order --help lists them.
_COMMANDS = {
    "construct": ("build a covering and write it to a file",
                  _construct_args, _cmd_construct),
    "verify": ("check a covering file against a target", _verify_args, _cmd_verify),
    "bounds": ("print all applicable capacity bounds", _bounds_args, _cmd_bounds),
    "exact": ("exhaustive minimum-capacity search", _exact_args, _cmd_exact),
    "proofcheck": ("replay the probabilistic proof devices",
                   _proofcheck_args, _cmd_proofcheck),
    "sweep": ("tabulate bounds and constructions over a grid",
              _sweep_args, _cmd_sweep),
}


@functools.cache
def build_parser():
    """The parser of every command, built once per process."""
    parser = argparse.ArgumentParser(
        prog="bicover",
        description="Bipartite covering constructions, verification, bounds, "
                    "exact search, and probabilistic diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)  # None reads sys.argv[1:]
    try:
        return args.func(args)
    except (ParseError, RangeError, GroundSetMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BicoverError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


def entry():
    """Console-script entry: exit with main's code.

    A reader that closes the pipe early (``bicover ... | head``) ends the
    run with exit code 1 and no traceback: stdout is pointed at os.devnull,
    so the flush at interpreter exit cannot fail again (the SIGPIPE note in
    the Python ``signal`` docs).
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_FAIL)
    sys.exit(code)


if __name__ == "__main__":
    entry()
