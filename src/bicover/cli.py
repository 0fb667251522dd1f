"""Command-line front end tying constructions, verification, bounds, exact
search, and the probabilistic diagnostics together with reproducible file I/O.

Exit codes: 0 success, 1 semantic failure (invalid covering, unreached
target, exhausted budget), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys
from math import comb, isnan

from . import bounds as bnd
from . import codes, covering, diagnostics, exact, graphs
from .errors import (BicoverError, BudgetExhausted, DomainError,
                     GroundSetMismatch, NoConstruction, ParseError,
                     RangeError, TargetUnreached)

SCHEMA_VERSION = 1
EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

METHODS = ("even-weight", "gv", "bch", "hadamard", "balanced", "coloring")


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
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


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
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def _balanced_guarantee(n, lam):
    if n % 2:
        raise DomainError(f"balanced construction needs even n, got {n}")
    guaranteed = comb(n - 2, n // 2 - 1)
    if lam > guaranteed:
        raise DomainError(
            f"balanced covering of {n} vertices guarantees lambda = {guaranteed}")
    return guaranteed


def _code_method(name, fam):
    """A code family's covering: a block per nonconstant row of its first n words."""
    def capacity(n, lam):
        code = codes.build_code(name, n, lam)
        return n * (code.length - len(covering.degenerate_rows(code, n)))

    def build(n, lam):
        code = codes.build_code(name, n, lam)
        return covering.code_to_covering(code, n), fam.params(code)
    return fam.guarantee, capacity, build


# construct's (n, lambda) methods as (guarantee, capacity, build), in the
# sweep's tie-break order; ``capacity`` builds no covering.
_METHODS = {
    **{fam.method: _code_method(name, fam)
       for name, fam in codes.FAMILIES.items() if fam.method},
    "balanced": (_balanced_guarantee,
                 lambda n, lam: n * covering.balanced_block_count(n),
                 lambda n, lam: (covering.balanced_bipartitions_covering(n), {})),
}
# Reached through codes.build_code; named so that bench/spans.py, which wraps
# the module functions this module names, times the even-weight code alone.
_TRACED_BUILDERS = (codes.even_weight_code,)


def _cmd_construct(args):
    if args.method == "coloring":
        if args.graph is None:
            raise DomainError("the coloring method needs --graph")
        g = graphs.parse_graph(_read(args.graph))
        if args.n is not None and args.n != g.n:
            raise DomainError(f"--n {args.n} disagrees with the graph's {g.n} vertices")
        if args.lam != 1:
            raise DomainError("coloring-based coverings guarantee lambda = 1 only")
        colors = graphs.greedy_coloring(g)
        cov, guaranteed, params = (covering.coloring_to_covering(g, colors), 1,
                                   {"colors": max(colors) + 1 if colors else 0})
    else:
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
        "blocks": len(cov.blocks),
        "capacity": covering.capacity(cov),
        "guaranteed_lambda": guaranteed,
        "requested_lambda": args.lam,
    }
    sidecar = _sidecar_path(args.out)
    _write(sidecar, json.dumps({**_header("construct", args), "report": report},
                               indent=2))
    _emit({**_header("construct", args), "out": args.out,
           "sidecar": sidecar, "report": report})
    return EXIT_OK


def _sidecar_path(out):
    return (out[:-5] if out.endswith(".json") else out) + ".report.json"


def _cmd_verify(args):
    cov = covering.parse_covering(_read(args.path))
    if args.graph is not None:
        target = graphs.parse_graph(_read(args.graph))
    else:
        if args.n is None:
            raise DomainError("pass --n or --graph")
        target = args.n
    try:
        report = covering.verify(cov, target, args.lam)
    except GroundSetMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    _emit({**_header("verify", args), "report": report.to_dict()})
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_bounds(args):
    if args.graph is not None:
        g = graphs.parse_graph(_read(args.graph))
        report = bnd.graph_report(g, limit=args.limit)
    else:
        if args.n is None:
            raise DomainError("pass --n and --lambda, or --graph")
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
                                max_blocks=args.max_blocks,
                                node_limit=args.node_limit)
    try:
        value, witness = exact.exact_cap(args.n, args.lam, budget)
    except BudgetExhausted as e:
        _emit({**_header("exact", args), "status": "bracket",
               "value": None, "lower": e.lower, "upper": e.upper,
               "witness": None})
        return EXIT_FAIL
    _emit({**_header("exact", args), "status": "optimal", "value": value,
           "witness": json.loads(covering.serialize_covering(witness))})
    return EXIT_OK


def _cmd_proofcheck(args):
    cov = covering.parse_covering(_read(args.path))
    mode = "sampled" if args.sampled else "exhaustive"
    kwargs = {"mode": mode}
    if args.sampled:
        kwargs.update(seed=args.seed, trials=args.trials)
    checks = []
    if args.graph is not None:
        g = graphs.parse_graph(_read(args.graph))
        base = covering.verify(cov, g, 1)
        if base.ok:
            checks.append(diagnostics.check_event_overlap(
                cov, g, limit=args.limit, **kwargs))
            checks.append(diagnostics.check_independent_event_sets(
                cov, g, **kwargs))
    else:
        if args.n is None:
            raise DomainError("pass --n and --lambda, or --graph")
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


def _sweep_row(n, lam, c, exact_max_n, node_limit):
    row = {"n": n, "lambda": lam,
           "lb_edge_count": bnd.edge_count_lower(n, lam),
           "lb_tail": round(bnd.tail_lower(n, lam), 6)}
    for key, fn, fargs in (
            ("ub_even_weight", bnd.upper_even_weight, (n,)),
            ("ub_gv", bnd.upper_gv, (n, lam)),
            ("ub_linear", bnd.upper_linear, (n, lam, c) if c is not None else None),
            ("ub_bch", bnd.upper_bch, (n, lam))):
        if fargs is None or (key == "ub_even_weight" and lam > 2):
            row[key] = None
            continue
        try:
            row[key] = round(float(fn(*fargs)), 6)
        except DomainError:
            row[key] = None
    best = None
    for method, (guarantee, capacity, _) in _METHODS.items():
        try:
            guarantee(n, lam)
            cap = capacity(n, lam)
        except (BicoverError, ValueError):
            continue
        if best is None or cap < best[1]:
            best = (method, cap)
    row["best_construction"] = best[0] if best else None
    row["best_capacity"] = best[1] if best else None
    row["exact"] = None
    if n <= exact_max_n:
        try:
            value, _ = exact.exact_cap(n, lam, exact.SearchBudget(
                node_limit=node_limit))
            row["exact"] = value
        except (BudgetExhausted, DomainError):
            pass
    return row


def _cmd_sweep(args):
    ns = [int(s) for s in args.n_list.split(",") if s]
    lams = [int(s) for s in args.lambda_list.split(",") if s]
    rows = [_sweep_row(n, lam, args.c, args.exact_max_n, args.node_limit)
            for n in ns for lam in lams]
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
            _write(args.out, json.dumps(payload, indent=2))
        else:
            _emit(payload)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bicover",
        description="Bipartite covering constructions, verification, bounds, "
                    "exact search, and probabilistic diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a covering and write it to a file")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--lambda", dest="lam", type=_positive_int, required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--graph", help="graph JSON path (coloring method)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a covering file against a target")
    p.add_argument("path")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--lambda", dest="lam", type=_positive_int, required=True)
    p.add_argument("--graph")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="print all applicable capacity bounds")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--lambda", dest="lam", type=_positive_int, default=1)
    p.add_argument("--graph")
    p.add_argument("--c", type=float, help="rate parameter for the linear upper bound")
    p.add_argument("--limit", type=_positive_int, help="exact independence-number size limit")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("exact", help="exhaustive minimum-capacity search")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--lambda", dest="lam", type=_positive_int, required=True)
    p.add_argument("--max-capacity", type=_positive_int, default=64)
    p.add_argument("--max-blocks", type=_positive_int, default=16)
    p.add_argument("--node-limit", type=_positive_int, default=2_000_000)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("proofcheck", help="replay the probabilistic proof devices")
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
    p.set_defaults(func=_cmd_proofcheck)

    p = sub.add_parser("sweep", help="tabulate bounds and constructions over a grid")
    p.add_argument("--n-list", type=_positive_int_list, required=True)
    p.add_argument("--lambda-list", type=_positive_int_list, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.add_argument("--c", type=float)
    p.add_argument("--exact-max-n", type=int, default=4)
    p.add_argument("--node-limit", type=_positive_int, default=2_000_000)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, RangeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (TargetUnreached, NoConstruction, BudgetExhausted, DomainError,
            BicoverError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
