"""The construction table against the if-chains it replaced.

Over n = 2..130 and a few large n, at lambda = 1..8, every CLI method must
give the same covering, guaranteed lambda, parameters and sweep capacity as
the old builder, ``build_code``, ``k_best`` and ``bch_backed`` the same
answers, and every path the same exception class where the old one raised.
"""

from __future__ import annotations

import json

import pytest

import reference_paths as ref
from bicover import bounds, codes, covering
from bicover.cli import _METHODS, main
from bicover.covering import capacity, serialize_covering
from bicover.errors import BicoverError, TargetUnreached
from bicover.graphs import random_graph, serialize_graph

NS = (*range(2, 131), 256, 1000, 2048, 4096)
LAMS = range(1, 9)


def outcome(fn, *args):
    """fn's result, or the class of the library error (or ValueError) it raised."""
    try:
        return fn(*args)
    except (BicoverError, ValueError) as e:
        return type(e)


@pytest.fixture(scope="module", autouse=True)
def shared_scans():
    """Both paths share each greedy scan and each BCH enumeration.

    The builders themselves are unchanged and tested elsewhere; caching
    them keeps the grid fast while every choice of length, field, target
    and family still runs on both sides.  A complete BCH codebook does not
    depend on the target, so it is cached without it.
    """
    gv, bch = {}, {}
    real_gv, real_bch = codes.greedy_gv_code, codes.bch_extended_code

    def greedy_gv_code(k, d, target, **caps):
        if (k, d, target) not in gv:
            try:
                gv[k, d, target] = real_gv(k, d, target, **caps)
            except TargetUnreached as e:
                gv[k, d, target] = e
        if isinstance(gv[k, d, target], TargetUnreached):
            raise gv[k, d, target]
        return gv[k, d, target]

    def bch_extended_code(m, d, target=None, **caps):
        complete = 1 << codes.bch_dimension(m, d) <= codes.DEFAULT_WORD_CAP
        key = (m, d) if complete else (m, d, target)
        if key not in bch:
            bch[key] = real_bch(m, d, target, **caps)
        return bch[key]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "greedy_gv_code", greedy_gv_code)
        mp.setattr(codes, "bch_extended_code", bch_extended_code)
        yield


def new_construct(method, n, lam):
    guarantee, _, build = _METHODS[method]
    guaranteed = guarantee(n, lam)
    cov, params = build(n, lam)
    return cov, guaranteed, params


def new_capacity(method, n, lam):
    guarantee, capacity_of, _ = _METHODS[method]
    guarantee(n, lam)
    return capacity_of(n, lam)


def too_big(method, n):
    """Coverings the grid does not build: about 1 GB of frozensets for the
    Hadamard covering of 4096 vertices, 352716 blocks for balanced n = 22."""
    return (method == "hadamard" and n >= 2048) or (method == "balanced" and n > 16)


@pytest.mark.parametrize("n", NS)
def test_construct_and_sweep_match_the_old_builder(n):
    for lam in LAMS:
        for method in ("even-weight", "gv", "bch", "hadamard", "balanced"):
            where = (method, n, lam)
            if too_big(method, n):
                # The old guarantee and capacity, by formula: here n = 2^m
                # and lam <= 8 <= n/2 for hadamard.
                old = (outcome(ref.balanced, n, lam) if method == "balanced"
                       else (n // 2, n * (n - 1)))
                guarantee = _METHODS[method][0]
                new = outcome(lambda: (guarantee(n, lam), new_capacity(method, n, lam)))
                assert new == old, where
                if method == "hadamard":
                    code = codes.build_code("hadamard", n, lam)
                    assert codes.FAMILIES["hadamard"].params(code) == {
                        "m": n.bit_length() - 1}
                continue
            old = outcome(ref.build_covering, method, n, lam)
            new = outcome(new_construct, method, n, lam)
            cap = outcome(new_capacity, method, n, lam)
            if isinstance(old, type):
                assert (new, cap) == (old, old), where
                continue
            assert isinstance(new, tuple), where
            assert serialize_covering(new[0]) == serialize_covering(old[0]), where
            assert new[1:] == old[1:], where
            assert cap == capacity(old[0]), where


@pytest.mark.parametrize("n", NS)
def test_codes_match_the_old_paths(n):
    for lam in LAMS:
        assert outcome(codes.k_best, n, lam) == outcome(ref.k_best, n, lam), (n, lam)
        assert bounds.bch_backed(n, lam) == ref.bch_backed(n, lam), (n, lam)
        for name in ref._FAMILIES:
            assert (outcome(codes.build_code, name, n, lam)
                    == outcome(ref.build_code, name, n, lam)), (name, n, lam)


@pytest.mark.parametrize("m", range(1, 9))
def test_hadamard_covering_is_the_hadamard_code_covering(m):
    assert serialize_covering(covering.hadamard_covering(m)) == serialize_covering(
        ref.hadamard_covering(m))


@pytest.mark.parametrize("n,p,seed", [(1, 0.5, 0), (5, 0.3, 1), (12, 0.5, 3),
                                      (30, 0.7, 2), (40, 0.2, 5)])
def test_coloring_matches_the_old_builder(tmp_path, capsys, n, p, seed):
    g = random_graph(n, p, seed)
    gpath, out = tmp_path / "g.json", tmp_path / "c.json"
    gpath.write_text(serialize_graph(g))
    for lam in (1, 2):
        code = main(["construct", "--lambda", str(lam), "--method", "coloring",
                     "--graph", str(gpath), "--out", str(out)])
        old = outcome(ref.build_covering, "coloring", n, lam, g)
        stdout = capsys.readouterr().out
        if isinstance(old, type):
            assert code == 1
            continue
        report = json.loads(stdout)["report"]
        assert code == 0 and out.read_text() == serialize_covering(old[0])
        assert (report["guaranteed_lambda"], report["params"]) == old[1:]
