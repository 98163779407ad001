"""Byte pins for every caller of the push scatter and the sweep's dedupe.

Each push round sums the shares it spreads by target node, the push
reserve sums each node's settled mass, and the sweep drops repeated nodes
from its ranking.  These crc32 pins were recorded while all three still
sorted to do so.  A change that alters the order in which a node's shares
are added, or which copy of a repeated node the sweep keeps, moves them.
HK-Push+ is pinned in ``tests/test_push_schedule.py``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.baselines.pr_nibble import approximate_ppr
from repro.bench.datasets import load_dataset
from repro.clustering.sweep import sweep_cut, sweep_from_ranking
from repro.hkpr.hk_push import hk_push_hkpr
from repro.hkpr.hk_relax import hk_relax
from repro.hkpr.params import HKPRParams
from repro.hkpr.tea_plus import tea_plus
from repro.ppr.push import forward_push


def _crc(array) -> int:
    array = np.asarray(array)
    little = array.dtype.newbyteorder("<")
    return zlib.crc32(np.ascontiguousarray(array, dtype=little).tobytes())


def _forward_push(graph, seed):
    outcome = forward_push(graph, seed, r_max=1e-5)
    arrays = (*outcome.reserve.arrays(), *outcome.residue.arrays())
    return (outcome.counters.push_operations, *map(_crc, arrays))


def _approximate_ppr(graph, seed):
    reserve, residue, pushes = approximate_ppr(graph, seed, eps=1e-5)
    return (pushes, *map(_crc, (*reserve.arrays(), *residue.arrays())))


def _hk_push(graph, seed):
    result = hk_push_hkpr(graph, seed, HKPRParams(delta=1.0 / graph.num_nodes))
    return (result.counters.push_operations, *map(_crc, result.estimates.arrays()))


def _hk_relax(graph, seed):
    result = hk_relax(graph, seed, HKPRParams(delta=1.0 / graph.num_nodes))
    return (result.counters.push_operations, *map(_crc, result.estimates.arrays()))


def _tea_plus_sweep(graph, seed):
    result = tea_plus(graph, seed, HKPRParams(delta=1.0 / graph.num_nodes), rng=1)
    sweep = sweep_cut(graph, result)
    return (
        sweep.best_prefix_size,
        _crc(np.array(sweep.sweep_order, dtype=np.int64)),
        _crc(np.array(sweep.conductance_profile)),
    )


CALLERS = {
    "forward_push": _forward_push,
    "approximate_ppr": _approximate_ppr,
    "hk_push_hkpr": _hk_push,
    "hk_relax": _hk_relax,
    "tea_plus_sweep": _tea_plus_sweep,
}

#: ``(caller, dataset, seed)`` -> the caller's push count (the best prefix
#: size for the sweep) and the crc32 of its little-endian output arrays:
#: reserve and residue ``(nodes, values)`` for the PPR pushes
#: (``r_max``/``eps`` 1e-5), estimate ``(nodes, values)`` for HK-Push and
#: HK-Relax at their defaults, and the TEA+ sweep's order and conductance
#: profile, all at ``delta = 1/n``.
PINNED = {
    ("forward_push", "dblp-sim", 7): (156796, 2836387588, 3108607524, 983865557, 2182256376),
    ("forward_push", "dblp-sim", 42): (140949, 2836387588, 96306670, 3724966641, 1187002232),
    ("forward_push", "dblp-sim", 1234): (118960, 1945080398, 976666769, 936747439, 841039413),
    ("forward_push", "livejournal-sim", 7): (165861, 2134875197, 3277512327, 806672937, 1638619938),
    ("forward_push", "livejournal-sim", 42): (174014, 2134875197, 3770190408, 1093077078, 2985221793),
    ("forward_push", "livejournal-sim", 1234): (148020, 2134875197, 268865530, 3267381075, 1611367402),
    ("approximate_ppr", "dblp-sim", 7): (104673, 1717192660, 1049938321, 3107232658, 1389385550),
    ("approximate_ppr", "dblp-sim", 42): (84106, 1257648973, 2660033142, 2853494577, 2207408561),
    ("approximate_ppr", "dblp-sim", 1234): (54829, 3660620071, 2244862509, 3194716880, 70437554),
    ("approximate_ppr", "livejournal-sim", 7): (77466, 1717089630, 3076714962, 10148363, 901071682),
    ("approximate_ppr", "livejournal-sim", 42): (83938, 3580358851, 3235625553, 2120049190, 393979024),
    ("approximate_ppr", "livejournal-sim", 1234): (67703, 3302575533, 2140110454, 3152642223, 1717609879),
    ("hk_push_hkpr", "dblp-sim", 7): (95746, 1652691680, 3746178966),
    ("hk_push_hkpr", "dblp-sim", 42): (77928, 1168371057, 411204023),
    ("hk_push_hkpr", "dblp-sim", 1234): (48013, 169243659, 846170934),
    ("hk_push_hkpr", "livejournal-sim", 7): (272940, 2134875197, 3687594358),
    ("hk_push_hkpr", "livejournal-sim", 42): (287387, 2134875197, 2066852651),
    ("hk_push_hkpr", "livejournal-sim", 1234): (241598, 3582338453, 954576122),
    ("hk_relax", "dblp-sim", 7): (100825, 4033556185, 401997930),
    ("hk_relax", "dblp-sim", 42): (84087, 1614350660, 2577582576),
    ("hk_relax", "dblp-sim", 1234): (52463, 2895215098, 3551196525),
    ("hk_relax", "livejournal-sim", 7): (279073, 2134875197, 1010980858),
    ("hk_relax", "livejournal-sim", 42): (291774, 2134875197, 1089047306),
    ("hk_relax", "livejournal-sim", 1234): (258310, 1886539430, 2066290611),
    ("tea_plus_sweep", "dblp-sim", 7): (1388, 423000264, 4100110476),
    ("tea_plus_sweep", "dblp-sim", 42): (1363, 3410471554, 2945123057),
    ("tea_plus_sweep", "dblp-sim", 1234): (1113, 193838014, 2057838680),
    ("tea_plus_sweep", "livejournal-sim", 7): (1479, 1534278586, 1222051999),
    ("tea_plus_sweep", "livejournal-sim", 42): (1601, 937116965, 2982268953),
    ("tea_plus_sweep", "livejournal-sim", 1234): (1249, 2054369157, 3893718405),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: load_dataset(name) for name in ("dblp-sim", "livejournal-sim")}


@pytest.mark.parametrize("key", sorted(PINNED, key=str), ids=str)
def test_push_outputs_are_pinned(graphs, key):
    caller, name, seed = key
    assert CALLERS[caller](graphs[name], seed) == PINNED[key]


#: ``(best prefix size, crc32 of sweep order, crc32 of profile)`` of a
#: sweep over 4,000 uniform draws from dblp-sim's nodes (1,777 repeats).
PINNED_REPEATS = (1478, 52620737, 2180466906)


def test_sweep_over_a_ranking_with_repeats_is_pinned(graphs):
    graph = graphs["dblp-sim"]
    ranking = np.random.default_rng(11).integers(0, graph.num_nodes, 4000)
    sweep = sweep_from_ranking(graph, ranking)
    assert len(sweep.sweep_order) == np.unique(ranking).size
    observed = (
        sweep.best_prefix_size,
        _crc(np.array(sweep.sweep_order, dtype=np.int64)),
        _crc(np.array(sweep.conductance_profile)),
    )
    assert observed == PINNED_REPEATS
