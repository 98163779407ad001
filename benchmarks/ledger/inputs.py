"""Workload inputs, generated from the workload seed.

Everything a workload sends to the program is made here, before any timing
starts: seed-node panels, open-loop arrival schedules, request mixes and
planned edge-mutation batches.  The same seed gives byte-identical inputs.
Nothing in this module imports the program except to read a graph's
degrees, so the program only ever sees the generated inputs.
"""

from __future__ import annotations

import numpy as np

#: ``repro-cli serve --generate`` spec of the shared 100k-node graph.
GRAPH_SPEC = "chung-lu,n=100000,gamma=2.5,min_degree=2,max_degree=200,seed=11"
GRAPH_NAME = "bench-100k"
GRAPH_N = 100_000
GRAPH_M = 215_297

#: Fixed draw for the panels that must not move with the workload seed
#: (the cluster-teaplus seed panel and every quality probe panel).
PANEL_SEED = 20190630

#: Hot-seed mix of serve-hot-http and mutate-mix.
HOT_HUBS = 4096
HOT_SHARE = 0.9
ZIPF_EXPONENT = 1.1

#: serve-open: share of mc-ppr requests (the rest are monte-carlo).
PPR_SHARE = 0.15


def check_graph(graph) -> None:
    """Fail unless ``graph`` is ``bench-100k`` as specified."""
    if (graph.num_nodes, graph.num_edges) != (GRAPH_N, GRAPH_M):
        raise RuntimeError(f"{GRAPH_NAME} has n={graph.num_nodes}, m={graph.num_edges}")


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (workload seed, stream) pair."""
    return np.random.default_rng([int(seed), *stream])


def arrivals(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted due times of a Poisson process conditioned on its count.

    Exactly ``round(rate * seconds)`` arrivals, placed as sorted uniforms
    over the window: the gaps are those of a Poisson process, but the count
    (and so the offered load) does not vary with the seed.
    """
    count = int(round(rate * seconds))
    return np.sort(rng.uniform(0.0, seconds, count))


def exact_share(count: int, share: float, rng: np.random.Generator) -> np.ndarray:
    """A shuffled boolean mask with exactly ``round(share * count)`` trues."""
    mask = np.zeros(count, dtype=bool)
    mask[: int(round(share * count))] = True
    rng.shuffle(mask)
    return mask


def zipf_weights(count: int, exponent: float = ZIPF_EXPONENT) -> np.ndarray:
    """Normalized Zipf probabilities over ranks ``1..count``."""
    weights = np.arange(1, count + 1, dtype=float) ** -exponent
    return weights / weights.sum()


def hot_seeds(
    hubs: np.ndarray, num_nodes: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """The hot-seed mix: 90% Zipf over ``hubs`` (rank order), 10% uniform."""
    hot = exact_share(count, HOT_SHARE, rng)
    seeds = rng.integers(0, num_nodes, count)
    ranks = rng.choice(len(hubs), size=int(hot.sum()), p=zipf_weights(len(hubs)))
    seeds[hot] = np.asarray(hubs)[ranks]
    return seeds.astype(np.int64)


def hot_seed_stream(hubs: np.ndarray, num_nodes: int, rng: np.random.Generator, block: int = 1024):
    """The hot-seed mix as an endless stream, drawn ``block`` seeds at a
    time, for a closed loop whose request count is not known in advance."""
    while True:
        yield from hot_seeds(hubs, num_nodes, block, rng).tolist()


def open_schedule(seed: int, stream: int, rate: float, seconds: float):
    """serve-open at one rate: due offsets, uniform seed nodes, mc-ppr mask."""
    rng = rng_for(seed, stream)
    offsets = arrivals(rate, seconds, rng)
    nodes = rng.integers(0, GRAPH_N, offsets.size)
    return offsets, nodes, exact_share(offsets.size, PPR_SHARE, rng)


def hot_schedule(seed: int, stream: int, hubs: np.ndarray, rate: float, seconds: float):
    """Open-loop hot-seed reads: due offsets and seed nodes."""
    rng = rng_for(seed, stream)
    offsets = arrivals(rate, seconds, rng)
    return offsets, hot_seeds(hubs, GRAPH_N, offsets.size, rng)


def interleave_panels(panels: dict[str, list[int]], seed: int) -> list[tuple[str, int]]:
    """Visit order over several seed panels: shuffled per panel, then
    interleaved, so a window cut short still covers every graph evenly."""
    rng = rng_for(seed, 1)
    shuffled = {
        name: [nodes[i] for i in rng.permutation(len(nodes))]
        for name, nodes in sorted(panels.items())
    }
    order: list[tuple[str, int]] = []
    for position in range(max(len(nodes) for nodes in shuffled.values())):
        for name, nodes in shuffled.items():
            if position < len(nodes):
                order.append((name, int(nodes[position])))
    return order


def edge_keys(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Sorted ``u * n + v`` keys (``u < v``) of a CSR graph's edges."""
    degrees = np.diff(indptr)
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    cols = np.asarray(indices, dtype=np.int64)
    keep = rows < cols
    return np.sort(rows[keep] * n + cols[keep])


def plan_mutations(
    keys: np.ndarray, n: int, batches: int, per_side: int, rng: np.random.Generator
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Plan ``batches`` mutation batches against a model edge set.

    Each batch removes ``per_side`` present edges and adds ``per_side``
    absent ones, so every batch is valid when applied in order.  Returns
    the batches as ``(add, remove)`` arrays of ``(u, v)`` rows and the
    model's final sorted edge keys.
    """
    keys = np.asarray(keys, dtype=np.int64)
    plan = []
    for _ in range(batches):
        gone = np.sort(rng.choice(keys.size, size=per_side, replace=False))
        removed = keys[gone]
        added = np.empty(0, dtype=np.int64)
        while added.size < per_side:
            u = rng.integers(0, n, 2 * per_side)
            v = rng.integers(0, n, 2 * per_side)
            fresh = np.minimum(u, v) * n + np.maximum(u, v)
            fresh = fresh[u != v]
            at = np.searchsorted(keys, fresh)
            present = (at < keys.size) & (keys[np.minimum(at, keys.size - 1)] == fresh)
            fresh = fresh[~present]
            # Keep first occurrences only, in draw order.
            _, first = np.unique(np.concatenate([added, fresh]), return_index=True)
            added = np.concatenate([added, fresh])[np.sort(first)][:per_side]
        keys = np.delete(keys, gone)
        added_sorted = np.sort(added)
        keys = np.insert(keys, np.searchsorted(keys, added_sorted), added_sorted)
        plan.append((_pairs(added, n), _pairs(removed, n)))
    return plan, keys


def _pairs(keys: np.ndarray, n: int) -> np.ndarray:
    return np.column_stack([keys // n, keys % n]).astype(np.int64)
