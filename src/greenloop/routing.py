"""Tabular Q-learning for waste-collection routes over a street graph.

State is (current node, bitmask of serviced bins), actions are unvisited
bins, and the reward of a traversal is the negative of its emissions
(distance times per-km emission rate). The action that services the last
bin also pays the forced depot-return leg, so the learned values rank
complete collection loops. Exploration is epsilon-greedy with a linear
anneal; all randomness comes from one seeded generator, so training is
deterministic.

That generator is numpy's PCG64 `Generator` stream, replayed in Python
(`_Draws`) from raw 64-bit outputs drawn in bulk: the episode loop makes
one scalar draw per step, and a `Generator` method call costs far more
than the arithmetic that turns a raw output into the same value. NEP 19
promises no stream stability across numpy versions, so a differential
test against `Generator.random` and `Generator.integers` guards the
replay on whichever numpy is installed.

The table is a plain dict keyed by (current, visited, action) tuples,
which hash in C. Training computes every leg's emissions and each node's
reachable bins once per graph, so the episode loop does no edge lookups.
It keeps each (node, visited) state it reaches as one row: the state's
open action keys in bin order and a list of their current values, read
from the table when the row is built on the state's first visit. An
exploit step is `index(max)` over the row's values and a bootstrap is the
`max` of the successor's row, so a step does one row lookup and no
per-action table lookups; each update writes the row slot and the table
entry together.

Every non-depot node is treated as requiring service. The tabular table
caps at 16 bins; larger cities are split into districts upstream.

The learning settings are fixed: learning rate LEARNING_RATE (0.1),
discount DISCOUNT (0.95), and an exploration rate annealed from
EPSILON_START (1.0) to EPSILON_END (0.05). Only the episode count and the
seed vary, through RLConfig.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, permutations
from typing import Iterator, Mapping

import numpy as np

from .errors import DisconnectedGraph, MissingEdge, StateSpaceTooLarge
from .serialize import Records

MAX_TABULAR_BINS = 16
LEARNING_RATE = 0.1
DISCOUNT = 0.95
EPSILON_START = 1.0
EPSILON_END = 0.05
_RAW_CHUNK = 4096
_TWO_TO_MINUS_53 = 1.0 / 9007199254740992.0


@dataclass(frozen=True)
class BinNode:
    id: str
    fill_level: float = 0.0
    is_depot: bool = False

    def __post_init__(self):
        if not 0.0 <= self.fill_level <= 1.0:
            raise ValueError(f"bin {self.id}: fill_level must be in [0, 1]")


@dataclass(frozen=True)
class EdgeAttrs:
    distance_km: float
    emission_rate_kg_per_km: float

    def __post_init__(self):
        if self.distance_km < 0 or self.emission_rate_kg_per_km < 0:
            raise ValueError("edge attributes must be >= 0")


@dataclass(frozen=True)
class CollectionGraph:
    """Depot plus service bins; edges may be listed in either direction."""

    nodes: tuple[BinNode, ...]
    edges: Mapping[tuple[str, str], EdgeAttrs]

    def __post_init__(self):
        depots = [n for n in self.nodes if n.is_depot]
        if len(depots) != 1:
            raise ValueError(f"graph needs exactly one depot, found {len(depots)}")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in graph")
        known = set(ids)
        for (a, b), attrs in self.edges.items():
            if a not in known or b not in known:
                raise ValueError(f"edge ({a}, {b}) references unknown node")
            mirror = self.edges.get((b, a))
            if mirror is not None and mirror.distance_km != attrs.distance_km:
                raise ValueError(f"asymmetric distances on edge ({a}, {b})")

    @property
    def depot(self) -> str:
        return next(n.id for n in self.nodes if n.is_depot)

    def bin_ids(self) -> tuple[str, ...]:
        """Service bins in ascending id order (the tie-break order)."""
        return tuple(sorted(n.id for n in self.nodes if not n.is_depot))

    def edge(self, a: str, b: str) -> EdgeAttrs:
        attrs = self.edges.get((a, b)) or self.edges.get((b, a))
        if attrs is None:
            raise MissingEdge(f"no edge between {a!r} and {b!r}")
        return attrs

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edges or (b, a) in self.edges


@dataclass
class QTable:
    """State-action values keyed by (current node, visited bitmask, action).

    The bitmask sets bit i once the i-th bin in sorted id order has been
    serviced. Absent keys read as 0.
    """

    values: dict[tuple[str, int, str], float] = field(default_factory=dict)

    def get(self, current: str, visited: int, action: str) -> float:
        return self.values.get((current, visited, action), 0.0)


@dataclass(frozen=True)
class RLConfig:
    """Episode count and seed of one training run."""

    episodes: int = 5000
    rng_seed: int = 0

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")


def leg_emissions(g: CollectionGraph, a: str, b: str) -> float:
    e = g.edge(a, b)
    return e.distance_km * e.emission_rate_kg_per_km


def _legs(g: CollectionGraph) -> dict[tuple[str, str], float]:
    """Emissions of every ordered leg the graph allows.

    A listed (a, b) edge takes precedence over the mirror of a listed
    (b, a), as in CollectionGraph.edge: the two may carry different
    emission rates.
    """
    legs: dict[tuple[str, str], float] = {}
    for (a, b), e in g.edges.items():
        emissions = e.distance_km * e.emission_rate_kg_per_km
        legs[(a, b)] = emissions
        legs.setdefault((b, a), emissions)
    return legs


def _adjacency(
    g: CollectionGraph, bins: tuple[str, ...], legs: Mapping[tuple[str, str], float]
) -> dict[str, tuple[tuple[str, int], ...]]:
    """Per node, the (bin, visited bit) pairs it has a leg to, in bin order."""
    bits = [(b, 1 << i) for i, b in enumerate(bins)]
    return {
        node: tuple((b, bit) for b, bit in bits if (node, b) in legs)
        for node in (g.depot, *bins)
    }


def _check_reachable(
    depot: str, bins: tuple[str, ...], adjacency: Mapping[str, tuple[tuple[str, int], ...]]
) -> None:
    frontier = [depot]
    seen = {depot}
    while frontier:
        for other, _ in adjacency[frontier.pop()]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    missing = [b for b in bins if b not in seen]
    if missing:
        raise DisconnectedGraph(f"bins unreachable from depot: {missing}")


class _Draws:
    """numpy's Generator.random() and .integers(k) replayed from raw draws.

    The values equal those of np.random.default_rng(seed) making the same
    calls, for 1 <= k <= 2**32, computed from the raw 64-bit outputs of its
    PCG64. random() is the top 53 bits of one output. integers(k) is Lemire's
    multiply-shift on a 32-bit value: the low half of a fresh output, whose
    high half is kept for the next 32-bit draw (64-bit draws leave it in
    place), with rejection below (2**32 - k) % k. integers(1) draws nothing.
    """

    def __init__(self, seed: int):
        bits = np.random.default_rng(seed).bit_generator
        self._next64 = chain.from_iterable(
            iter(lambda: bits.random_raw(_RAW_CHUNK).tolist(), None)
        ).__next__
        self._half: int | None = None

    def random(self) -> float:
        return (self._next64() >> 11) * _TWO_TO_MINUS_53

    def _next32(self) -> int:
        half = self._half
        if half is None:
            u = self._next64()
            self._half = u >> 32
            return u & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        m = self._next32() * k
        if m & 0xFFFFFFFF < k:
            threshold = (0x100000000 - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * k
        return m >> 32


def train_routing(
    g: CollectionGraph, cfg: RLConfig, initial: QTable | None = None
) -> QTable:
    """Learn state-action values over cfg.episodes seeded episodes.

    Pass `initial` to continue training from a previously learned table;
    the input table is not modified.
    """
    bins = g.bin_ids()
    if len(bins) > MAX_TABULAR_BINS:
        raise StateSpaceTooLarge(
            f"{len(bins)} bins exceeds the tabular limit of {MAX_TABULAR_BINS}"
        )
    depot = g.depot
    legs = _legs(g)
    adjacency = _adjacency(g, bins, legs)
    _check_reachable(depot, bins, adjacency)

    bit = {b: 1 << i for i, b in enumerate(bins)}
    full = (1 << len(bins)) - 1
    draws = _Draws(cfg.rng_seed)
    random, integers = draws.random, draws.integers
    values: dict[tuple[str, int, str], float] = (
        dict(initial.values) if initial is not None else {}
    )
    get = values.get
    lr, discount = LEARNING_RATE, DISCOUNT
    epsilon_start, epsilon_end = EPSILON_START, EPSILON_END
    # (node, visited) -> the state's row: its open action keys, which are
    # the keys stored in `values`, and their values. Every update writes the
    # row slot and `values` together, so the two never disagree.
    rows: dict[tuple[str, int], tuple[list[tuple[str, int, str]], list[float]]] = {}

    for episode in range(cfg.episodes):
        if cfg.episodes > 1:
            frac = episode / (cfg.episodes - 1)
        else:
            frac = 0.0
        epsilon = epsilon_start + (epsilon_end - epsilon_start) * frac

        current, visited = depot, 0
        trajectory = []
        while visited != full:
            row = rows.get((current, visited))
            if row is None:
                keys = [
                    (current, visited, b)
                    for b, mask in adjacency[current]
                    if not visited & mask
                ]
                row = rows[(current, visited)] = (keys, [get(k, 0.0) for k in keys])
            keys, vals = row
            if not keys:
                raise DisconnectedGraph(f"no unvisited bin reachable from {current!r}")
            if random() < epsilon:
                i = integers(len(keys))
            else:
                # index(max) keeps the first maximum, as a `>` scan would.
                i = vals.index(max(vals))
            key = keys[i]
            action = key[2]
            reward = -legs[(current, action)]
            visited |= bit[action]
            if visited == full:
                # Forced return leg: charge it on the closing action.
                if (action, depot) not in legs:
                    raise MissingEdge(f"no edge between {action!r} and {depot!r}")
                reward -= legs[(action, depot)]
            trajectory.append((vals, i, key, reward))
            current = action
        # Apply the updates newest-first so the forced return leg reaches
        # the early decisions within a single episode. Each step bootstraps
        # from its successor's row just after that row's update; the last
        # step ends the tour, whose all-visited state has value 0.
        best_next = 0.0
        for vals, i, key, r in reversed(trajectory):
            old = vals[i]
            vals[i] = values[key] = old + lr * (r + discount * best_next - old)
            best_next = max(vals)

    return QTable(values=values)


def greedy_route(q: QTable, g: CollectionGraph) -> tuple[str, ...]:
    """Follow argmax-Q through all bins, depot to depot; ties take lowest id."""
    bins = g.bin_ids()
    depot = g.depot
    adjacency = _adjacency(g, bins, _legs(g))
    full = (1 << len(bins)) - 1
    route = [depot]
    current, visited = depot, 0
    while visited != full:
        candidates = [(b, mask) for b, mask in adjacency[current] if not visited & mask]
        if not candidates:
            raise DisconnectedGraph(f"no unvisited bin reachable from {current!r}")
        action, action_mask = candidates[0]
        best = q.get(current, visited, action)
        for b, mask in candidates[1:]:
            v = q.get(current, visited, b)
            if v > best:
                best = v
                action, action_mask = b, mask
        route.append(action)
        current, visited = action, visited | action_mask
    route.append(depot)
    return tuple(route)


def route_emissions(g: CollectionGraph, route: tuple[str, ...] | list[str]) -> float:
    """Total kg CO2 along consecutive legs of the route."""
    total = 0.0
    for a, b in zip(route, route[1:]):
        total += leg_emissions(g, a, b)
    return total


def brute_force_route(g: CollectionGraph) -> tuple[tuple[str, ...], float]:
    """Exhaustive-permutation oracle: the cheapest complete loop."""
    bins = g.bin_ids()
    depot = g.depot
    best_route = (depot, depot)
    best_cost = 0.0 if not bins else float("inf")
    for perm in permutations(bins):
        route = (depot, *perm, depot)
        try:
            cost = route_emissions(g, route)
        except MissingEdge:
            continue
        if cost < best_cost:
            best_cost = cost
            best_route = route
    return best_route, best_cost


def qtable_to_dict(q: QTable, version: int = 1) -> dict:
    # Keys are unique, so sorting them orders the entries as sorting the
    # items would, without building and comparing (key, value) pairs.
    values = q.values
    keys = sorted(values)
    entries = [
        {"current": current, "visited": visited, "action": action, "value": v}
        for (current, visited, action), v in zip(keys, map(values.__getitem__, keys))
    ]
    return {"version": version, "entries": entries}


def qtable_to_records(q: QTable, version: int = 1) -> dict:
    """qtable_to_dict(q, version) with its entries held as columns of q.

    serialize.write_json and canonical_dumps write it as the same bytes,
    reading each slice of the sorted keys into current, visited, action
    and value columns, so no entry dict is built. Only when a column
    declines (a tuple current, a numpy.float64 value) does the standard
    library fallback build the entry dicts.
    """
    values = q.values

    def columns(keys):
        current, visited, action = zip(*keys)
        return action, current, list(map(values.__getitem__, keys)), visited

    entries = Records(("action", "current", "value", "visited"), sorted(values), columns)
    return {"version": version, "entries": entries}


def qtable_from_dict(doc: Mapping) -> QTable:
    values = {
        (e["current"], int(e["visited"]), e["action"]): float(e["value"])
        for e in doc["entries"]
    }
    return QTable(values=values)
