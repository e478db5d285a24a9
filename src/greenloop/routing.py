"""Tabular Q-learning for waste-collection routes over a street graph.

State is (current node, bitmask of serviced bins), actions are unvisited
bins, and the reward of a traversal is the negative of its emissions
(distance times per-km emission rate). The action that services the last
bin also pays the forced depot-return leg, so the learned values rank
complete collection loops. Exploration is epsilon-greedy with a linear
anneal; all randomness comes from one seeded generator, so training is
deterministic.

That generator is numpy's PCG64 `Generator` stream, replayed inside the
episode loop from raw 64-bit outputs drawn in bulk (`_raw_words`): the
loop makes one or two scalar draws per step, and a `Generator` method call,
or any Python call, costs far more than the arithmetic that turns a raw
output into the same value. The coin `random() < epsilon` is one integer
compare of the raw word against a threshold computed once per episode
(`_explore_below`). The pick `integers(k)` is Lemire's multiply-shift
(Lemire 2019) on 32-bit halves, written out in the loop: the low half of a
fresh word, then its high half, with numpy's rejection. NEP 19 promises no
stream stability across numpy versions, so the tests pin the loop's draws
to a Python replay of `Generator.random` and `Generator.integers`, and that
replay to numpy, on whichever numpy is installed.

The table is a plain dict keyed by (current, visited, action) tuples,
which hash in C; it is the one stored form, the cheap one to read and
write. Training works on rows instead and publishes the table once, at
the end. It computes every leg's emissions and each node's reachable bins
once per graph, so the episode loop does no edge lookups. Each (node,
visited) state it reaches is a row under rows[node][visited]: the state's
open moves (bin, visited bit, leg emissions) in bin order, a list of their
current values, read from the starting table when the row is built on the
state's first visit, and a flag per move that its first update sets. An
exploit step is `index(max)` over the row's values and a bootstrap is the
`max` of the successor's row, so a step does one str-keyed and one
int-keyed lookup and builds no key tuple; an update writes its row slot
only. Publishing copies the starting table and stores each flagged slot,
nodes in sorted order, masks ascending and moves in bin order, so a cold
table's keys arrive already sorted. The flag, not the value, marks a
taken move: an untaken one reads 0.0, and so can a taken one on a
zero-length leg.

qtable_to_dict's entries are a serialize.Records, which write_json writes
from the table's columns without building an entry dict; qtable_from_dict
reads the written JSON back.

Every non-depot node is treated as requiring service. The tabular table
caps at 16 bins; larger cities are split into districts upstream.

The learning settings are fixed: learning rate LEARNING_RATE (0.1),
discount DISCOUNT (0.95), and an exploration rate annealed from
EPSILON_START (1.0) to EPSILON_END (0.05). Only the episode count and the
seed vary, through RLConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Callable, Mapping

import numpy as np

from .errors import DisconnectedGraph, MissingEdge, StateSpaceTooLarge
from .serialize import Records

MAX_TABULAR_BINS = 16
LEARNING_RATE = 0.1
DISCOUNT = 0.95
EPSILON_START = 1.0
EPSILON_END = 0.05
_RAW_CHUNK = 4096


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


_Move = tuple[str, int, float]


def _adjacency(
    g: CollectionGraph, bins: tuple[str, ...], legs: Mapping[tuple[str, str], float]
) -> dict[str, tuple[_Move, ...]]:
    """Per node, the (bin, visited bit, leg emissions) of each leg it has to
    a bin, in bin order."""
    bits = [(b, 1 << i) for i, b in enumerate(bins)]
    return {
        node: tuple((b, bit, legs[(node, b)]) for b, bit in bits if (node, b) in legs)
        for node in (g.depot, *bins)
    }


def _check_reachable(
    depot: str, bins: tuple[str, ...], adjacency: Mapping[str, tuple[_Move, ...]]
) -> None:
    frontier = [depot]
    seen = {depot}
    while frontier:
        for other, _, _ in adjacency[frontier.pop()]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    missing = [b for b in bins if b not in seen]
    if missing:
        raise DisconnectedGraph(f"bins unreachable from depot: {missing}")


def _raw_words(seed: int) -> Callable[[], int]:
    """The raw 64-bit outputs of np.random.default_rng(seed)'s PCG64, one
    per call, drawn from the generator in chunks."""
    bits = np.random.default_rng(seed).bit_generator
    return chain.from_iterable(
        iter(lambda: bits.random_raw(_RAW_CHUNK).tolist(), None)
    ).__next__


def _explore_below(epsilon: float) -> int:
    """The raw words u with u < this are those whose Generator.random(), the
    top 53 bits of u times 2**-53, is below epsilon: scaling by 2**53 is
    exact, and an integer is below x exactly when it is below ceil(x)."""
    return math.ceil(epsilon * 9007199254740992.0) << 11


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

    full = (1 << len(bins)) - 1
    # the forced return leg of each bin that has one
    home = {b: legs[(b, depot)] for b in bins if (b, depot) in legs}
    # numpy's Generator replayed from raw words: the coin is random() <
    # epsilon, and a pick is integers(len(opens)), whose 32-bit draws take
    # the low half of a fresh word and then its high half, kept in `half`
    next64 = _raw_words(cfg.rng_seed)
    half = None
    stored = initial.values if initial is not None else {}
    get = stored.get
    lr, discount = LEARNING_RATE, DISCOUNT
    epsilon_start, epsilon_end = EPSILON_START, EPSILON_END
    # node -> visited -> the state's row: its open moves in bin order, their
    # current values and a flag per move that its first update sets. Updates
    # write only the row; the table is published from the rows at the end.
    rows: dict[str, dict[int, tuple[list[_Move], list[float], bytearray]]] = {
        node: {} for node in adjacency
    }

    for episode in range(cfg.episodes):
        if cfg.episodes > 1:
            frac = episode / (cfg.episodes - 1)
        else:
            frac = 0.0
        explore = _explore_below(epsilon_start + (epsilon_end - epsilon_start) * frac)

        current, visited = depot, 0
        trajectory = []
        while visited != full:
            state_rows = rows[current]
            row = state_rows.get(visited)
            if row is None:
                opens = [m for m in adjacency[current] if not visited & m[1]]
                if not opens:
                    raise DisconnectedGraph(f"no unvisited bin reachable from {current!r}")
                if stored:
                    vals = [get((current, visited, m[0]), 0.0) for m in opens]
                else:
                    vals = [0.0] * len(opens)
                row = state_rows[visited] = (opens, vals, bytearray(len(opens)))
            opens, vals, written = row
            if next64() < explore:
                k = len(opens)
                i = 0
                if k > 1:
                    # Lemire's multiply-shift: redraw while the low word of
                    # half * k is below (2**32 - k) % k, which is below k
                    while True:
                        if half is None:
                            u = next64()
                            half = u >> 32
                            m = (u & 0xFFFFFFFF) * k
                        else:
                            m = half * k
                            half = None
                        low = m & 0xFFFFFFFF
                        if low >= k or low >= (0x100000000 - k) % k:
                            break
                    i = m >> 32
            else:
                # index(max) keeps the first maximum, as a `>` scan would.
                i = vals.index(max(vals))
            action, mask, leg = opens[i]
            reward = -leg
            visited |= mask
            if visited == full:
                # Forced return leg: charge it on the closing action.
                if action not in home:
                    raise MissingEdge(f"no edge between {action!r} and {depot!r}")
                reward -= home[action]
            trajectory.append((vals, i, written, reward))
            current = action
        # Apply the updates newest-first so the forced return leg reaches
        # the early decisions within a single episode. Each step bootstraps
        # from its successor's row just after that row's update; the last
        # step ends the tour, whose all-visited state has value 0.
        best_next = 0.0
        for vals, i, written, r in reversed(trajectory):
            old = vals[i]
            vals[i] = old + lr * (r + discount * best_next - old)
            written[i] = 1
            best_next = max(vals)

    # Publish each updated slot once, nodes in sorted order, masks ascending
    # and moves in bin order: a cold table's keys arrive in sorted order.
    values = dict(stored)
    for node in sorted(rows):
        for visited, (opens, vals, written) in sorted(rows[node].items()):
            for m, v, w in zip(opens, vals, written):
                if w:
                    values[(node, visited, m[0])] = v
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
        candidates = [(b, mask) for b, mask, _ in adjacency[current] if not visited & mask]
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


_current, _visited, _action = map(itemgetter, range(3))


def qtable_to_dict(q: QTable, version: int = 1) -> dict:
    """{"version": version, "entries": Records over the table's sorted keys}.

    write_json and canonical_dumps write the entries as the bytes of their
    {"action", "current", "value", "visited"} dicts, from columns of each
    slice of keys, so no entry dict is built; json.dumps cannot write them.
    """
    values = q.values

    def columns(keys):
        # itemgetter maps, not zip(*keys): zip allocates an iterator per
        # key, which sets off the cyclic collector over the whole heap
        return (
            list(map(_action, keys)), list(map(_current, keys)),
            list(map(values.__getitem__, keys)), list(map(_visited, keys)),
        )

    entries = Records(("action", "current", "value", "visited"), sorted(values), columns)
    return {"version": version, "entries": entries}


def qtable_from_dict(doc: Mapping) -> QTable:
    values = {
        (e["current"], int(e["visited"]), e["action"]): float(e["value"])
        for e in doc["entries"]
    }
    return QTable(values=values)
