"""Reference Q-learning trainer keyed by a frozen RouteState dataclass.

This is the trainer greenloop.routing shipped before its state keys became
plain (current, visited, action) tuples, kept as the oracle the faster
trainer is compared against. The loop, RNG calls, float expressions and
update order are unchanged; only the table is a bare dict, and
``to_tuple_keys`` converts it to the library's key form. The learning rate,
discount and exploration bounds are read from greenloop.routing's constants
at each call, so a test that patches them changes both trainers alike.

``brute_force_route`` is the exhaustive-permutation oracle, for graphs of
a few bins. ``optimal_route`` is a Held-Karp dynamic program over the same
legs, fast enough for a district of the fixtures.

``_Draws`` is numpy's Generator replayed in Python from the raw words of
greenloop.routing._raw_words, as greenloop.routing drew its coins and picks
before the replay moved into the training loop; the reference trainer can
draw from it instead of a Generator, over words a test supplies.

``entry_dicts`` is the route-table document as greenloop.routing built it
before qtable_to_dict's entries became column-backed Records: a list of
one dict per entry, the oracle that the written bytes are compared with.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from greenloop import routing
from greenloop.errors import DisconnectedGraph, MissingEdge, StateSpaceTooLarge
from greenloop.routing import (
    MAX_TABULAR_BINS,
    CollectionGraph,
    RLConfig,
    leg_emissions,
    route_emissions,
)

_TWO_TO_MINUS_53 = 1.0 / 9007199254740992.0


@dataclass(frozen=True)
class RouteState:
    """Current node plus a visited bitmask over the sorted bin order."""

    current: str
    visited: int = 0


def to_tuple_keys(values: dict) -> dict:
    return {(s.current, s.visited, a): v for (s, a), v in values.items()}


def from_tuple_keys(values: dict) -> dict:
    return {(RouteState(c, vis), a): v for (c, vis, a), v in values.items()}


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
        self._next64 = routing._raw_words(seed)
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


def _q_update_inplace(
    values: dict,
    s: RouteState,
    a: str,
    r: float,
    s_next: RouteState,
    next_actions: list[str],
) -> None:
    best_next = 0.0
    if next_actions:
        best_next = max(values.get((s_next, nb), 0.0) for nb in next_actions)
    old = values.get((s, a), 0.0)
    values[(s, a)] = old + routing.LEARNING_RATE * (r + routing.DISCOUNT * best_next - old)


def _check_reachable(g: CollectionGraph, bins: tuple[str, ...]) -> None:
    frontier = [g.depot]
    seen = {g.depot}
    relevant = set(bins) | {g.depot}
    while frontier:
        node = frontier.pop()
        for other in relevant:
            if other not in seen and g.has_edge(node, other):
                seen.add(other)
                frontier.append(other)
    missing = [b for b in bins if b not in seen]
    if missing:
        raise DisconnectedGraph(f"bins unreachable from depot: {missing}")


def train_routing(
    g: CollectionGraph, cfg: RLConfig, initial: dict | None = None,
    generator=np.random.default_rng,
) -> dict:
    """Train from generator(cfg.rng_seed), numpy's Generator by default or
    _Draws, which has the same random() and integers(k)."""
    bins = g.bin_ids()
    if len(bins) > MAX_TABULAR_BINS:
        raise StateSpaceTooLarge(
            f"{len(bins)} bins exceeds the tabular limit of {MAX_TABULAR_BINS}"
        )
    if not bins:
        return dict(initial) if initial is not None else {}
    _check_reachable(g, bins)

    bit = {b: 1 << i for i, b in enumerate(bins)}
    full = (1 << len(bins)) - 1
    rng = generator(cfg.rng_seed)
    values: dict = dict(initial) if initial is not None else {}
    depot = g.depot

    for episode in range(cfg.episodes):
        if cfg.episodes > 1:
            frac = episode / (cfg.episodes - 1)
        else:
            frac = 0.0
        epsilon = routing.EPSILON_START + (
            routing.EPSILON_END - routing.EPSILON_START
        ) * frac

        state = RouteState(depot, 0)
        trajectory = []
        while state.visited != full:
            candidates = [
                b for b in bins
                if not state.visited & bit[b] and g.has_edge(state.current, b)
            ]
            if not candidates:
                raise DisconnectedGraph(
                    f"no unvisited bin reachable from {state.current!r}"
                )
            if rng.random() < epsilon:
                action = candidates[int(rng.integers(len(candidates)))]
            else:
                action = candidates[0]
                best = values.get((state, action), 0.0)
                for b in candidates[1:]:
                    v = values.get((state, b), 0.0)
                    if v > best:
                        best = v
                        action = b
            reward = -leg_emissions(g, state.current, action)
            next_visited = state.visited | bit[action]
            next_state = RouteState(action, next_visited)
            if next_visited == full:
                # Forced return leg: charge it on the closing action.
                reward -= leg_emissions(g, action, depot)
                next_actions: list[str] = []
            else:
                next_actions = [
                    b for b in bins
                    if not next_visited & bit[b] and g.has_edge(action, b)
                ]
            trajectory.append((state, action, reward, next_state, next_actions))
            state = next_state
        # Apply the updates newest-first so the forced return leg reaches
        # the early decisions within a single episode.
        for s, a, r, s_next, s_next_actions in reversed(trajectory):
            _q_update_inplace(values, s, a, r, s_next, s_next_actions)

    return values


def greedy_route(values: dict, g: CollectionGraph) -> tuple[str, ...]:
    bins = g.bin_ids()
    depot = g.depot
    if not bins:
        return (depot, depot)
    bit = {b: 1 << i for i, b in enumerate(bins)}
    full = (1 << len(bins)) - 1
    route = [depot]
    state = RouteState(depot, 0)
    while state.visited != full:
        candidates = [
            b for b in bins
            if not state.visited & bit[b] and g.has_edge(state.current, b)
        ]
        if not candidates:
            raise DisconnectedGraph(f"no unvisited bin reachable from {state.current!r}")
        action = candidates[0]
        best = values.get((state, action), 0.0)
        for b in candidates[1:]:
            v = values.get((state, b), 0.0)
            if v > best:
                best = v
                action = b
        route.append(action)
        state = RouteState(action, state.visited | bit[action])
    route.append(depot)
    return tuple(route)


def entry_dicts(q, version: int = 1) -> dict:
    # Keys are unique, so sorting them orders the entries as sorting the
    # items would, without building and comparing (key, value) pairs.
    values = q.values
    keys = sorted(values)
    entries = [
        {"current": current, "visited": visited, "action": action, "value": v}
        for (current, visited, action), v in zip(keys, map(values.__getitem__, keys))
    ]
    return {"version": version, "entries": entries}


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


def optimal_route(g: CollectionGraph) -> tuple[tuple[str, ...], float]:
    """The cheapest complete loop and its kg CO2, by Held-Karp.

    The legs are routing._legs, so a listed (a, b) edge takes precedence
    over the mirror of a listed (b, a), and a loop that needs a missing leg
    is never completed; with no complete loop the result is ((depot, depot),
    inf), as brute_force_route returns. Each path's cost is summed from the
    depot in route order, as route_emissions sums it; float addition is
    monotone, so the least cost is the exact float brute_force_route finds,
    though a tied loop may be another one.
    """
    bins = g.bin_ids()
    depot = g.depot
    if not bins:
        return (depot, depot), 0.0
    legs = routing._legs(g)
    # best[(visited, last)]: (cost, previous last) of the cheapest path
    # from the depot through the visited bitmask of bins, ending at bins[last]
    best = {
        (1 << i, i): (0.0 + legs[(depot, b)], None)
        for i, b in enumerate(bins) if (depot, b) in legs
    }
    n = len(bins)
    for visited in range(1, 1 << n):  # every subset before its supersets
        for last in range(n):
            if (visited, last) not in best:
                continue
            cost = best[(visited, last)][0]
            for nxt in range(n):
                leg = legs.get((bins[last], bins[nxt]))
                if visited >> nxt & 1 or leg is None:
                    continue
                key = (visited | 1 << nxt, nxt)
                if key not in best or cost + leg < best[key][0]:
                    best[key] = (cost + leg, last)
    full = (1 << n) - 1
    closing = [
        (best[(full, last)][0] + legs[(bins[last], depot)], last)
        for last in range(n) if (full, last) in best and (bins[last], depot) in legs
    ]
    if not closing:
        return (depot, depot), float("inf")
    cost, last = min(closing)
    order = []
    visited = full
    while last is not None:
        order.append(bins[last])
        visited, last = visited & ~(1 << last), best[(visited, last)][1]
    return (depot, *reversed(order), depot), cost
