"""Reference Q-learning trainer keyed by a frozen RouteState dataclass.

This is the trainer greenloop.routing shipped before its state keys became
plain (current, visited, action) tuples, kept as the oracle the faster
trainer is compared against. The loop, RNG calls, float expressions and
update order are unchanged; only the table is a bare dict, and
``to_tuple_keys`` converts it to the library's key form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from greenloop.errors import DisconnectedGraph, StateSpaceTooLarge
from greenloop.routing import (
    MAX_TABULAR_BINS,
    CollectionGraph,
    RLConfig,
    leg_emissions,
)


@dataclass(frozen=True)
class RouteState:
    """Current node plus a visited bitmask over the sorted bin order."""

    current: str
    visited: int = 0


def to_tuple_keys(values: dict) -> dict:
    return {(s.current, s.visited, a): v for (s, a), v in values.items()}


def from_tuple_keys(values: dict) -> dict:
    return {(RouteState(c, vis), a): v for (c, vis, a), v in values.items()}


def _q_update_inplace(
    values: dict,
    s: RouteState,
    a: str,
    r: float,
    s_next: RouteState,
    cfg: RLConfig,
    next_actions: list[str],
) -> None:
    best_next = 0.0
    if next_actions:
        best_next = max(values.get((s_next, nb), 0.0) for nb in next_actions)
    old = values.get((s, a), 0.0)
    values[(s, a)] = old + cfg.learning_rate * (r + cfg.discount * best_next - old)


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


def train_routing(g: CollectionGraph, cfg: RLConfig, initial: dict | None = None) -> dict:
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
    rng = np.random.default_rng(cfg.rng_seed)
    values: dict = dict(initial) if initial is not None else {}
    depot = g.depot

    for episode in range(cfg.episodes):
        if cfg.episodes > 1:
            frac = episode / (cfg.episodes - 1)
        else:
            frac = 0.0
        epsilon = cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac

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
            _q_update_inplace(values, s, a, r, s_next, cfg, s_next_actions)

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
