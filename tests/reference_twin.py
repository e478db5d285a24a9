"""Reference bin-event generator making eight Generator calls per event.

This is the `simulate_bins` greenloop.twin shipped before it drew each
event's category and sensor readings in bulk, kept as the oracle the
faster generator is compared against: numpy's RNG policy (NEP 19) makes
no promise about how `Generator.choice` turns its draws into an index.
The body is unchanged apart from its imports.
"""

from __future__ import annotations

import numpy as np

from greenloop.classify import FEATURES
from greenloop.errors import NoGraph
from greenloop.twin import DEFAULT_WASTE_STREAM, BinEvent, BinEventStream


def simulate_bins(s, horizon: int) -> BinEventStream:
    """Generate labeled deposit events for every bin over the horizon."""
    if s.collection_graph is None:
        raise NoGraph("scenario has no collection_graph")
    cfg = s.waste_stream or DEFAULT_WASTE_STREAM
    rng = np.random.default_rng([s.rng_seed, 2])

    bins = [n for n in s.collection_graph.nodes if not n.is_depot]
    bins.sort(key=lambda n: n.id)
    fills = {b.id: b.fill_level for b in bins}

    categories = sorted(cfg.category_mix)
    probs = np.array([cfg.category_mix[c] for c in categories])
    probs = probs / probs.sum()

    events: list[BinEvent] = []
    for t in range(horizon):
        for b in bins:
            inc = max(0.0, float(rng.normal(cfg.fill_increment_mean, cfg.fill_increment_std)))
            fills[b.id] = min(1.0, fills[b.id] + inc)
            label = categories[int(rng.choice(len(categories), p=probs))]
            means = cfg.feature_means[label]
            record = {
                f: float(means[f] + cfg.feature_stds[f] * rng.standard_normal())
                for f in FEATURES
            }
            events.append(
                BinEvent(
                    time_step=t,
                    bin_id=b.id,
                    fill_level=fills[b.id],
                    sensor_record=record,
                    true_label=label,
                )
            )
    return BinEventStream(events=tuple(events))
