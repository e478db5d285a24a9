"""Routing trainer tests, anchored by an exhaustive-permutation oracle and
by the RouteState-keyed reference trainer in reference_routing."""

import gc
import itertools
import json
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_routing as reference
from reference_routing import _Draws, brute_force_route
from greenloop import routing
from greenloop.errors import DisconnectedGraph, MissingEdge, StateSpaceTooLarge
from greenloop.pipeline import partition_districts
from greenloop.routing import (
    BinNode,
    CollectionGraph,
    EdgeAttrs,
    QTable,
    RLConfig,
    greedy_route,
    qtable_from_dict,
    qtable_to_dict,
    route_emissions,
    train_routing,
)
from greenloop.scenario import parse_scenario
from greenloop.serialize import canonical_dumps


def complete_graph(distances, rate=1.0, depot="depot"):
    """Build a complete graph from a {(a, b): km} mapping."""
    names = sorted({n for pair in distances for n in pair} | {depot})
    nodes = tuple(BinNode(n, 0.5, is_depot=(n == depot)) for n in names)
    edges = {
        pair: EdgeAttrs(distance_km=float(km), emission_rate_kg_per_km=rate)
        for pair, km in distances.items()
    }
    return CollectionGraph(nodes=nodes, edges=edges)


def random_complete_graph(rng, n_bins, rate=None):
    names = ["depot"] + [f"b{i:02d}" for i in range(n_bins)]
    nodes = tuple(
        BinNode(nm, fill_level=float(rng.uniform(0.2, 1.0)), is_depot=(nm == "depot"))
        for nm in names
    )
    if rate is None:
        rate = float(rng.uniform(0.4, 1.2))
    edges = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            edges[(a, b)] = EdgeAttrs(
                distance_km=float(rng.integers(1, 11)),
                emission_rate_kg_per_km=rate,
            )
    return CollectionGraph(nodes=nodes, edges=edges)


FOUR_BIN = complete_graph(
    {
        ("depot", "n1"): 2, ("depot", "n2"): 9, ("depot", "n3"): 4, ("depot", "n4"): 7,
        ("n1", "n2"): 3, ("n1", "n3"): 8, ("n1", "n4"): 6,
        ("n2", "n3"): 5, ("n2", "n4"): 2, ("n3", "n4"): 3,
    },
    rate=0.8,
)


class TestGraphValidation:
    def test_requires_exactly_one_depot(self):
        nodes = (BinNode("a", 0.1), BinNode("b", 0.2))
        with pytest.raises(ValueError, match="depot"):
            CollectionGraph(nodes=nodes, edges={})

    def test_rejects_two_depots(self):
        nodes = (BinNode("a", 0.1, is_depot=True), BinNode("b", 0.2, is_depot=True))
        with pytest.raises(ValueError, match="depot"):
            CollectionGraph(nodes=nodes, edges={})

    def test_rejects_duplicate_ids(self):
        nodes = (BinNode("a", 0.1, is_depot=True), BinNode("a", 0.2))
        with pytest.raises(ValueError, match="duplicate"):
            CollectionGraph(nodes=nodes, edges={})

    def test_rejects_unknown_edge_endpoint(self):
        nodes = (BinNode("a", 0.1, is_depot=True),)
        with pytest.raises(ValueError, match="unknown"):
            CollectionGraph(nodes=nodes, edges={("a", "ghost"): EdgeAttrs(1.0, 1.0)})

    def test_rejects_asymmetric_distances(self):
        nodes = (BinNode("a", 0.1, is_depot=True), BinNode("b", 0.2))
        edges = {("a", "b"): EdgeAttrs(3.0, 1.0), ("b", "a"): EdgeAttrs(4.0, 1.0)}
        with pytest.raises(ValueError, match="asymmetric"):
            CollectionGraph(nodes=nodes, edges=edges)

    def test_fill_level_bounds(self):
        with pytest.raises(ValueError):
            BinNode("a", fill_level=1.5)

    def test_negative_edge_attrs(self):
        with pytest.raises(ValueError):
            EdgeAttrs(distance_km=-1.0, emission_rate_kg_per_km=0.5)

    def test_edge_lookup_is_undirected(self):
        g = FOUR_BIN
        assert g.edge("n1", "depot").distance_km == 2.0
        assert g.edge("depot", "n1").distance_km == 2.0


# One bin, 2 km at 0.8 kg/km: the only action pays 1.6 out and 1.6 back.
ONE_BIN = complete_graph({("depot", "n1"): 2}, rate=0.8)

# Two bins in a triangle: depot -1- n1 -2- n2 -3- depot. With exploration
# off, a tie at the depot goes to n1, so a table that does not rank n2 above
# n1 there walks depot, n1, n2, depot with rewards -1 and -(2 + 3).
TWO_BIN = complete_graph(
    {("depot", "n1"): 1, ("n1", "n2"): 2, ("n2", "depot"): 3}, rate=1.0
)


def td_config(learning_rate, discount):
    """The routing constants patched to these TD settings, exploration off."""
    return mock.patch.multiple(
        routing, LEARNING_RATE=learning_rate, DISCOUNT=discount,
        EPSILON_START=0.0, EPSILON_END=0.0,
    )


class TestQUpdate:
    """Temporal-difference arithmetic, computed by hand on tiny graphs."""

    def test_full_overwrite(self):
        # alpha 1, gamma 0: new value is exactly the reward
        with td_config(1.0, 0.0):
            q = train_routing(ONE_BIN, RLConfig(episodes=1))
        assert q.values == {("depot", 0, "n1"): -3.2}

    def test_zero_episodes_rejected(self):
        with pytest.raises(ValueError, match="episodes"):
            RLConfig(episodes=0)

    def test_tiny_rate_leaves_table_nearly_unchanged(self):
        start = QTable({("depot", 0, "n1"): 2.0})
        with td_config(1e-12, 0.5):
            q = train_routing(ONE_BIN, RLConfig(episodes=1), initial=start)
        assert q.get("depot", 0, "n1") == pytest.approx(2.0, abs=1e-10)

    def test_direct_substitution(self):
        # Newest first: n1 -> n2 closes the loop, 2 + 0.5 * (-5 - 2) = -1.5;
        # then depot -> n1 bootstraps from it, 1 + 0.5 * (-1 + 0.9 * -1.5 - 1).
        start = QTable({("depot", 0, "n1"): 1.0, ("n1", 1, "n2"): 2.0})
        with td_config(0.5, 0.9):
            q = train_routing(TWO_BIN, RLConfig(episodes=1), initial=start)
        assert q.get("n1", 0b01, "n2") == -1.5
        assert q.get("depot", 0, "n1") == pytest.approx(-0.675)

    def test_second_episode_bootstraps_from_first(self):
        # The -100 keeps both episodes on depot, n1, n2, depot.
        # episode 1: -2.5 and 0.5 * (-1 + 0.9 * -2.5) = -1.625
        # episode 2: -2.5 + 0.5 * (-5 + 2.5) = -3.75
        #            -1.625 + 0.5 * (-1 + 0.9 * -3.75 + 1.625) = -3.0
        start = QTable({("depot", 0, "n2"): -100.0})
        with td_config(0.5, 0.9):
            q = train_routing(TWO_BIN, RLConfig(episodes=2), initial=start)
        assert q.get("n1", 0b01, "n2") == -3.75
        assert q.get("depot", 0, "n1") == pytest.approx(-3.0)

    def test_terminal_next_state_uses_zero_bootstrap(self):
        # An entry at the all-visited state must not leak into the closing step.
        start = QTable({("n2", 0b11, "n1"): 50.0})
        with td_config(1.0, 0.9):
            q = train_routing(TWO_BIN, RLConfig(episodes=1), initial=start)
        assert q.get("n1", 0b01, "n2") == -5.0
        assert q.get("depot", 0, "n1") == pytest.approx(-1.0 + 0.9 * -5.0)

    def test_input_table_untouched(self):
        start = QTable({("depot", 0, "n1"): 1.0})
        q = train_routing(ONE_BIN, RLConfig(episodes=2), initial=start)
        assert start.values == {("depot", 0, "n1"): 1.0}
        assert q.get("depot", 0, "n1") != 1.0

    def test_other_entries_untouched(self):
        other = ("n9", 7, "n2")
        with td_config(1.0, 0.0):
            q = train_routing(ONE_BIN, RLConfig(episodes=1), initial=QTable({other: -2.5}))
        assert q.values == {other: -2.5, ("depot", 0, "n1"): -3.2}


class TestRouteEmissions:
    def test_single_node_route_is_zero(self):
        assert route_emissions(FOUR_BIN, ("depot",)) == 0.0
        assert route_emissions(FOUR_BIN, ()) == 0.0

    def test_one_leg(self):
        g = complete_graph({("depot", "x"): 10}, rate=0.8)
        assert route_emissions(g, ("depot", "x")) == pytest.approx(8.0)

    def test_missing_edge_names_the_leg(self):
        g = CollectionGraph(
            nodes=(BinNode("depot", 0, is_depot=True), BinNode("a", 0.5), BinNode("b", 0.5)),
            edges={("depot", "a"): EdgeAttrs(1.0, 1.0), ("depot", "b"): EdgeAttrs(1.0, 1.0)},
        )
        with pytest.raises(MissingEdge, match="'a' and 'b'"):
            route_emissions(g, ("depot", "a", "b"))


class TestTraining:
    def test_depot_only_graph_trains_to_empty_table(self):
        g = CollectionGraph(nodes=(BinNode("depot", 0, is_depot=True),), edges={})
        q = train_routing(g, RLConfig(episodes=10))
        assert q.values == {}
        assert greedy_route(q, g) == ("depot", "depot")

    def test_four_bin_fixture_matches_permutation_oracle(self):
        q = train_routing(FOUR_BIN, RLConfig(rng_seed=7))
        route = greedy_route(q, FOUR_BIN)
        got = route_emissions(FOUR_BIN, route)

        best = min(
            route_emissions(FOUR_BIN, ("depot", *perm, "depot"))
            for perm in itertools.permutations(FOUR_BIN.bin_ids())
        )
        assert got == pytest.approx(best)
        # the reference oracle agrees with the inline enumeration
        _, lib_best = brute_force_route(FOUR_BIN)
        assert lib_best == pytest.approx(best)

    def test_same_seed_same_table(self):
        a = train_routing(FOUR_BIN, RLConfig(rng_seed=11, episodes=500))
        b = train_routing(FOUR_BIN, RLConfig(rng_seed=11, episodes=500))
        assert a.values == b.values

    def test_different_seed_changes_exploration(self):
        a = train_routing(FOUR_BIN, RLConfig(rng_seed=1, episodes=50))
        b = train_routing(FOUR_BIN, RLConfig(rng_seed=2, episodes=50))
        assert a.values != b.values

    def test_too_many_bins_rejected(self):
        rng = np.random.default_rng(0)
        g = random_complete_graph(rng, 17)
        with pytest.raises(StateSpaceTooLarge):
            train_routing(g, RLConfig(episodes=1))

    def test_sixteen_bins_accepted(self):
        rng = np.random.default_rng(0)
        g = random_complete_graph(rng, 16)
        q = train_routing(g, RLConfig(episodes=1))
        assert q.values

    def test_unreachable_bin_rejected(self):
        nodes = (
            BinNode("depot", 0, is_depot=True),
            BinNode("a", 0.5),
            BinNode("island", 0.5),
        )
        edges = {("depot", "a"): EdgeAttrs(1.0, 1.0)}
        g = CollectionGraph(nodes=nodes, edges=edges)
        with pytest.raises(DisconnectedGraph, match="island"):
            train_routing(g, RLConfig(episodes=1))

    def test_mini_oracle_sweep(self):
        """Twelve random graphs, each trained route checked exhaustively."""
        hits = 0
        for k in range(12):
            rng = np.random.default_rng(300 + k)
            g = random_complete_graph(rng, int(rng.integers(3, 6)))
            q = train_routing(g, RLConfig(rng_seed=400 + k, episodes=2000))
            got = route_emissions(g, greedy_route(q, g))
            _, best = brute_force_route(g)
            if got == pytest.approx(best):
                hits += 1
        assert hits >= 11


class TestGreedyRoute:
    def test_untrained_table_walks_in_id_order(self):
        route = greedy_route(QTable(), FOUR_BIN)
        assert route == ("depot", "n1", "n2", "n3", "n4", "depot")

    def test_route_shape(self):
        q = train_routing(FOUR_BIN, RLConfig(rng_seed=3, episodes=200))
        route = greedy_route(q, FOUR_BIN)
        assert route[0] == "depot" and route[-1] == "depot"
        assert sorted(route[1:-1]) == sorted(FOUR_BIN.bin_ids())
        assert len(route) == len(FOUR_BIN.bin_ids()) + 2


class TestProperties:
    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10_000), n_bins=st.integers(2, 5))
    def test_values_bounded_by_worst_loop_leg(self, seed, n_bins):
        """Discounted sums of rewards in [-R, 0] land in [-R/(1-gamma), 0]."""
        rng = np.random.default_rng(seed)
        g = random_complete_graph(rng, n_bins)
        cfg = RLConfig(rng_seed=seed, episodes=300)
        q = train_routing(g, cfg)
        worst_leg = max(
            e.distance_km * e.emission_rate_kg_per_km for e in g.edges.values()
        )
        lo = -(2 * worst_leg) / (1 - routing.DISCOUNT)
        for v in q.values.values():
            assert lo - 1e-9 <= v <= 1e-9
            assert np.isfinite(v)

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000), n_bins=st.integers(2, 5))
    def test_reward_scaling_preserves_route(self, seed, n_bins):
        """Multiplying every emission rate by 10 cannot change the argmax."""
        rng = np.random.default_rng(seed)
        g1 = random_complete_graph(rng, n_bins, rate=0.5)
        scaled = {k: EdgeAttrs(v.distance_km, v.emission_rate_kg_per_km * 10.0)
                  for k, v in g1.edges.items()}
        g10 = CollectionGraph(nodes=g1.nodes, edges=scaled)
        cfg = RLConfig(rng_seed=seed, episodes=400)
        r1 = greedy_route(train_routing(g1, cfg), g1)
        r10 = greedy_route(train_routing(g10, cfg), g10)
        assert r1 == r10

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000))
    def test_training_is_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        g = random_complete_graph(rng, 3)
        cfg = RLConfig(rng_seed=seed, episodes=120)
        assert train_routing(g, cfg).values == train_routing(g, cfg).values


class TestPersistence:
    def test_round_trip(self):
        q = train_routing(FOUR_BIN, RLConfig(rng_seed=5, episodes=300))
        doc = json.loads(canonical_dumps(qtable_to_dict(q)))
        assert doc["version"] == 1
        back = qtable_from_dict(doc)
        assert back.values == q.values

    def test_entries_sorted_for_stable_serialization(self):
        q = train_routing(FOUR_BIN, RLConfig(rng_seed=5, episodes=50))
        a = canonical_dumps(qtable_to_dict(q))
        b = canonical_dumps(qtable_to_dict(QTable(dict(reversed(list(q.values.items()))))))
        assert a == b

    @pytest.mark.parametrize("n_bins", [4, 10])
    def test_cold_table_iterates_in_sorted_key_order(self, n_bins):
        # qtable_to_dict sorts the keys; a cold table hands it one presorted run
        g = random_complete_graph(np.random.default_rng(n_bins), n_bins)
        q = train_routing(g, RLConfig(rng_seed=5, episodes=300))
        assert list(q.values) == sorted(q.values)


@st.composite
def sparse_graphs(draw):
    """1-7 bins; each node pair gets no edge, one direction, or both.

    Both directions share a distance but may differ in emission rate, so
    the (a, b)-before-(b, a) precedence of CollectionGraph.edge matters.
    Distances may be 0, which makes -0.0 rewards.
    """
    n_bins = draw(st.integers(1, 7))
    names = ["depot"] + [f"b{i}" for i in range(n_bins)]
    nodes = tuple(BinNode(nm, 0.5, is_depot=(nm == "depot")) for nm in names)
    rates = st.floats(0.0, 2.0)
    edges = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            kind = draw(st.sampled_from(["none", "ab", "ba", "both"]))
            if kind == "none":
                continue
            km = float(draw(st.integers(0, 9)))
            pairs = {"ab": [(a, b)], "ba": [(b, a)], "both": [(a, b), (b, a)]}[kind]
            if draw(st.booleans()):
                pairs.reverse()
            for pair in pairs:
                edges[pair] = EdgeAttrs(km, draw(rates))
    return CollectionGraph(nodes=nodes, edges=edges)


def fixture_district():
    """The first district of the waste framework fixture."""
    doc = json.loads(
        (resources.files("greenloop") / "fixtures" / "waste_framework.json")
        .read_text("utf-8")
    )
    return partition_districts(parse_scenario(doc).collection_graph)[0]


def outcome(fn, *args):
    """The result, or the routing error raised, as a comparable value."""
    try:
        return fn(*args)
    except (DisconnectedGraph, MissingEdge) as exc:
        return type(exc).__name__, str(exc)


# A call is None for random() or k for integers(k). Lemire's rejection only
# fires often when k is above 2**31; k == 1 must consume no draw.
draw_calls = st.lists(
    st.none() | st.just(1) | st.integers(2, 16) | st.integers(2**31, 2**32 - 1),
    max_size=60,
)


class TestDrawsReplay:
    """_Draws returns what numpy's Generator returns for the same calls."""

    @settings(deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2**64 - 1), calls=draw_calls)
    def test_matches_numpy_generator(self, seed, calls):
        rng = np.random.default_rng(seed)
        draws = _Draws(seed)
        for k in calls:
            if k is None:
                assert draws.random() == rng.random()
            else:
                assert draws.integers(k) == int(rng.integers(k))
        # the streams are still aligned after the last call
        assert draws.random() == rng.random()

    def test_refills_past_one_chunk(self):
        rng = np.random.default_rng(3)
        draws = _Draws(3)
        got = [(draws.random(), draws.integers(5), draws.integers(7)) for _ in range(5000)]
        want = [(rng.random(), int(rng.integers(5)), int(rng.integers(7))) for _ in range(5000)]
        assert got == want


class TestInlinedReplay:
    """train_routing draws its coins and picks from raw words, in the loop,
    as reference_routing._Draws draws them."""

    @settings(deadline=None, max_examples=500)
    @given(epsilon=st.floats(0.0, 1.0), word=st.integers(0, 2**64 - 1))
    @example(epsilon=0.0, word=0)
    @example(epsilon=5e-324, word=0)
    @example(epsilon=2.0**-1022, word=2**11)
    @example(epsilon=routing.EPSILON_END, word=0)
    @example(epsilon=1.0 - 2.0**-53, word=2**64 - 1)
    @example(epsilon=1.0, word=2**64 - 1)
    def test_coin_is_one_compare_on_the_raw_word(self, epsilon, word):
        threshold = routing._explore_below(epsilon)
        for u in (threshold - 1, threshold, word):
            if 0 <= u < 2**64:
                assert (u < threshold) == ((u >> 11) * reference._TWO_TO_MINUS_53 < epsilon)

    def test_rejected_picks_match_the_oracle(self):
        # A zero 32-bit half is rejected for k in (3, 5, 6), and the half
        # 715827883 for k == 6: its low word times 6 is 2, below
        # (2**32 - 6) % 6 == 4. Draws from a Generator reject about once
        # in 1e9, so only crafted words reach the redraw.
        rejected = 715827883
        assert (rejected * 6) & 0xFFFFFFFF < (2**32 - 6) % 6
        words = [0, rejected | rejected << 32, rejected << 32,
                 *np.random.default_rng(7).bit_generator.random_raw(29).tolist()]

        class CountingDraws(_Draws):
            picks = halves = 0

            def _next32(self):
                CountingDraws.halves += 1
                return super()._next32()

            def integers(self, k):
                CountingDraws.picks += k > 1
                return super().integers(k)

        g = random_complete_graph(np.random.default_rng(5), 6)
        cfg = RLConfig(episodes=60, rng_seed=0)
        with mock.patch.object(
            routing, "_raw_words", lambda seed: itertools.cycle(words).__next__
        ):
            got = train_routing(g, cfg)
            want = reference.train_routing(g, cfg, generator=CountingDraws)
        assert CountingDraws.halves > CountingDraws.picks > 0
        assert repr(sorted(got.values.items())) == repr(
            sorted(reference.to_tuple_keys(want).items())
        )


def test_training_leaves_no_reference_cycle():
    # A trainer whose rows reach themselves (a move carrying its successor
    # row, say) leaves them to the cyclic collector after it returns.
    g = fixture_district()
    gc.collect()
    gc.disable()
    try:
        q = train_routing(g, RLConfig(episodes=200, rng_seed=741))
        greedy_route(q, g)
        del q
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestReferenceEquivalence:
    """The row trainer in greenloop.routing reproduces the RouteState-keyed
    reference, as tuple-keyed tables."""

    @settings(deadline=None, max_examples=300)
    @given(g=sparse_graphs(), data=st.data())
    def test_matches_reference_trainer(self, g, data):
        epsilon_start = data.draw(st.floats(0.0, 1.0))
        constants = mock.patch.multiple(
            routing,
            LEARNING_RATE=data.draw(st.sampled_from([0.1, 0.5, 1.0])),
            DISCOUNT=data.draw(st.sampled_from([0.0, 0.95])),
            EPSILON_START=epsilon_start,
            EPSILON_END=epsilon_start * data.draw(st.floats(0.0, 1.0)),
        )
        cfg = RLConfig(
            episodes=data.draw(st.integers(1, 40)),
            rng_seed=data.draw(st.integers(0, 2**32 - 1)),
        )
        full = (1 << len(g.bin_ids())) - 1
        initial = data.draw(st.none() | st.dictionaries(
            st.tuples(
                st.sampled_from([n.id for n in g.nodes]),
                st.integers(0, full),
                st.sampled_from(g.bin_ids()),
            ),
            st.floats(-50.0, 0.0),
            max_size=20,
        ))
        warm = None if initial is None else QTable(dict(initial))

        with constants:
            got = outcome(train_routing, g, cfg, warm)
            want = outcome(
                reference.train_routing, g, cfg,
                None if initial is None else reference.from_tuple_keys(initial),
            )
        if isinstance(want, dict):
            assert isinstance(got, QTable)
            # repr keeps every entry, every value bit and the sign of zero in view
            assert repr(sorted(got.values.items())) == repr(
                sorted(reference.to_tuple_keys(want).items())
            )
            table = got.values
        else:
            assert got == want
            table = initial or {}
        if warm is not None:
            assert warm.values == initial

        assert outcome(greedy_route, QTable(table), g) == outcome(
            reference.greedy_route, reference.from_tuple_keys(table), g
        )

    def test_matches_reference_on_fixture_district(self):
        # Fixture scale: a 10-bin district trained cold, then warm from
        # its own table, as run_full and feedback_update train it.
        g = fixture_district()
        assert len(g.bin_ids()) == 10
        cold = RLConfig(episodes=300, rng_seed=741)
        warm = RLConfig(episodes=100, rng_seed=841)

        got = train_routing(g, cold)
        want = reference.train_routing(g, cold)
        assert repr(sorted(got.values.items())) == repr(
            sorted(reference.to_tuple_keys(want).items())
        )
        got = train_routing(g, warm, initial=got)
        want = reference.train_routing(g, warm, initial=want)
        assert repr(sorted(got.values.items())) == repr(
            sorted(reference.to_tuple_keys(want).items())
        )
