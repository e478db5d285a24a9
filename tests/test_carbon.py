"""Carbon accounting tests: worked examples plus algebraic properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenloop.carbon import (
    LIFECYCLE_STAGES,
    ActivityLedger,
    EmissionFactor,
    carbon_footprint,
)
from greenloop.errors import DuplicateFactor, MissingFactor


def factor(pid, e, stage="processing", fid=None):
    return EmissionFactor(id=fid or f"ef_{pid}", process_id=pid, e=e, stage=stage)


class TestCarbonFootprint:
    def test_empty_ledger_is_zero(self):
        report = carbon_footprint([], ActivityLedger(entries={}))
        assert report.total_kg == 0.0
        assert report.by_process == {}
        assert report.by_stage == {}

    def test_two_process_example(self):
        # 2*4 + 3*5 = 23
        factors = [factor("P1", 2.0), factor("P2", 3.0, stage="transport")]
        ledger = ActivityLedger(entries={"P1": 4.0, "P2": 5.0})
        report = carbon_footprint(factors, ledger)
        assert report.total_kg == pytest.approx(23.0)
        assert report.by_process == {"P1": 8.0, "P2": 15.0}
        assert report.by_stage == {"processing": 8.0, "transport": 15.0}

    def test_missing_factor(self):
        with pytest.raises(MissingFactor, match="P2"):
            carbon_footprint([factor("P1", 1.0)], ActivityLedger(entries={"P2": 1.0}))

    def test_duplicate_factor(self):
        factors = [factor("P1", 1.0, fid="a"), factor("P1", 2.0, fid="b")]
        with pytest.raises(DuplicateFactor, match="P1"):
            carbon_footprint(factors, ActivityLedger(entries={"P1": 1.0}))

    def test_unused_factors_are_fine(self):
        factors = [factor("P1", 2.0), factor("P9", 99.0)]
        report = carbon_footprint(factors, ActivityLedger(entries={"P1": 1.0}))
        assert report.total_kg == pytest.approx(2.0)

    def test_negative_activity_rejected(self):
        with pytest.raises(ValueError):
            ActivityLedger(entries={"P1": -1.0})

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            factor("P1", -0.5)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="stage"):
            factor("P1", 0.5, stage="combustion")


nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def factor_ledger_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pids = [f"P{i}" for i in range(n)]
    factors = [
        factor(p, draw(nonneg), stage=draw(st.sampled_from(LIFECYCLE_STAGES)))
        for p in pids
    ]
    ledger = {p: draw(nonneg) for p in pids}
    return factors, ledger


class TestProperties:
    @given(pair=factor_ledger_pairs(), lam=st.floats(0.0, 100.0, allow_nan=False))
    def test_linearity_in_activity(self, pair, lam):
        factors, entries = pair
        base = carbon_footprint(factors, ActivityLedger(entries=entries))
        scaled = carbon_footprint(
            factors, ActivityLedger(entries={p: lam * f for p, f in entries.items()})
        )
        assert scaled.total_kg == pytest.approx(lam * base.total_kg, rel=1e-9, abs=1e-9)

    @given(pair=factor_ledger_pairs())
    def test_additivity_of_ledgers(self, pair):
        factors, entries = pair
        half = {p: f / 2 for p, f in entries.items()}
        whole = carbon_footprint(factors, ActivityLedger(entries=entries))
        part = carbon_footprint(factors, ActivityLedger(entries=half))
        for p in entries:
            assert whole.by_process[p] == pytest.approx(2 * part.by_process[p], abs=1e-9)

    @given(pair=factor_ledger_pairs(), seed=st.integers(0, 1000))
    def test_permutation_invariance(self, pair, seed):
        import random

        factors, entries = pair
        a = carbon_footprint(factors, ActivityLedger(entries=entries))
        shuffled = list(factors)
        random.Random(seed).shuffle(shuffled)
        reordered = dict(sorted(entries.items(), reverse=True))
        b = carbon_footprint(shuffled, ActivityLedger(entries=reordered))
        assert a == b

    @given(pair=factor_ledger_pairs())
    def test_report_invariant_holds(self, pair):
        factors, entries = pair
        report = carbon_footprint(factors, ActivityLedger(entries=entries))
        assert report.total_kg == pytest.approx(sum(report.by_stage.values()), rel=1e-9, abs=1e-12)
        assert report.total_kg == pytest.approx(sum(report.by_process.values()), rel=1e-9, abs=1e-12)
