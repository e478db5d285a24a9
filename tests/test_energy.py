"""Energy metering tests for the compute/transfer cost model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenloop.errors import ValidationError
from greenloop.energy import (
    STAGE_ORDER,
    UNIT_COSTS,
    EnergyModel,
    StageUsage,
    energy_of,
    ledger_to_dict,
    meter,
)

nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestEnergyOf:
    def test_zero_weights_zero_energy(self):
        model = EnergyModel(alpha=0.0, beta=0.0)
        assert energy_of(model, StageUsage(123.0, 456.0)) == 0.0

    def test_compute_only(self):
        model = EnergyModel(alpha=1.0, beta=0.0)
        assert energy_of(model, StageUsage(compute_seconds=5.0)) == 5.0

    def test_mixed_arithmetic(self):
        # 0.002*100 + 0.0001*50 = 0.205
        model = EnergyModel(alpha=0.002, beta=0.0001)
        usage = StageUsage(compute_seconds=100.0, transferred_mb=50.0)
        assert energy_of(model, usage) == pytest.approx(0.205)

    def test_negative_usage_rejected(self):
        with pytest.raises(ValueError):
            StageUsage(compute_seconds=-1.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(alpha=-0.1, beta=0.0)


def workload(units=1.0):
    return dict.fromkeys(STAGE_ORDER, units)


class TestMeter:
    def test_one_entry_per_stage_in_stage_order(self):
        ledger = meter(EnergyModel(), workload())
        assert tuple(stage for stage, _, _ in ledger.stages) == STAGE_ORDER

    def test_stage_costs_win_over_the_workload(self):
        model = EnergyModel(
            alpha=2.0, beta=0.5,
            stage_costs={"route": StageUsage(compute_seconds=3.0, transferred_mb=4.0)},
        )
        usage = {stage: (u, kwh) for stage, u, kwh in meter(model, workload(1e6)).stages}
        assert usage["route"] == (StageUsage(3.0, 4.0), 2.0 * 3.0 + 0.5 * 4.0)

    def test_unconfigured_stage_uses_unit_costs_times_workload(self):
        model = EnergyModel(stage_costs={"route": StageUsage()})
        ledger = meter(model, workload(7.0))
        for stage, usage, kwh in ledger.stages:
            if stage != "route":
                seconds, mb = UNIT_COSTS[stage]
                assert usage == StageUsage(seconds * 7.0, mb * 7.0)
                assert kwh == energy_of(model, usage)

    def test_serialization_shape(self):
        model = EnergyModel(alpha=0.5, beta=0.0, stage_costs={
            stage: StageUsage(2.0 if stage == "preprocess" else 0.0)
            for stage in STAGE_ORDER
        })
        doc = ledger_to_dict(meter(model, {}))
        assert doc["total_kwh"] == pytest.approx(1.0)
        assert doc["stages"][0]["stage"] == "preprocess"
        assert doc["stages"][0]["energy_kwh"] == pytest.approx(1.0)


    @pytest.mark.parametrize("stage_costs, units, problem", [
        pytest.param(
            {}, 1e4,
            "stage 'preprocess' prices to inf kWh: 2 compute-seconds and 20 MB "
            "for a workload of 10000 units (at energy_model)",
            id="workload-stage",
        ),
        pytest.param(
            {"simulate": StageUsage(1.0), "optimize": StageUsage(2.0)},
            0.0,
            "fixed usage of stage 'optimize' prices to inf kWh "
            "(at energy_model.stage_costs['optimize'])",
            id="fixed-stage",
        ),
        pytest.param(
            {"metrics": StageUsage(1.79)}, 10.0,
            "stage energy sums to inf kWh through stage 'metrics' (at energy_model)",
            id="running-total",
        ),
    ])
    def test_non_finite_ledger_raises_at_the_first_stage(self, stage_costs, units, problem):
        # 1e308 kWh per compute-second: 2 s is past the float range, 1.79 s is
        # not, but with the 0.03 s the other stages take on 10 units it is
        model = EnergyModel(alpha=1e308, beta=0.0, stage_costs=stage_costs)
        with pytest.raises(ValidationError) as caught:
            meter(model, workload(units))
        assert str(caught.value) == problem


class TestProperties:
    @given(alpha=nonneg, beta=nonneg, c1=nonneg, c2=nonneg, mb=nonneg)
    def test_monotone_in_compute(self, alpha, beta, c1, c2, mb):
        model = EnergyModel(alpha=alpha, beta=beta)
        lo, hi = sorted((c1, c2))
        assert energy_of(model, StageUsage(lo, mb)) <= energy_of(
            model, StageUsage(hi, mb)
        )

    @given(alpha=nonneg, beta=nonneg, c=nonneg, m1=nonneg, m2=nonneg)
    def test_monotone_in_transfer(self, alpha, beta, c, m1, m2):
        model = EnergyModel(alpha=alpha, beta=beta)
        lo, hi = sorted((m1, m2))
        assert energy_of(model, StageUsage(c, lo)) <= energy_of(
            model, StageUsage(c, hi)
        )

    @given(usages=st.lists(st.tuples(nonneg, nonneg), min_size=3, max_size=3), units=nonneg)
    def test_ledger_total_is_sum_of_stages(self, usages, units):
        # the first three stages take fixed costs, the others the workload
        model = EnergyModel(alpha=0.003, beta=0.0002, stage_costs={
            stage: StageUsage(c, mb) for stage, (c, mb) in zip(STAGE_ORDER, usages)
        })
        ledger = meter(model, workload(units))
        # a running total from 0.0, in stage order
        assert ledger.total_kwh == sum(kwh for _, _, kwh in ledger.stages)
        assert len(ledger.stages) == len(STAGE_ORDER)
