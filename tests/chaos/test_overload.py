"""Overload soak lanes and the ∞-budget equivalence guarantee."""

import io

import pytest

from repro.chaos.harness import ChaosConfig, run_chaos
from repro.chaos.lanes import OVERLOAD, run_family
from repro.chaos.soak import OVERLOAD_PROFILES

#: Report fields allowed to differ between a pressure=False run and a
#: pressure=True run with an unlimited budget: the books are kept (and
#: reported) but nothing else may move.
BOOKKEEPING_FIELDS = ("budget_bytes", "peak_charged_bytes")


class TestProfiles:
    def test_lanes_cover_the_ladder(self):
        assert set(OVERLOAD_PROFILES) == {"paper", "evict", "takeover"}
        budgets = [c.budget_bytes for c in OVERLOAD_PROFILES.values()]
        assert budgets == sorted(budgets, reverse=True) or budgets[0] == 0
        for config in OVERLOAD_PROFILES.values():
            assert config.pressure
            assert config.watchdog  # online oracle, not just post-hoc

    def test_pressure_excludes_fallback_and_core_faults(self):
        from repro.recovery.faults import CoreFaultPlan

        with pytest.raises(ValueError, match="mutually exclusive"):
            ChaosConfig(pressure=True, fallback=True)
        with pytest.raises(ValueError, match="mutually exclusive"):
            ChaosConfig(
                pressure=True, core_plan=CoreFaultPlan(seed=1, fail_stop_rate=0.5)
            )
        with pytest.raises(ValueError, match="budget_bytes"):
            ChaosConfig(budget_bytes=-2)


class TestSoak:
    def test_small_matrix_is_clean_and_nonvacuous(self):
        result = run_family(OVERLOAD, 6, out=io.StringIO(), err=io.StringIO())
        counters = result.counters
        assert result.runs == 6 * len(OVERLOAD_PROFILES)
        assert result.failures == 0
        assert counters["overruns"] == 0
        # Each rung of the degradation ladder actually fired somewhere
        # in the matrix — a soak that never evicts proves nothing.
        assert counters["deferred"] > 0
        assert counters["demoted"] > 0
        assert counters["evicted"] > 0
        assert counters["recalled"] > 0
        assert counters["takeovers"] > 0
        assert counters["peak"] > 0


class TestUnlimitedEquivalence:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_infinite_budget_changes_nothing(self, seed):
        """pressure=True with budget_bytes=-1 must produce the exact
        pre-PR report, field for field, minus the new bookkeeping."""
        base = ChaosConfig(seed=seed, rounds=8, senders=3, watchdog=True)
        armed = ChaosConfig(
            seed=seed, rounds=8, senders=3, watchdog=True,
            pressure=True, budget_bytes=-1,
        )
        want = run_chaos(base).to_dict()
        got = run_chaos(armed).to_dict()
        assert got["budget_bytes"] == -1
        assert got["peak_charged_bytes"] > 0  # books were kept
        for field in BOOKKEEPING_FIELDS:
            want.pop(field)
            got.pop(field)
        assert got == want
