"""Tests for the VOQ switch fabric."""

import numpy as np
import pytest

from repro.switch import Switch
from repro.switch.fabric import SwitchStats


class TestSwitch:
    def test_enqueue_and_demand(self):
        sw = Switch(4)
        sw.enqueue(0, 2, slot=0)
        sw.enqueue(0, 3, slot=0)
        sw.enqueue(1, 2, slot=0)
        demand = [set(np.flatnonzero(row).tolist()) for row in sw.counts]
        assert demand == [{2, 3}, {2}, set(), set()]

    def test_transfer_moves_cells(self):
        sw = Switch(3)
        sw.enqueue(0, 1, slot=0)
        moved = sw.transfer([(0, 1)], slot=2)
        assert moved == 1
        assert sw.stats.departures == 1
        assert sw.stats.total_delay == 2
        assert sw.backlog() == 0

    def test_fifo_order_within_voq(self):
        sw = Switch(2)
        sw.enqueue(0, 1, slot=0)
        sw.enqueue(0, 1, slot=5)
        sw.transfer([(0, 1)], slot=10)
        assert sw.stats.total_delay == 10  # first-in departed
        sw.transfer([(0, 1)], slot=11)
        assert sw.stats.total_delay == 16

    def test_non_matching_schedule_rejected(self):
        sw = Switch(3)
        sw.enqueue(0, 1, slot=0)
        sw.enqueue(2, 1, slot=0)
        with pytest.raises(ValueError, match="not a matching"):
            sw.transfer([(0, 1), (2, 1)], slot=1)

    def test_empty_voq_schedule_rejected(self):
        sw = Switch(2)
        with pytest.raises(ValueError, match="empty VOQ"):
            sw.transfer([(0, 1)], slot=0)

    def test_invalid_ports(self):
        with pytest.raises(ValueError):
            Switch(0)


class TestStats:
    def test_throughput_per_port(self):
        st = SwitchStats(slots=10, departures=20, ports=4)
        assert st.throughput == 0.5

    def test_zero_division_guards(self):
        st = SwitchStats()
        assert st.throughput == 0.0
        assert st.mean_delay == 0.0
        assert st.mean_match_size == 0.0

    def test_mean_delay(self):
        st = SwitchStats(departures=4, total_delay=10)
        assert st.mean_delay == 2.5

    def test_mean_match_size(self):
        st = SwitchStats(match_sizes=[2, 4])
        assert st.mean_match_size == 3.0
