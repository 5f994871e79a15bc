"""Unit tests for SwitchConfig."""

import pytest

from repro.switch.config import SwitchConfig


class TestValidation:
    def test_square_constructor(self):
        c = SwitchConfig.square(4, speedup=2, b_in=3, b_out=5, b_cross=2)
        assert c.n_in == 4 and c.n_out == 4
        assert c.speedup == 2
        assert (c.b_in, c.b_out, c.b_cross) == (3, 5, 2)

    def test_asymmetric_switch_supported(self):
        c = SwitchConfig(n_in=4, n_out=2)
        assert c.n_in == 4 and c.n_out == 2

    def test_rejects_zero_ports(self):
        with pytest.raises(ValueError):
            SwitchConfig(n_in=0, n_out=2)
        with pytest.raises(ValueError):
            SwitchConfig(n_in=2, n_out=0)

    def test_rejects_zero_speedup(self):
        with pytest.raises(ValueError):
            SwitchConfig(n_in=2, n_out=2, speedup=0)

    @pytest.mark.parametrize("field", ["b_in", "b_out", "b_cross"])
    def test_rejects_zero_capacities(self, field):
        kwargs = {"n_in": 2, "n_out": 2, field: 0}
        with pytest.raises(ValueError):
            SwitchConfig(**kwargs)

    def test_frozen(self):
        c = SwitchConfig.square(2)
        with pytest.raises(Exception):
            c.n_in = 5

    def test_cycles(self):
        c = SwitchConfig.square(2, speedup=3)
        assert c.cycles(10) == 30

    def test_defaults(self):
        c = SwitchConfig(n_in=2, n_out=3)
        assert c.speedup == 1
        assert c.b_in == 8 and c.b_out == 8 and c.b_cross == 1
