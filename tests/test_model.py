"""Domain-type examples and invariants: bundles, asset valuation, config."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategem.config import SimConfig
from strategem.model import (
    Firm,
    Market,
    ResourceBundle,
    SfmState,
    Strategy,
    bundle_value,
    total_asset_value,
)


def make_sfm(pr=1.0, pg=1.0, pb=1.0, stock=1e6):
    return SfmState(ResourceBundle(stock, stock, stock), pr, pg, pb)


class TestResourceBundle:
    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            ResourceBundle(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ResourceBundle(0.0, 0.0, -0.5)


class TestBundleValue:
    def test_zero_bundle(self):
        assert bundle_value(ResourceBundle(), make_sfm()) == 0.0

    def test_unit_case(self):
        assert bundle_value(ResourceBundle(1, 1, 1), make_sfm()) == 3.0

    def test_dot_product(self):
        # 2*1.5 + 0*9 + 5*0.2 = 4.0
        sfm = make_sfm(1.5, 9.0, 0.2)
        assert bundle_value(ResourceBundle(2, 0, 5), sfm) == pytest.approx(4.0)

    @given(
        st.floats(0, 1e6), st.floats(0, 1e6), st.floats(0, 1e6),
        st.floats(0.01, 1e3), st.floats(0.01, 1e3), st.floats(0.01, 1e3),
    )
    def test_matches_independent_dot(self, r, g, b, pr, pg, pb):
        sfm = make_sfm(pr, pg, pb)
        expected = sum(q * p for q, p in zip((r, g, b), (pr, pg, pb)))
        assert bundle_value(ResourceBundle(r, g, b), sfm) == pytest.approx(expected)


class TestTotalAssetValue:
    def test_cash_only(self):
        firm = Firm(0, Strategy.IO, 10.0, ResourceBundle())
        assert total_asset_value(firm, make_sfm()) == 10.0

    def test_bundle_only(self):
        firm = Firm(0, Strategy.IO, 0.0, ResourceBundle(1, 1, 1))
        assert total_asset_value(firm, make_sfm()) == 3.0

    def test_cash_plus_bundle(self):
        firm = Firm(0, Strategy.RBV, 5.0, ResourceBundle(2, 0, 5))
        assert total_asset_value(firm, make_sfm(1.5, 9.0, 0.2)) == pytest.approx(9.0)


class TestMarket:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Market(0, 0, 1.0, ResourceBundle())
        with pytest.raises(ValueError):
            Market(0, 10, 0.0, ResourceBundle())


class TestSfmState:
    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValueError):
            SfmState(ResourceBundle(), price_red=0.0)


class TestSimConfig:
    def test_defaults_validate(self):
        SimConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_firms": 0},
            {"n_firms": 7},  # odd: no 50/50 split
            {"n_markets": 0},
            {"n_cycles": -1},
            {"market_size_choices": ()},
            {"market_size_choices": (0, 10)},
            {"noise_amplitude": 1.0},
            {"noise_amplitude": -0.1},
            {"maintenance_rate": 1.0},
            {"resource_init_range": (5.0, 1.0)},
            {"barrier_range": (-1.0, 5.0)},
            {"barrier_sum_range": (10.0, 5.0)},
            {"resource_sum_range": (-1.0, 5.0)},
            {"barrier_mix_alpha": 0.0},
            {"resource_mix_alpha": -1.0},
            {"share_value_range": (0.0, 1.0)},
            {"initial_cash": -1.0},
            {"bankruptcy_grace": 0},
            {"crowding": -0.2},  # 1 + crowding * occupants can reach 0
            {"initial_price": 0.0},
            {"price_floor": 0.0},
            {"value_floor": -1.0, "value_noise": 1.5},  # negative share values
            {"initial_stock": -1.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs).validate()
