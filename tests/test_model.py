"""Domain-type examples and invariants: bundles, asset valuation, config."""

import copy
import dataclasses
import pickle

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


def make_records():
    """One record of each class, with every field off its default."""
    firm = Firm(3, Strategy.RBV, 12.5, ResourceBundle(1.0, 2.0, 0.5))
    for name, value in (
        ("market", 1), ("instant_perf", 0.25), ("total_perf", -1.5), ("alive", False),
        ("negative_cash_streak", 2), ("revenue", 4.0), ("cost", 3.0), ("profit", 1.0),
    ):
        setattr(firm, name, value)
    market = Market(1, 7, 2.5, ResourceBundle(4.0, 0.0, 9.0))
    market.share_value, market.occupants = 1.75, 5
    sfm = SfmState(ResourceBundle(10.0, 20.0, 30.0), 1.5, 0.5, 2.0)
    return [ResourceBundle(0.5, 0.0, 8.0), firm, market, sfm]


RECORD_IDS = ["ResourceBundle", "Firm", "Market", "SfmState"]


class TestRecordSemantics:
    """The engine tells records apart by identity, mutates them in place,
    and never adds an attribute."""

    @pytest.mark.parametrize("index", range(4), ids=RECORD_IDS)
    def test_equal_fields_are_unequal_and_hash_by_identity(self, index):
        record, twin = make_records()[index], make_records()[index]
        assert dataclasses.astuple(record) == dataclasses.astuple(twin)
        assert record != twin
        assert record == record
        assert hash(record) == object.__hash__(record)
        assert len({record, twin}) == 2

    @pytest.mark.parametrize("index", range(4), ids=RECORD_IDS)
    def test_unknown_attribute_is_rejected(self, index):
        record = make_records()[index]
        with pytest.raises(AttributeError):
            record.colour = "red"
        assert not hasattr(record, "__dict__")

    def test_new_firm_is_alive_outside_any_market_with_zero_books(self):
        firm = Firm(0, Strategy.IO, 10.0, ResourceBundle())
        assert firm.alive is True
        assert firm.market is None
        assert firm.negative_cash_streak == 0
        for name in ("instant_perf", "total_perf", "revenue", "cost", "profit"):
            assert getattr(firm, name) == 0.0

    def test_market_derives_initial_value_and_starts_empty(self):
        market = Market(2, 10, 3.25, ResourceBundle(1.0, 1.0, 1.0))
        assert market.initial_value == 3.25
        assert market.occupants == 0
        with pytest.raises(TypeError):
            Market(2, 10, 3.25, ResourceBundle(), initial_value=1.0)
        with pytest.raises(TypeError):
            Market(2, 10, 3.25, ResourceBundle(), occupants=1)

    @pytest.mark.parametrize("index", range(4), ids=RECORD_IDS)
    @pytest.mark.parametrize(
        "clone",
        [lambda record: pickle.loads(pickle.dumps(record)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_pickle_and_deepcopy_keep_every_field(self, index, clone):
        record = make_records()[index]
        copied = clone(record)
        assert copied is not record and type(copied) is type(record)
        assert dataclasses.astuple(copied) == dataclasses.astuple(record)
        for f in dataclasses.fields(record):
            assert type(getattr(copied, f.name)) is type(getattr(record, f.name))


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
