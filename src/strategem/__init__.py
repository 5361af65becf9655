"""Agent-based simulator of IO vs. RBV market-entry strategies."""

from .config import BatchConfig, SimConfig
from .model import (
    Firm,
    Market,
    ResourceBundle,
    SfmState,
    Strategy,
    bundle_value,
    total_asset_value,
)
from .strategy import (
    Action,
    MarketChoice,
    io_choose_market,
    rbv_choose_market,
    resource_shortfall,
)
from .engine import World, sfm_buy, sfm_sell
from .metrics import (
    RbvProfile,
    classify_rbv,
    relative_diff,
    top_k_snapshot,
)
from .experiment import RunSummary, derive_seed, run_batch, run_one

__all__ = [
    "Action",
    "BatchConfig",
    "Firm",
    "Market",
    "MarketChoice",
    "RbvProfile",
    "ResourceBundle",
    "RunSummary",
    "SfmState",
    "SimConfig",
    "Strategy",
    "World",
    "bundle_value",
    "classify_rbv",
    "derive_seed",
    "io_choose_market",
    "rbv_choose_market",
    "relative_diff",
    "resource_shortfall",
    "run_batch",
    "run_one",
    "sfm_buy",
    "sfm_sell",
    "top_k_snapshot",
    "total_asset_value",
]
