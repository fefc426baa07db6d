"""liftsim: a second-price RTB market simulator and bidding toolkit.

Implements value-based, lift-based and attribution-aware bidding over
synthetic user worlds with known ground truth, exact market accounting
for the head-to-head dominance checks, and an end-to-end pipeline that
learns action-rate lift from simulated timelines.
"""

__version__ = "0.1.0"

from .market import (  # noqa: F401
    AuctionResult,
    BehaviorProfile,
    BidRequest,
    Campaign,
    GroundTruthUser,
    LIFT_BIDDER,
    VALUE_BIDDER,
    dollars_to_micros,
    micros_to_dollars,
    run_auction,
)
from .bidders import (  # noqa: F401
    BetaCalibration,
    BidderConfig,
    PopulationStats,
    calibrate_beta,
    calibrate_equal_attribution,
    price_bids,
)
from .events import EventLog, TimelineEvent  # noqa: F401
from .world import (  # noqa: F401
    WorldConfig,
    generate_population,
    precedent_impression_fraction,
    run_market,
)
