"""liftsim: a second-price RTB market simulator and bidding toolkit.

Implements value-based, lift-based and attribution-aware bidding over
synthetic user worlds with known ground truth. A world's users are one
columnar :class:`Population`: an array per attribute, a row per user.
On it sit exact market accounting for the head-to-head dominance
checks, a seeded market simulator with replayable event logs, and an
end-to-end pipeline that learns action-rate lift from simulated
timelines.
"""

__version__ = "0.1.0"

from .market import (  # noqa: F401
    AuctionResult,
    Campaign,
    LIFT_BIDDER,
    Population,
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
