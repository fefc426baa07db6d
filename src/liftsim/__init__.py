"""liftsim: a second-price RTB market simulator and bidding toolkit.

Implements value-based, lift-based and attribution-aware bidding over
synthetic user worlds with known ground truth. A world's users are one
columnar :class:`~liftsim.market.Population`: an array per attribute, a
row per user. On it sit exact market accounting for the head-to-head
dominance checks, a seeded market simulator with replayable event logs,
and an end-to-end pipeline that learns action-rate lift from simulated
timelines.
"""

__version__ = "0.1.0"
