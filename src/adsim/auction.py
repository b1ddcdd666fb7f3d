"""Slot auctions: ranking, GSP and GFP pricing, and first-price bid dynamics.

Money is integer cents throughout. Two ranking modes: ``by_bid`` orders on the
raw bid, ``by_ctr_weighted`` on bid times estimated click-through rate. Ties
always break toward the lexicographically smaller advertiser id, which makes
every operation here deterministic and input-order independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import AdsimError, AdvertiserId, check_min, check_range

BY_BID = "by_bid"
BY_CTR_WEIGHTED = "by_ctr_weighted"
RANKINGS = (BY_BID, BY_CTR_WEIGHTED)
# The most bids a best_response_run history may hold, (steps + 1) x bidders: 3.3 s and
# 67 MB for adsim demo-gfp with two bidders on a 2-vCPU host.
MAX_HISTORY = 1_000_000


class MissingCtrError(AdsimError):
    """CTR-weighted ranking was asked for an advertiser with no CTR."""


class UnknownMoverError(AdsimError):
    """Best-response step for an advertiser that is not in the bid map."""


@dataclass(frozen=True, slots=True)
class Bid:
    advertiser: AdvertiserId
    amount: int  # cents per click

    def __post_init__(self):
        if not self.advertiser:
            raise ValueError("empty advertiser id")
        check_min("amount", self.amount, 0)


@dataclass(frozen=True, slots=True)
class SlotAllocation:
    slot: int
    advertiser: AdvertiserId
    price_per_click: int  # cents
    rank_score: float

    def __post_init__(self):
        check_min("slot", self.slot, 1)
        check_min("price_per_click", self.price_per_click, 0)
        check_min("rank_score", self.rank_score, 0)


@dataclass(frozen=True, slots=True)
class AuctionConfig:
    num_slots: int
    reserve_price: int = 0  # cents; bids below it are not allocated
    ranking: str = BY_BID

    def __post_init__(self):
        check_min("auction.num_slots", self.num_slots, 1)
        check_min("auction.reserve_price", self.reserve_price, 0)
        if self.ranking not in RANKINGS:
            raise ValueError(f"auction.ranking: expected one of {RANKINGS}, got {self.ranking!r}")


def rank(
    bids: Sequence[Bid],
    ctrs: Mapping[AdvertiserId, float] | None,
    cfg: AuctionConfig,
) -> list[tuple[Bid, float]]:
    """Order bids by descending rank score; equal scores break by advertiser id.

    In ``by_ctr_weighted`` mode the score is ``bid.amount * ctrs[advertiser]``
    and a missing entry raises ``MissingCtrError``. In ``by_bid`` mode the
    score is the bid amount and ``ctrs`` may be ``None``.
    """
    seen: set[str] = set()
    for b in bids:
        if b.advertiser in seen:
            raise ValueError(f"duplicate bid for {b.advertiser!r}")
        seen.add(b.advertiser)
    if cfg.ranking == BY_CTR_WEIGHTED:
        scored = []
        for b in bids:
            if ctrs is None or b.advertiser not in ctrs:
                raise MissingCtrError(f"no CTR for {b.advertiser!r}")
            ctr = ctrs[b.advertiser]
            if not 0.0 <= ctr <= 1.0:
                raise ValueError(f"CTR for {b.advertiser!r} outside [0, 1]: {ctr}")
            scored.append((b, b.amount * ctr))
    else:
        scored = [(b, float(b.amount)) for b in bids]
    scored.sort(key=lambda pair: (-pair[1], pair[0].advertiser))
    return scored


def _eligible(ranked, cfg: AuctionConfig):
    # Bids under the reserve never win a slot; keeps price within
    # [reserve, own bid] for every winner.
    return [(b, s) for b, s in ranked if b.amount >= cfg.reserve_price]


def gsp_allocate(
    ranked: Sequence[tuple[Bid, float]], cfg: AuctionConfig
) -> list[SlotAllocation]:
    """Generalized second price: each slot is priced off the next-ranked bidder.

    ``by_bid``: slot i costs the rank-(i+1) bid. ``by_ctr_weighted``: slot i
    costs the least whole cent whose score still beats the next bidder,
    ``ceil(next_score / own_ctr)``, never more than the winner's own bid.
    The last allocated bidder with nobody behind pays the reserve.
    """
    pool = _eligible(ranked, cfg)
    allocations = []
    for i, (bid, score) in enumerate(pool[: cfg.num_slots]):
        if i + 1 < len(pool):
            next_bid, next_score = pool[i + 1]
            if cfg.ranking == BY_BID:
                price = next_bid.amount
            else:
                ctr = score / bid.amount if bid.amount > 0 else 0.0
                forced = math.ceil(next_score / ctr) if ctr > 0 else cfg.reserve_price
                price = min(bid.amount, forced)
        else:
            price = cfg.reserve_price
        price = max(price, cfg.reserve_price)
        allocations.append(SlotAllocation(i + 1, bid.advertiser, price, score))
    return allocations


def gfp_allocate(
    ranked: Sequence[tuple[Bid, float]], cfg: AuctionConfig
) -> list[SlotAllocation]:
    """Generalized first price: same allocation as GSP, everyone pays their own bid."""
    pool = _eligible(ranked, cfg)
    return [
        SlotAllocation(i + 1, bid.advertiser, bid.amount, score)
        for i, (bid, score) in enumerate(pool[: cfg.num_slots])
    ]


def gfp_best_response_step(
    bids: Mapping[AdvertiserId, int],
    values: Mapping[AdvertiserId, int],
    mover: AdvertiserId,
    epsilon: int,
    cfg: AuctionConfig,
) -> int:
    """One greedy first-price rebid for ``mover``; returns its new bid in cents.

    The mover takes the best slot it can afford: occupying slot j means
    outbidding the j-th highest competitor by ``epsilon``, and a slot with no
    competitor below costs ``reserve + epsilon`` (just above the floor).
    Bids never exceed the mover's per-click value, so a slot is out of reach
    when its price or the reserve is above that value; if every slot is, the
    mover retreats to the reserve, or to its value below it (which wins nothing).
    """
    if mover not in bids:
        raise UnknownMoverError(f"{mover!r} has no standing bid")
    if mover not in values:
        raise UnknownMoverError(f"{mover!r} has no per-click value")
    check_min("epsilon", epsilon, 1)
    value = values[mover]
    others = sorted((amt for adv, amt in bids.items() if adv != mover), reverse=True)
    # the price of each slot from the top; every slot past the last competitor costs the same
    prices = [amt + epsilon for amt in others] + [cfg.reserve_price + epsilon]
    for required in prices[: cfg.num_slots]:
        if (bid := max(cfg.reserve_price, required)) <= value:
            return bid
    return min(cfg.reserve_price, value)


def best_response_run(
    bids: Mapping[AdvertiserId, int],
    values: Mapping[AdvertiserId, int],
    cfg: AuctionConfig,
    epsilon: int,
    steps: int,
) -> list[tuple[int, ...]]:
    """Alternate single-mover rebids for ``steps`` moves.

    Movers take turns in advertiser-id order. Returns the bid-vector history
    (advertisers in sorted id order) including the initial state, so the
    result has ``steps + 1`` entries, at most ``MAX_HISTORY`` bids in all.
    """
    check_range("steps", steps, 0, MAX_HISTORY // max(1, len(bids)) - 1)
    advertisers = sorted(bids)
    current = dict(bids)
    history = [tuple(current[a] for a in advertisers)]
    for mover in itertools.islice(itertools.cycle(advertisers), steps):
        current[mover] = gfp_best_response_step(current, values, mover, epsilon, cfg)
        history.append(tuple(current[a] for a in advertisers))
    return history


def detect_cycle(history: Sequence) -> int | None:
    """Smallest period of the repeating tail of ``history``, or None.

    A period ``p`` qualifies when the last ``min(2p, len - p)`` entries each
    equal the entry ``p`` positions earlier, i.e. the observable tail repeats
    with period ``p``. Longer histories therefore give stronger evidence; a
    constant tail reports period 1.
    """
    n = len(history)
    for p in range(1, n):
        start = max(p, n - 2 * p)
        if all(history[i] == history[i - p] for i in range(start, n)):
            return p
    return None
