from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsim.auction import (
    BY_BID,
    BY_CTR_WEIGHTED,
    AuctionConfig,
    Bid,
    MissingCtrError,
    SlotAllocation,
    UnknownMoverError,
    best_response_run,
    detect_cycle,
    gfp_allocate,
    gfp_best_response_step,
    gsp_allocate,
    rank,
)


def by_bid(n_slots=2, reserve=0):
    return AuctionConfig(num_slots=n_slots, reserve_price=reserve)


def prices(allocs):
    return [(a.advertiser, a.price_per_click) for a in allocs]


# ---------------------------------------------------------------------------
# Records.


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Bid("", 1), "empty advertiser id"),
        (lambda: Bid("a", -1), r"^amount: must be >= 0, got -1$"),
        (lambda: SlotAllocation(0, "a", 0, 0.0), r"^slot: must be >= 1, got 0$"),
        (lambda: SlotAllocation(1, "a", -1, 0.0), r"^price_per_click: must be >= 0, got -1$"),
        (lambda: SlotAllocation(1, "a", 0, -0.5), r"^rank_score: must be >= 0, got -0\.5$"),
        # AuctionConfig names its section, as the loader reports it
        (lambda: AuctionConfig(0), r"^auction\.num_slots: must be >= 1, got 0$"),
        (lambda: AuctionConfig(1, -1), r"^auction\.reserve_price: must be >= 0, got -1$"),
        (
            lambda: AuctionConfig(1, ranking="best"),
            r"^auction\.ranking: expected one of \('by_bid', 'by_ctr_weighted'\), got 'best'$",
        ),
    ],
    ids=["bid:empty_id", "bid:negative", "slot:0", "slot:price", "slot:score",
         "auction:num_slots", "auction:reserve_price", "auction:ranking"],
)
def test_auction_records_reject_impossible_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# ---------------------------------------------------------------------------
# Ranking.


def test_rank_orders_by_bid_descending_with_id_tiebreak():
    bids = [Bid("b", 300), Bid("a", 1000), Bid("c", 300)]
    ranked = rank(bids, None, by_bid(3))
    assert [b.advertiser for b, _ in ranked] == ["a", "b", "c"]


def test_rank_rejects_duplicate_bidders():
    with pytest.raises(ValueError):
        rank([Bid("a", 10), Bid("a", 20)], None, by_bid())


def test_weighted_rank_uses_bid_times_ctr():
    bids = [Bid("a", 1000), Bid("b", 400)]
    ranked = rank(bids, {"a": 0.1, "b": 0.5}, AuctionConfig(2, ranking=BY_CTR_WEIGHTED))
    assert [b.advertiser for b, _ in ranked] == ["b", "a"]
    assert [score for _, score in ranked] == [200.0, 100.0]


def test_weighted_rank_needs_a_ctr_for_everyone():
    cfg = AuctionConfig(2, ranking=BY_CTR_WEIGHTED)
    with pytest.raises(MissingCtrError):
        rank([Bid("a", 10)], {}, cfg)
    with pytest.raises(MissingCtrError):
        rank([Bid("a", 10)], None, cfg)
    with pytest.raises(ValueError):
        rank([Bid("a", 10)], {"a": 1.5}, cfg)


# ---------------------------------------------------------------------------
# Pricing: the two-bidder textbook pair, 1000 and 300 cents.


def test_gsp_charges_the_next_bid_and_reserve_at_the_bottom():
    ranked = rank([Bid("a", 1000), Bid("b", 300)], None, by_bid(2))
    assert prices(gsp_allocate(ranked, by_bid(2))) == [("a", 300), ("b", 0)]


def test_gfp_charges_own_bids():
    ranked = rank([Bid("a", 1000), Bid("b", 300)], None, by_bid(2))
    assert prices(gfp_allocate(ranked, by_bid(2))) == [("a", 1000), ("b", 300)]


def test_gsp_with_reserve_floor():
    cfg = by_bid(2, reserve=50)
    ranked = rank([Bid("a", 1000), Bid("b", 300)], None, cfg)
    assert prices(gsp_allocate(ranked, cfg)) == [("a", 300), ("b", 50)]


def test_bids_under_the_reserve_never_win_a_slot():
    cfg = by_bid(3, reserve=250)
    ranked = rank([Bid("a", 1000), Bid("b", 200), Bid("c", 300)], None, cfg)
    allocs = gsp_allocate(ranked, cfg)
    assert [a.advertiser for a in allocs] == ["a", "c"]
    assert prices(allocs) == [("a", 300), ("c", 250)]


def test_more_bidders_than_slots():
    cfg = by_bid(3)
    bids = [Bid(x, amt) for x, amt in [("a", 700), ("b", 500), ("c", 400), ("d", 200)]]
    allocs = gsp_allocate(rank(bids, None, cfg), cfg)
    assert prices(allocs) == [("a", 500), ("b", 400), ("c", 200)]
    assert [a.slot for a in allocs] == [1, 2, 3]


def test_weighted_gsp_charges_the_least_cent_that_keeps_the_order():
    cfg = AuctionConfig(2, ranking=BY_CTR_WEIGHTED)
    ranked = rank([Bid("a", 1000), Bid("b", 400)], {"a": 0.1, "b": 0.5}, cfg)
    allocs = gsp_allocate(ranked, cfg)
    # b's score 200 must stay >= a's 100: ceil(100 / 0.5) = 200 cents
    assert prices(allocs) == [("b", 200), ("a", 0)]


def test_weighted_gsp_price_caps_at_own_bid_on_tied_scores():
    cfg = AuctionConfig(2, ranking=BY_CTR_WEIGHTED)
    # identical scores: matching the runner-up costs the winner its whole bid,
    # and the min(own bid, forced price) cap keeps it from going past that
    ranked = rank([Bid("a", 500), Bid("b", 250)], {"a": 0.2, "b": 0.4}, cfg)
    allocs = gsp_allocate(ranked, cfg)
    assert [a.advertiser for a in allocs] == ["a", "b"]  # tie broken by id
    assert allocs[0].price_per_click == 500
    # float noise in score division must never push the price past the bid
    ranked = rank([Bid("a", 500), Bid("b", 499)], {"a": 0.2, "b": 0.2}, cfg)
    assert gsp_allocate(ranked, cfg)[0].price_per_click <= 500


# ---------------------------------------------------------------------------
# Property suite over random by_bid auctions.


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_by_bid_auction_invariants(data):
    n = data.draw(st.integers(1, 8))
    names = [chr(ord("a") + i) for i in range(n)]
    amounts = data.draw(st.lists(st.integers(0, 2_000), min_size=n, max_size=n))
    reserve = data.draw(st.integers(0, 500))
    slots = data.draw(st.integers(1, 4))
    cfg = AuctionConfig(slots, reserve)
    bids = [Bid(a, amt) for a, amt in zip(names, amounts)]
    ranked = rank(bids, None, cfg)

    gsp = gsp_allocate(ranked, cfg)
    gfp = gfp_allocate(ranked, cfg)
    eligible = sorted((amt for amt in amounts if amt >= reserve), reverse=True)
    by_name = dict(zip(names, amounts))

    for allocs in (gsp, gfp):
        assert len(allocs) == min(slots, len(eligible))
        assert [a.slot for a in allocs] == list(range(1, len(allocs) + 1))
        # winners are the top eligible bids, in score order
        assert [a.rank_score for a in allocs] == eligible[: len(allocs)]
        for a in allocs:
            assert reserve <= a.price_per_click <= by_name[a.advertiser]
        # prices never increase as the slot gets worse
        ps = [a.price_per_click for a in allocs]
        assert ps == sorted(ps, reverse=True)

    # second-price revenue never beats first-price on the same ranking
    assert sum(a.price_per_click for a in gsp) <= sum(a.price_per_click for a in gfp)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_ranking_ignores_bid_submission_order(data):
    n = data.draw(st.integers(1, 6))
    names = [chr(ord("a") + i) for i in range(n)]
    amounts = data.draw(st.lists(st.integers(0, 999), min_size=n, max_size=n))
    seed = data.draw(st.integers(0, 10**6))
    bids = [Bid(a, amt) for a, amt in zip(names, amounts)]
    shuffled = bids[:]
    random.Random(seed).shuffle(shuffled)
    cfg = by_bid(3, reserve=100)
    assert gsp_allocate(rank(bids, None, cfg), cfg) == gsp_allocate(
        rank(shuffled, None, cfg), cfg
    )


# ---------------------------------------------------------------------------
# First-price best-response dynamics.


def test_single_rebids():
    cfg = by_bid(2)
    values = {"a": 1100, "b": 800}
    # a undercuts to one step over b
    assert gfp_best_response_step({"a": 1000, "b": 300}, values, "a", 100, cfg) == 400
    # then b leapfrogs a
    assert gfp_best_response_step({"a": 400, "b": 300}, values, "b", 100, cfg) == 500


def test_priced_out_mover_retreats_to_reserve():
    cfg = by_bid(1, reserve=50)
    assert gfp_best_response_step({"a": 900, "b": 800}, {"a": 1000, "b": 850}, "b", 100, cfg) == 50


def test_free_slot_costs_reserve_plus_epsilon():
    cfg = by_bid(3, reserve=50)
    new = gfp_best_response_step({"a": 40, "b": 900}, {"a": 200, "b": 1000}, "a", 25, cfg)
    assert new == 75


def test_a_huge_slot_count_prices_only_the_slots_down_to_the_first_free_one():
    cfg = by_bid(10**20, reserve=50)
    bids = {"a": 1000, "b": 300}
    assert gfp_best_response_step(bids, {"a": 500, "b": 0}, "a", 100, cfg) == 400
    assert gfp_best_response_step(bids, {"a": 200, "b": 0}, "a", 100, cfg) == 150
    assert gfp_best_response_step(bids, {"a": 0, "b": 0}, "a", 100, cfg) == 50


def test_unknown_mover_is_rejected():
    with pytest.raises(UnknownMoverError):
        gfp_best_response_step({"a": 10}, {"a": 100}, "zzz", 1, by_bid())
    with pytest.raises(UnknownMoverError):
        gfp_best_response_step({"a": 10}, {}, "a", 1, by_bid())
    with pytest.raises(ValueError):
        gfp_best_response_step({"a": 10}, {"a": 100}, "a", 0, by_bid())


def test_escalate_then_collapse_cycle():
    history = best_response_run(
        {"a": 1000, "b": 300}, {"a": 1100, "b": 800}, by_bid(2), 100, steps=9
    )
    assert history == [
        (1000, 300),
        (400, 300),
        (400, 500),
        (600, 500),
        (600, 700),
        (800, 700),
        (800, 100),
        (200, 100),
        (200, 300),
        (400, 300),
    ]


def test_run_length_and_mover_order():
    history = best_response_run({"a": 3, "b": 2}, {"a": 0, "b": 0}, by_bid(2), 1, steps=4)
    assert len(history) == 5
    # movers alternate in id order: a rebids first
    assert history[1] == (0, 2)
    # worthless clicks send both bids to the reserve floor, a fixed point
    assert history[2:] == [(0, 0), (0, 0), (0, 0)]


def test_a_run_of_no_steps_is_its_start_and_negative_steps_are_named():
    assert best_response_run({"a": 3, "b": 2}, {"a": 5, "b": 5}, by_bid(2), 1, steps=0) == [(3, 2)]
    with pytest.raises(ValueError, match=r"^steps: must be >= 0, got -1$"):
        best_response_run({"a": 1, "b": 2}, {"a": 5, "b": 5}, by_bid(2), 1, steps=-1)


def test_a_run_holds_at_most_max_history_bids(monkeypatch):
    monkeypatch.setattr("adsim.auction.MAX_HISTORY", 12)
    bids, values = {"a": 3, "b": 2, "c": 1}, {"a": 5, "b": 5, "c": 5}
    assert len(best_response_run(bids, values, by_bid(2), 1, steps=3)) == 4  # 4 x 3 bids
    with pytest.raises(ValueError, match=r"^steps: must be <= 3, got 4$"):
        best_response_run(bids, values, by_bid(2), 1, steps=4)


# ---------------------------------------------------------------------------
# Cycle detection on bid histories.


def test_detect_cycle_on_the_trailing_window():
    trace = [(4, 3), (4, 5), (6, 5), (6, 7), (8, 7), (8, 3), (4, 3), (4, 5)]
    assert detect_cycle(trace) == 6
    assert detect_cycle([(5,), (5,), (5,), (5,)]) == 1
    assert detect_cycle([(1,), (2,), (3,), (4,)]) is None
    assert detect_cycle([]) is None
    assert detect_cycle([(1,)]) is None


def test_detect_cycle_finds_the_smallest_period():
    assert detect_cycle([(1, 2)] * 12) == 1
    assert detect_cycle([(1,), (2,)] * 8) == 2
    assert detect_cycle([(1,), (2,), (3,)] * 3) == 3
