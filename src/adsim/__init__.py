"""Sponsored-search auction and CTR-estimation simulator.

Deterministic, seeded simulation of slot auctions (GSP and GFP pricing),
four click-through-rate estimators, and click-fraud injection/detection,
plus a scenario bench with CSV/SVG reporting and a CLI (``adsim``).
"""

from .auction import (
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
from .bench import (
    ConfigError,
    Erratum,
    ScenarioConfig,
    ScenarioResult,
    SeriesRow,
    ShapeViolation,
    build_series,
    curve_shape_check,
    emit_csv,
    emit_plot,
    load_config,
    replay_reference_tables,
    run_scenario,
    simulate,
)
from .core import (
    AdsimError,
    AdvertiserId,
    ClickEvent,
    ClickSource,
    DanglingClickError,
    DuplicateClickError,
    DuplicateImpressionError,
    EventLog,
    HorizonExceededError,
    ImpressionEvent,
    MalformedRecordError,
    OutOfOrderError,
    read_log,
    write_log,
)
from .estimators import (
    CtrEstimate,
    RelativeCtr,
    WindowSpec,
    ctr_legacy,
    ctr_relative,
)
from .traffic import (
    FRAUD_QUERY_ID_BASE,
    FraudFlag,
    FraudPlan,
    TrafficConfig,
    detect_scripted,
    fraud_events,
)

__version__ = "0.1.0"
