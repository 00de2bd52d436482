"""Exact engine for budget-constrained keyword auctions with broad match."""

from .model import (
    Allocation,
    Instance,
    ModelError,
    Profile,
    all_in_profile,
    check_extension,
    load_instance,
    load_schedule,
    load_split,
    split_of_queries,
)
from .auction import Slate, price_query, revenue_identity_check
from .partition import (
    GlobalPartition,
    PartitionTable,
    Segment,
    global_partition,
    query_partition,
    tables_for,
)
from .simulate import (
    DayOutcome,
    check_profile_consistency,
    compare_outcomes,
    simulate_day,
)
from .bestresp import (
    BestResponse,
    ScaleError,
    brute_force_oracle,
    build_subpartition,
    exact_best_response_dp,
    fptas_as2,
    greedy_local_best_response,
    rounded_dp_as1,
)
from .equilibrium import (
    best_response_dynamics,
    dilemma_report,
    marginal_payoffs,
    natural_base_split,
    verify_bme,
    verify_eps_ne,
)
from .acbm import allocate_excess, excess_budgets, obrev_check

__version__ = "0.1.0"
