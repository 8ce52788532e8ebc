"""Memoizing planning layer: plans, schedules, compiled programs and routes.

See :mod:`repro.plancache.cache`.
"""

from repro.plancache.cache import (
    PLAN_CACHE,
    PlanCache,
    cached_ft_schedule,
    cached_plain_schedule,
    cached_route_table,
    plan_with_cache,
)

__all__ = [
    "PLAN_CACHE",
    "PlanCache",
    "cached_ft_schedule",
    "cached_plain_schedule",
    "cached_route_table",
    "plan_with_cache",
]
