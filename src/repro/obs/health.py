"""Health state machine: ``ok → degraded → failing`` with typed reasons.

Turns an SLO evaluation (plus optional fleet signals) into the three
states a probe, a load balancer or the cluster supervisor can act on:

* ``ok`` — no objective burning, fleet complete, queue stable.
* ``degraded`` — something is wrong but the service still serves:
  one burn window breached, a shard down (respawn pending), or the
  count of requests in flight growing faster than they finish.
* ``failing`` — actively failing its users: the whole fleet is dead, or
  **both** burn windows are breached (the classic multi-window signal —
  burning now *and* persistently).  ``/healthz`` maps this state to
  HTTP 503 so load balancers eject the instance.

Every contributing condition is a machine-readable reason code
(``{"code", "detail"}``) — supervisors branch on ``code``, humans read
``detail``.  Recovery is implicit in the window algebra: when load
stops, the fast window clears within ~1 fast window (failing →
degraded) and the slow window within ~1 slow window (degraded → ok), so
a fleet returns to ``ok`` within two slow windows of the incident
ending without any reset hook.

:func:`evaluate_health` also emits the ``scale_hint`` block — the
contract the future autoscaler consumes: ``direction`` is ``"grow"``
(fast burn or sustained queue growth: more shards would help *now*),
``"shrink"`` (sustained headroom: the slow window saw traffic but p99
sits far under target with an idle queue) or ``"hold"``.

Pure functions over dicts: no clock, no I/O, no state — the windows
carry the time axis, which keeps every transition reproducible under an
injectable clock.
"""

from __future__ import annotations

__all__ = [
    "HEALTH_STATES",
    "REASON_FAST_BURN_AVAILABILITY",
    "REASON_FAST_BURN_P99",
    "REASON_FLEET_DOWN",
    "REASON_QUEUE_GROWTH",
    "REASON_SHARDS_DEAD",
    "REASON_SLOW_BURN_AVAILABILITY",
    "REASON_SLOW_BURN_P99",
    "REASON_SUSTAINED_HEADROOM",
    "STATE_DEGRADED",
    "STATE_FAILING",
    "STATE_OK",
    "evaluate_health",
    "state_value",
]

STATE_OK = "ok"
STATE_DEGRADED = "degraded"
STATE_FAILING = "failing"

#: Severity order; the index is the Prometheus gauge value.
HEALTH_STATES = (STATE_OK, STATE_DEGRADED, STATE_FAILING)

REASON_FAST_BURN_P99 = "fast_burn_p99"
REASON_FAST_BURN_AVAILABILITY = "fast_burn_availability"
REASON_SLOW_BURN_P99 = "slow_burn_p99"
REASON_SLOW_BURN_AVAILABILITY = "slow_burn_availability"
REASON_QUEUE_GROWTH = "queue_growth"
REASON_SHARDS_DEAD = "shards_dead"
REASON_FLEET_DOWN = "fleet_down"
REASON_SUSTAINED_HEADROOM = "sustained_headroom"

#: Queue depth (requests) below which growth is never flagged — tiny
#: absolute backlogs are noise, not a capacity signal.
QUEUE_GROWTH_MIN_DEPTH = 8.0

#: Shrink hints require the slow-window p99 to sit under this fraction
#: of the target — "comfortably under", not "barely under".
HEADROOM_P99_FRACTION = 0.25


def state_value(state: str) -> int:
    """Numeric severity of a state (``repro_health_state`` gauge value)."""
    return HEALTH_STATES.index(state)


def _burn_reasons(slo_status: dict) -> list[dict]:
    objective = slo_status["objective"]
    reasons: list[dict] = []
    specs = (
        ("fast", objective["fast_burn_threshold"],
         REASON_FAST_BURN_P99, REASON_FAST_BURN_AVAILABILITY),
        ("slow", objective["slow_burn_threshold"],
         REASON_SLOW_BURN_P99, REASON_SLOW_BURN_AVAILABILITY),
    )
    for window, threshold, latency_code, availability_code in specs:
        status = slo_status["windows"][window]
        if status["latency_burn"] >= threshold:
            reasons.append(
                {
                    "code": latency_code,
                    "detail": (
                        f"{window}-window latency burn "
                        f"{status['latency_burn']:.1f}x (>= {threshold:g}x): "
                        f"{status['fraction_over_target']:.1%} of requests "
                        f"over {objective['p99_ms']:g}ms"
                    ),
                }
            )
        if status["availability_burn"] >= threshold:
            reasons.append(
                {
                    "code": availability_code,
                    "detail": (
                        f"{window}-window availability burn "
                        f"{status['availability_burn']:.1f}x "
                        f"(>= {threshold:g}x): availability "
                        f"{status['availability']:.4f} vs target "
                        f"{objective['availability']:g}"
                    ),
                }
            )
    return reasons


def _queue_growth_reason(slo_status: dict) -> dict | None:
    queue = (
        slo_status["windows"]["fast"]["delta"]["gauges"].get("queue_depth")
    )
    if not queue:
        return None
    growing = (
        queue["last"] >= QUEUE_GROWTH_MIN_DEPTH
        and queue["last"] > queue["first"]
        and queue["last"] >= 2.0 * max(queue["first"], 1.0)
    )
    if not growing:
        return None
    return {
        "code": REASON_QUEUE_GROWTH,
        "detail": (
            f"queue depth grew {queue['first']:g} -> {queue['last']:g} "
            f"over the fast window (mean {queue['mean']:.1f}): arrivals "
            f"outpace the service"
        ),
    }


def _scale_hint(slo_status: dict, reasons: list[dict]) -> dict:
    codes = [r["code"] for r in reasons]
    grow_codes = [
        code
        for code in codes
        if code in (
            REASON_FAST_BURN_P99,
            REASON_FAST_BURN_AVAILABILITY,
            REASON_QUEUE_GROWTH,
        )
    ]
    if grow_codes:
        return {"direction": "grow", "reasons": grow_codes}
    slow = slo_status["windows"]["slow"]
    queue = slow["delta"]["gauges"].get("queue_depth") or {}
    headroom = (
        not codes
        and slow["requests"] > 0
        and slow["rejections"] == 0
        and slow["p99_ms"]
        <= slo_status["objective"]["p99_ms"] * HEADROOM_P99_FRACTION
        and queue.get("max", 0.0) < QUEUE_GROWTH_MIN_DEPTH
    )
    if headroom:
        return {"direction": "shrink", "reasons": [REASON_SUSTAINED_HEADROOM]}
    return {"direction": "hold", "reasons": []}


def evaluate_health(
    slo_status: dict,
    *,
    alive: int | None = None,
    shards: int | None = None,
) -> dict:
    """Fold an SLO evaluation (+ optional fleet liveness) into a state.

    ``alive``/``shards`` are supplied by the cluster router; a standalone
    daemon omits them.  Returns ``{"state", "reasons", "scale_hint"}`` —
    the block daemon and router ``/healthz`` serve and the supervisor's
    monitor loop consumes.
    """
    reasons = _burn_reasons(slo_status)
    queue_reason = _queue_growth_reason(slo_status)
    if queue_reason is not None:
        reasons.append(queue_reason)
    fleet_down = alive == 0 and shards is not None and shards > 0
    if fleet_down:
        reasons.append(
            {
                "code": REASON_FLEET_DOWN,
                "detail": f"0 of {shards} shards alive",
            }
        )
    elif alive is not None and shards is not None and alive < shards:
        reasons.append(
            {
                "code": REASON_SHARDS_DEAD,
                "detail": f"{alive} of {shards} shards alive",
            }
        )
    if fleet_down or (
        slo_status["fast_breach"] and slo_status["slow_breach"]
    ):
        state = STATE_FAILING
    elif reasons:
        state = STATE_DEGRADED
    else:
        state = STATE_OK
    return {
        "state": state,
        "reasons": reasons,
        "scale_hint": _scale_hint(slo_status, reasons),
    }
