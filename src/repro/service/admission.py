"""The admission door: explicit backpressure instead of unbounded queues.

A long-running service cannot absorb arbitrary arrival rates the way a
batch simulation can — its waiting queue would grow without bound and
every queued request would eventually time out anyway.  The door in
front of the kernel therefore says *no* early and explicitly:

* each ``(tenant, QoS class)`` pair owns a **token bucket** refilled in
  simulated time at the class rate; an empty bucket throttles the
  request with a ``Retry-After`` hint computed from the refill rate
  (HTTP 429 at the API layer);
* a global **queue-depth bound** refuses new work while the kernel's
  waiting queue is already at capacity — the service sheds load at the
  door rather than letting admission latency grow unboundedly.

Both throttles are deterministic functions of the simulated clock, so
service runs (and their checkpoints) replay bit-identically — the same
property every other layer of this repository is pinned on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .qos import QosClass, get_qos

#: Default bound on the kernel's waiting queue before the door sheds
#: load (tasks, across all tenants).
DEFAULT_MAX_QUEUE_DEPTH = 64

#: Retry hint handed out on queue-depth rejections: roughly one mean
#: service time, after which some queued work has likely drained.
DEPTH_RETRY_AFTER = 1.0


@dataclass(slots=True)
class TokenBucket:
    """A token bucket refilled continuously in simulated time."""

    rate: float
    burst: float
    tokens: float
    updated_at: float = 0.0

    def try_take(self, now: float) -> float:
        """Spend one token at ``now``; 0.0 on success, else the
        simulated seconds until a token will be available."""
        if now > self.updated_at:
            self.tokens = min(
                self.burst, self.tokens + (now - self.updated_at) * self.rate
            )
            self.updated_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate

    def time_to_token(self, now: float) -> float:
        """Simulated seconds until a token would be available at
        ``now`` — a pure projection: nothing is spent, nothing is
        refilled, so probing for a ``Retry-After`` hint never perturbs
        the bucket a later :meth:`try_take` will see."""
        tokens = self.tokens
        if now > self.updated_at:
            tokens = min(
                self.burst, tokens + (now - self.updated_at) * self.rate
            )
        if tokens >= 1.0:
            return 0.0
        return (1.0 - tokens) / self.rate

    def export_state(self) -> dict:
        """Serializable bucket state (checkpoint/restore)."""
        return {"rate": self.rate, "burst": self.burst,
                "tokens": self.tokens, "updated_at": self.updated_at}


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """Outcome of one knock on the door."""

    #: True when the request may proceed to the kernel queue.
    admitted: bool
    #: the QoS class consulted (priority + patience defaults).
    qos: QosClass
    #: simulated seconds the caller should wait before retrying
    #: (the HTTP layer's ``Retry-After``; 0.0 when admitted).
    retry_after: float = 0.0
    #: machine-readable refusal reason (``rate-limit`` / ``queue-full``).
    reason: str = ""


@dataclass
class TenantStats:
    """Per-tenant admission accounting (exposed at ``/stats``)."""

    submitted: int = 0
    admitted: int = 0
    throttled_rate: int = 0
    throttled_depth: int = 0

    def to_dict(self) -> dict:
        """Flat counter dict for the stats endpoint and checkpoints."""
        return {"submitted": self.submitted, "admitted": self.admitted,
                "throttled_rate": self.throttled_rate,
                "throttled_depth": self.throttled_depth}


@dataclass
class AdmissionController:
    """Per-tenant token-bucket rate limits plus a queue-depth bound."""

    max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH
    #: (tenant, class name) -> bucket, created lazily from the class
    #: defaults on first use.
    buckets: dict[tuple[str, str], TokenBucket] = field(
        default_factory=dict
    )
    stats: dict[str, TenantStats] = field(default_factory=dict)

    def _bucket(self, tenant: str, qos: QosClass) -> TokenBucket:
        """The tenant's bucket for a class (lazily provisioned)."""
        key = (tenant, qos.name)
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = TokenBucket(qos.rate, qos.burst, tokens=qos.burst)
            self.buckets[key] = bucket
        return bucket

    def _stats(self, tenant: str) -> TenantStats:
        """The tenant's counter record (lazily provisioned)."""
        stats = self.stats.get(tenant)
        if stats is None:
            stats = TenantStats()
            self.stats[tenant] = stats
        return stats

    def admit(self, tenant: str, qos_name: str, now: float,
              queue_depth: int) -> AdmissionDecision:
        """Decide one submission at simulated instant ``now``.

        ``queue_depth`` is the kernel's current waiting count; the
        depth bound is checked first (shedding load beats metering it),
        then the tenant's token bucket for the class.  Every decision
        is counted in :attr:`stats`.
        """
        qos = get_qos(qos_name)
        stats = self._stats(tenant)
        stats.submitted += 1
        if queue_depth >= self.max_queue_depth:
            stats.throttled_depth += 1
            # A queue-full refusal still owes an honest hint: a tenant
            # whose bucket is also drained cannot usefully retry before
            # its own refill deficit clears, while a nearly-refilled
            # tenant should not be told to wait the full constant.
            deficit = self._bucket(tenant, qos).time_to_token(now)
            retry_after = deficit if deficit > 0.0 else DEPTH_RETRY_AFTER
            return AdmissionDecision(False, qos,
                                     retry_after=retry_after,
                                     reason="queue-full")
        retry_after = self._bucket(tenant, qos).try_take(now)
        if retry_after > 0.0:
            stats.throttled_rate += 1
            return AdmissionDecision(False, qos, retry_after=retry_after,
                                     reason="rate-limit")
        stats.admitted += 1
        return AdmissionDecision(True, qos)

    # -- checkpoint support --------------------------------------------------

    def export_state(self) -> dict:
        """Serializable controller state (buckets + counters)."""
        return {
            "max_queue_depth": self.max_queue_depth,
            "buckets": [
                {"tenant": tenant, "qos": qos, **bucket.export_state()}
                for (tenant, qos), bucket in sorted(self.buckets.items())
            ],
            "stats": {tenant: stats.to_dict()
                      for tenant, stats in sorted(self.stats.items())},
        }

    @classmethod
    def from_state(cls, state: dict) -> "AdmissionController":
        """Rebuild a controller from :meth:`export_state` output."""
        controller = cls(max_queue_depth=int(state["max_queue_depth"]))
        for row in state["buckets"]:
            controller.buckets[(row["tenant"], row["qos"])] = TokenBucket(
                rate=float(row["rate"]), burst=float(row["burst"]),
                tokens=float(row["tokens"]),
                updated_at=float(row["updated_at"]),
            )
        for tenant, counters in state["stats"].items():
            controller.stats[tenant] = TenantStats(**counters)
        return controller
