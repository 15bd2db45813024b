"""Cost and usage reporting — the consumer of fine-grained billing.

The paper's economic pitch (§2, §6) rests on fine-grained, transparent
billing.  :class:`CostReport` turns a platform's metrics into the bill
a customer would actually read: per-function invocations, GB-seconds,
duration and dollars, plus standing charges for provisioned
concurrency.
"""

from __future__ import annotations

import dataclasses
import typing

from taureau.core.platform import FaasPlatform
from taureau.obs.profile import billing_lines

__all__ = ["FunctionUsage", "CostReport"]


@dataclasses.dataclass(frozen=True)
class FunctionUsage:
    """One function's line on the bill."""

    function_name: str
    tenant: str
    invocations: int
    billed_seconds: float
    gb_seconds: float
    cost_usd: float


class CostReport:
    """A point-in-time bill for one platform."""

    def __init__(
        self,
        lines: typing.Sequence[FunctionUsage],
        provisioned_cost_usd: float,
        window_s: float,
    ):
        self.lines = sorted(lines, key=lambda line: -line.cost_usd)
        self.provisioned_cost_usd = provisioned_cost_usd
        self.window_s = window_s

    @classmethod
    def from_platform(cls, platform: FaasPlatform) -> "CostReport":
        """Build the bill from the platform's ``billing.*_by`` families."""
        lines = [FunctionUsage(function, tenant, int(requests), seconds, gb_s, cost)
                 for function, tenant, requests, seconds, gb_s, cost
                 in billing_lines(platform.metrics)]
        return cls(
            lines,
            provisioned_cost_usd=platform.provisioned_cost_usd(),
            window_s=platform.sim.now,
        )

    @property
    def total_usd(self) -> float:
        return (
            sum(line.cost_usd for line in self.lines) + self.provisioned_cost_usd
        )

    def by_tenant(self) -> typing.Dict[str, float]:
        """Execution dollars per tenant (provisioned charges excluded)."""
        totals: dict = {}
        for line in self.lines:
            totals[line.tenant] = totals.get(line.tenant, 0.0) + line.cost_usd
        return totals

    def format(self) -> str:
        """A printable invoice."""
        rows = [
            f"{'function':<24} {'tenant':<12} {'invocations':>11} "
            f"{'billed_s':>10} {'GB-s':>10} {'USD':>12}"
        ]
        rows.append("-" * len(rows[0]))
        for line in self.lines:
            rows.append(
                f"{line.function_name:<24} {line.tenant:<12} "
                f"{line.invocations:>11d} {line.billed_seconds:>10.1f} "
                f"{line.gb_seconds:>10.2f} {line.cost_usd:>12.8f}"
            )
        if self.provisioned_cost_usd:
            rows.append(
                f"{'(provisioned concurrency)':<60}"
                f"{self.provisioned_cost_usd:>12.8f}"
            )
        rows.append(f"{'TOTAL':<60}{self.total_usd:>12.8f}")
        return "\n".join(rows)
