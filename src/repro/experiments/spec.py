"""Experiment datamodel: specs, declarative guards, normalized results.

Every evaluation artifact in this repository — the paper's Tables 3–11
and Figure 9, and each extension bench — registers an
:class:`ExperimentSpec`: a named, tagged runner with quick/full
parameterizations and *declarative* regression guards.  Running a spec
yields an :class:`ExperimentResult` in one normalized schema
(``schema_version``, git rev, host fingerprint, params, flat numeric
metrics, guard verdicts, raw payload), which is what the per-run
artifact directory stores and the cross-run ledger indexes.

A :class:`Guard` names the metric it watches, the comparison
direction, and a default threshold (``experiment run --guard NAME=X``
overrides it); every guard verdict lands in the result and the ledger,
not only in an exit code.
"""

from __future__ import annotations

import math
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field, asdict
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ExperimentError

#: Bump when the normalized result layout changes incompatibly.
RESULT_SCHEMA_VERSION = 1

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">=": lambda value, threshold: value >= threshold,
    "<=": lambda value, threshold: value <= threshold,
}


def current_git_rev(cwd: Optional[str] = None) -> str:
    """Short git revision of the checkout, or ``"unknown"``.

    Defaults to the repo root (not the process cwd), so runs launched
    from anywhere stamp the same revision."""
    if cwd is None:
        from .paths import repo_root

        cwd = str(repo_root())
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def host_fingerprint() -> Dict[str, Any]:
    """Enough about the host to interpret absolute numbers later."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


@dataclass(frozen=True)
class Guard:
    """A declarative regression guard over one result metric.

    ``op`` gives the passing direction (``">="``: higher is better,
    ``"<="``: lower is better); ``threshold`` is the default bound,
    overridable per run (``experiment run --guard NAME=X``).  An
    optional ``precondition`` — ``(metric, op, bound)`` — gates
    enforcement on host facts, e.g. the cluster scaling guard only binds
    on multi-core hosts.
    """

    name: str
    metric: str
    op: str
    threshold: float
    description: str = ""
    precondition: Optional[Tuple[str, str, float]] = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ExperimentError(
                f"guard {self.name!r}: op must be one of {sorted(_OPS)}, "
                f"got {self.op!r}"
            )
        if self.precondition is not None and self.precondition[1] not in _OPS:
            raise ExperimentError(
                f"guard {self.name!r}: precondition op must be one of "
                f"{sorted(_OPS)}, got {self.precondition[1]!r}"
            )

    @property
    def direction(self) -> str:
        """Which way is better for the watched metric."""
        return "higher" if self.op == ">=" else "lower"

    def evaluate(
        self,
        metrics: Mapping[str, float],
        threshold_override: Optional[float] = None,
    ) -> "GuardVerdict":
        threshold = (
            self.threshold if threshold_override is None else threshold_override
        )
        value = metrics.get(self.metric)
        if self.precondition is not None:
            pre_metric, pre_op, pre_bound = self.precondition
            pre_value = metrics.get(pre_metric)
            if pre_value is None or not _OPS[pre_op](float(pre_value), pre_bound):
                return GuardVerdict(
                    guard=self.name,
                    metric=self.metric,
                    op=self.op,
                    threshold=threshold,
                    value=None if value is None else float(value),
                    passed=True,
                    enforced=False,
                    detail=(
                        f"not enforced: requires {pre_metric} {pre_op} "
                        f"{pre_bound:g} (got {pre_value!r})"
                    ),
                )
        if value is None or not math.isfinite(float(value)):
            return GuardVerdict(
                guard=self.name,
                metric=self.metric,
                op=self.op,
                threshold=threshold,
                value=None,
                passed=False,
                enforced=True,
                detail=f"metric {self.metric!r} missing from result",
            )
        passed = _OPS[self.op](float(value), threshold)
        return GuardVerdict(
            guard=self.name,
            metric=self.metric,
            op=self.op,
            threshold=threshold,
            value=float(value),
            passed=passed,
            enforced=True,
            detail="" if passed else (
                f"{self.metric} = {float(value):g} violates "
                f"{self.op} {threshold:g}"
            ),
        )


@dataclass
class GuardVerdict:
    """The outcome of one guard evaluation, stored inside the result."""

    guard: str
    metric: str
    op: str
    threshold: float
    value: Optional[float]
    passed: bool
    enforced: bool
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GuardVerdict":
        return cls(**dict(data))


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: a runner plus its manifest entry.

    ``runner(params) -> payload`` does the actual work and returns a
    JSON-serializable mapping.  ``metrics_from(payload)`` flattens it to
    the numeric metrics the ledger tracks; when omitted, every top-level
    numeric scalar of the payload becomes a metric.  ``quick_params``
    overlay ``full_params`` when the run asks for quick (CI-smoke)
    sizes.
    """

    name: str
    description: str
    runner: Callable[[Dict[str, Any]], Mapping[str, Any]]
    tags: Tuple[str, ...] = ()
    guards: Tuple[Guard, ...] = ()
    full_params: Mapping[str, Any] = field(default_factory=dict)
    quick_params: Mapping[str, Any] = field(default_factory=dict)
    metrics_from: Optional[
        Callable[[Mapping[str, Any]], Dict[str, float]]
    ] = None

    def params_for(
        self, quick: bool, overrides: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        params: Dict[str, Any] = dict(self.full_params)
        if quick:
            params.update(self.quick_params)
        if overrides:
            params.update(overrides)
        return params

    def extract_metrics(self, payload: Mapping[str, Any]) -> Dict[str, float]:
        if self.metrics_from is not None:
            raw = self.metrics_from(payload)
        else:
            raw = {
                key: value
                for key, value in payload.items()
                if isinstance(value, (int, float))
                and not isinstance(value, bool)
            }
        metrics: Dict[str, float] = {}
        for key, value in raw.items():
            if value is None:
                continue
            number = float(value)
            if math.isfinite(number):
                metrics[key] = number
        return metrics

    def guard_directions(self) -> Dict[str, str]:
        """Metric name → "higher"/"lower", for guard-covered metrics."""
        return {guard.metric: guard.direction for guard in self.guards}


@dataclass
class ExperimentResult:
    """One experiment execution in the normalized result schema."""

    name: str
    status: str  # "ok" | "guard_failed" | "error"
    params: Dict[str, Any]
    metrics: Dict[str, float]
    data: Dict[str, Any]
    guards: List[GuardVerdict]
    git_rev: str
    host: Dict[str, Any]
    started_at: float
    duration_seconds: float
    tags: Tuple[str, ...] = ()
    error: str = ""
    schema_version: int = RESULT_SCHEMA_VERSION

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def guard_failures(self) -> List[GuardVerdict]:
        return [v for v in self.guards if v.enforced and not v.passed]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "status": self.status,
            "tags": list(self.tags),
            "params": dict(self.params),
            "metrics": dict(self.metrics),
            "data": self.data,
            "guards": [v.to_dict() for v in self.guards],
            "git_rev": self.git_rev,
            "host": dict(self.host),
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        validate_result(data)
        return cls(
            name=data["name"],
            status=data["status"],
            params=dict(data["params"]),
            metrics={k: float(v) for k, v in data["metrics"].items()},
            data=dict(data["data"]),
            guards=[GuardVerdict.from_dict(v) for v in data["guards"]],
            git_rev=data["git_rev"],
            host=dict(data["host"]),
            started_at=float(data["started_at"]),
            duration_seconds=float(data["duration_seconds"]),
            tags=tuple(data.get("tags", ())),
            error=data.get("error", ""),
            schema_version=int(data["schema_version"]),
        )


_REQUIRED_RESULT_KEYS = {
    "schema_version": int,
    "name": str,
    "status": str,
    "params": dict,
    "metrics": dict,
    "data": dict,
    "guards": list,
    "git_rev": str,
    "host": dict,
    "started_at": (int, float),
    "duration_seconds": (int, float),
}

_STATUSES = ("ok", "guard_failed", "error")


def validate_result(data: Mapping[str, Any]) -> None:
    """Raise :class:`ExperimentError` unless ``data`` is a valid result."""
    if not isinstance(data, Mapping):
        raise ExperimentError(
            f"result must be a mapping, got {type(data).__name__}"
        )
    for key, kind in _REQUIRED_RESULT_KEYS.items():
        if key not in data:
            raise ExperimentError(f"result missing required key {key!r}")
        if not isinstance(data[key], kind):
            raise ExperimentError(
                f"result key {key!r} must be {kind}, "
                f"got {type(data[key]).__name__}"
            )
    if data["schema_version"] != RESULT_SCHEMA_VERSION:
        raise ExperimentError(
            f"result schema_version {data['schema_version']!r} is not the "
            f"supported version {RESULT_SCHEMA_VERSION}"
        )
    if data["status"] not in _STATUSES:
        raise ExperimentError(
            f"result status must be one of {_STATUSES}, "
            f"got {data['status']!r}"
        )
    for metric, value in data["metrics"].items():
        if not isinstance(metric, str):
            raise ExperimentError(f"metric names must be strings: {metric!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExperimentError(
                f"metric {metric!r} must be numeric, "
                f"got {type(value).__name__}"
            )
    for verdict in data["guards"]:
        if not isinstance(verdict, Mapping) or "guard" not in verdict:
            raise ExperimentError(f"malformed guard verdict: {verdict!r}")


def execute_spec(
    spec: ExperimentSpec,
    *,
    quick: bool = False,
    param_overrides: Optional[Mapping[str, Any]] = None,
    guard_overrides: Optional[Mapping[str, float]] = None,
    git_rev: Optional[str] = None,
) -> ExperimentResult:
    """Run one spec and normalize the outcome (exceptions included).

    Guard overrides are keyed by guard name (``{"min_speedup": 1.5}``);
    unknown names raise so a typoed override can't silently no-op.
    """
    overrides = dict(guard_overrides or {})
    known = {guard.name for guard in spec.guards}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ExperimentError(
            f"experiment {spec.name!r} has no guard named {unknown[0]!r}; "
            f"available: {sorted(known) or 'none'}"
        )
    params = spec.params_for(quick, param_overrides)
    rev = git_rev if git_rev is not None else current_git_rev()
    started = time.time()
    clock = time.perf_counter()
    try:
        payload = dict(spec.runner(dict(params)))
    except Exception as exc:  # noqa: BLE001 — a failed bench is a result
        return ExperimentResult(
            name=spec.name,
            status="error",
            params=params,
            metrics={},
            data={},
            guards=[],
            git_rev=rev,
            host=host_fingerprint(),
            started_at=started,
            duration_seconds=time.perf_counter() - clock,
            tags=spec.tags,
            error=f"{type(exc).__name__}: {exc}",
        )
    duration = time.perf_counter() - clock
    metrics = spec.extract_metrics(payload)
    verdicts = [
        guard.evaluate(metrics, overrides.get(guard.name))
        for guard in spec.guards
    ]
    status = "ok"
    if any(v.enforced and not v.passed for v in verdicts):
        status = "guard_failed"
    return ExperimentResult(
        name=spec.name,
        status=status,
        params=params,
        metrics=metrics,
        data=payload,
        guards=verdicts,
        git_rev=rev,
        host=host_fingerprint(),
        started_at=started,
        duration_seconds=duration,
        tags=spec.tags,
    )


__all__ = [
    "RESULT_SCHEMA_VERSION",
    "Guard",
    "GuardVerdict",
    "ExperimentSpec",
    "ExperimentResult",
    "current_git_rev",
    "host_fingerprint",
    "validate_result",
    "execute_spec",
]
