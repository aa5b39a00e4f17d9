"""Extension: temporal shifting across intensity-trace families.

ext01 proves carbon-aware scheduling works on one stylized duck curve.
This experiment runs the question at catalog scale: every Table III
region's duck-curve family (deterministic, noisy, renewable-ramp)
crossed with two canonical workload streams and the full policy
spectrum — carbon-agnostic, unboundedly carbon-aware, and
slack-bounded deferral — through the batched evaluator in
:mod:`repro.traces`, with a scalar-scheduler spot check pinning the
batched kernel to the reference implementation.
"""

from __future__ import annotations

import numpy as np

from ..report.charts import line_chart
from ..tabular import Table, col
from ..traces import (
    DEFAULT_POLICIES,
    canonical_workloads,
    evaluate_policies,
    evaluate_policies_scalar,
    profile_catalog,
)
from ..analysis.uncertainty import UncertaintyResult
from ..uncertainty import sweep_temporal_shifting_uncertain
from .result import Check, ExperimentResult

__all__ = ["run"]

#: Cheap registry metadata: the experiment title without run().
TITLE = "Temporal shifting: scheduling policies across trace families"

_HOURS = 72
_CAPACITY_KW = 2500.0
_SLACK_POLICY = DEFAULT_POLICIES[2]
_NOISE_DRAWS = 6


def run() -> ExperimentResult:
    """Run this experiment and return its tables and checks."""
    catalog = profile_catalog(_HOURS)
    workloads = canonical_workloads()
    results = evaluate_policies(catalog, workloads, capacity_kw=_CAPACITY_KW)

    by_policy = results.aggregate(
        by=["policy"],
        mean_savings=("savings_fraction", lambda v: float(np.mean(v))),
        mean_deferral_h=("mean_deferral_hours", lambda v: float(np.mean(v))),
        max_deferral_h=("max_deferral_hours", max),
        scenarios=("trace", len),
    )

    # Uncertainty view: the trace itself is the elusive input. Sample
    # weather/demand noise draws per region through the batched
    # evaluator and attach per-policy savings CI columns.
    uncertain = sweep_temporal_shifting_uncertain(
        _HOURS, capacity_kw=_CAPACITY_KW, draws=_NOISE_DRAWS, seed=0
    )
    noise_samples = uncertain.samples_for("savings_fraction")
    noise_p05, _, _ = uncertain.band("savings_fraction")
    policy_axis = uncertain.axes.column("policy")
    worst_aware_p05 = min(
        float(value)
        for value, name in zip(noise_p05, policy_axis)
        if name == "aware"
    )
    ordered_policies = list(by_policy.column("policy"))
    pooled = {
        policy: UncertaintyResult(
            noise_samples[
                [
                    index
                    for index, name in enumerate(policy_axis)
                    if name == policy
                ]
            ].ravel()
        )
        for policy in ordered_policies
    }
    by_policy = Table(
        {
            **{
                name: by_policy.column(name)
                for name in by_policy.column_names
            },
            # Pooled quantiles of each policy's savings distribution
            # over every region x workload x noise draw.
            "savings_p05": [
                pooled[policy].percentile(5.0) for policy in ordered_policies
            ],
            "savings_p50": [
                pooled[policy].percentile(50.0) for policy in ordered_policies
            ],
            "savings_p95": [
                pooled[policy].percentile(95.0) for policy in ordered_policies
            ],
        }
    )

    aware = results.where(col("policy") == "aware")
    slack = results.where(col("policy") == _SLACK_POLICY.name)
    aware_savings = np.asarray(aware.array("savings_fraction"), dtype=float)
    slack_savings = np.asarray(slack.array("savings_fraction"), dtype=float)
    slack_max_deferral = np.asarray(
        slack.array("max_deferral_hours"), dtype=float
    )

    # Pin the batched evaluator to the scalar reference on a subset
    # (full-catalog equivalence lives in the dedicated test suite).
    subset = dict(list(catalog.items())[:3])
    batched = evaluate_policies(subset, workloads, capacity_kw=_CAPACITY_KW)
    scalar = evaluate_policies_scalar(subset, workloads, capacity_kw=_CAPACITY_KW)
    matches = all(
        batched.column(name) == scalar.column(name)
        for name in batched.column_names
    )

    checks = [
        Check.boolean("aware_never_worse", bool(np.all(aware_savings >= -1e-9))),
        Check.boolean("savings_material", float(np.max(aware_savings)) >= 0.10),
        Check.boolean(
            "slack_bounds_deferral",
            bool(np.all(slack_max_deferral <= _SLACK_POLICY.slack_hours + 1e-9)),
        ),
        Check.boolean(
            "bounded_slack_cannot_beat_unbounded_on_average",
            float(np.mean(slack_savings)) <= float(np.mean(aware_savings)) + 1e-9,
        ),
        Check.boolean("batched_matches_scalar_reference", matches),
        Check.boolean(
            # Carbon-aware savings survive weather/demand noise: even
            # the worst 5th-percentile draw across every region and
            # workload still saves carbon.
            "aware_savings_p05_material_under_noise",
            worst_aware_p05 > 0.05,
        ),
    ]

    dirty = catalog["india"]
    clean = catalog["iceland"]
    chart = line_chart(
        [float(hour) for hour in range(_HOURS)],
        {
            "india_g_per_kwh": list(dirty.values),
            "iceland_g_per_kwh": list(clean.values),
        },
    )
    mean_aware = float(np.mean(aware_savings))
    return ExperimentResult(
        experiment_id="ext10",
        title=TITLE,
        tables={"by_policy": by_policy, "scenarios": results},
        checks=checks,
        charts={"trace_families": chart},
        notes=[
            f"{results.num_rows} scenarios: {len(catalog)} traces x "
            f"{len(workloads)} workloads x {len(DEFAULT_POLICIES)} policies",
            f"mean carbon savings of unbounded carbon-aware: {mean_aware:.1%}",
            "CI columns: pooled p05/p50/p95 of each policy's savings "
            f"over every region x workload x {_NOISE_DRAWS} seeded noise "
            "draws (repro.uncertainty.sweep_temporal_shifting_uncertain); "
            "expected range: per-scenario aware savings p05 stays above "
            f"0.05 for every region x workload, worst-case "
            f"{worst_aware_p05:.3f}.",
        ],
    )
