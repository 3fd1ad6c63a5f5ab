"""Executable checks for the ascent/convergence guarantees of SMS.

Each check turns one theoretical statement into a verdict with a signed
worst-case slack (negative slack = violation).  Almost-sure asymptotic
statements are verified at finite horizon with explicit surrogate
thresholds and pass fractions over seeds; such results are labelled
"finite-horizon surrogate" in the report rather than claimed as proofs.

Checks that evaluate gradients of the objective, or that invoke the
critical-point characterisation, require a C1 profile and are skipped
for the Epanechnikov profile (alpha = 1): ``partial_gradient_bound``,
``gradient_vanishes`` and ``critical_characterization``.  The ascent
check needs only convexity of the profile and runs for every profile,
as do the purely geometric cluster-stability and single-cluster checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algorithms import AlgoConfig, RunTrace, sms_run
from .clustering import MergePolicy, extract_clusters
from .core import check_bandwidth, check_state, full_gradient, gradient_max_norm, pairwise_sq_blocks
from .experiments import index_seed
from .kernels import Profile
from .synthdata import generate, parse_preset

__all__ = [
    "CheckResult",
    "TheoryReport",
    "check_monotone_ascent",
    "check_partial_gradient_bound",
    "check_gradient_vanishes",
    "check_cluster_stability",
    "check_single_cluster_convergence",
    "check_critical_characterization",
    "negative_controls",
    "verify_preset",
]

@dataclass
class CheckResult:
    """Verdict of one check: status is pass, fail, or skipped."""

    name: str
    status: str
    worst_slack: float | None = None
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool | None:
        if self.status == "pass":
            return True
        if self.status == "fail":
            return False
        return None

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed, "status": self.status}
        if self.worst_slack is not None:
            out["worst_slack"] = float(self.worst_slack)
        out.update(self.detail)
        return out


@dataclass
class TheoryReport:
    checks: list[CheckResult]
    meta: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema": "theory-report/1",
            **self.meta,
            "all_passed": self.all_passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def check_monotone_ascent(trace: RunTrace, cfg: AlgoConfig) -> CheckResult:
    """Per-step ascent with explicit constant 2 G(0) / h^2.

    Verifies objective(k+1) - objective(k) >= C * shift_k^2 - tol at
    every recorded step, with tol = 1e-9 * max(1, initial objective).
    The increments are read from ``trace.objective_delta``.
    """
    if trace.algorithm != "sms":
        raise ValueError("monotone-ascent check applies to SMS traces")
    if trace.objective_delta is None:
        raise ValueError("trace was recorded without objective values")
    scale = max(1.0, abs(trace.initial_objective))
    tol = 1e-9 * scale
    c = 2.0 * cfg.profile.weight_at_zero / (cfg.h * cfg.h)
    slack = trace.objective_delta - c * trace.shift**2
    worst = float(slack.min()) if slack.size else float("inf")
    status = "pass" if worst >= -tol else "fail"
    return CheckResult(
        "monotone_ascent",
        status,
        worst,
        {"tolerance": tol, "n_steps": int(slack.size), "scale": scale},
    )


def check_partial_gradient_bound(trace: RunTrace, cfg: AlgoConfig) -> CheckResult:
    """Moved-coordinate gradient bound D sqrt(delta objective) + 1e-9.

    D = n sqrt(2 |k'(0)|) / h.  Also verifies the count bound: for
    eps in {0.1, 0.01} * max(1, initial gradient norm), the number of
    steps with gradient norm >= eps is at most
    (D / eps)^2 [n (n + 1) / 2 - initial objective].
    """
    if trace.algorithm != "sms":
        raise ValueError("gradient-bound check applies to SMS traces")
    if trace.objective_delta is None or trace.grad_norm is None:
        raise ValueError("trace was recorded without objective/gradient values")
    n = trace.initial_points.shape[0]
    d_const = n * np.sqrt(2.0 * cfg.profile.weight_at_zero) / cfg.h
    deltas = np.clip(trace.objective_delta, 0.0, None)
    slack = d_const * np.sqrt(deltas) + 1e-9 - trace.grad_norm
    worst = float(slack.min()) if slack.size else float("inf")

    grad_scale = max(1.0, gradient_max_norm(full_gradient(trace.initial_points, cfg.h, cfg.profile)))
    budget = n * (n + 1) / 2.0 - trace.initial_objective
    count_ok = True
    count_detail = {}
    for frac in (0.1, 0.01):
        eps = frac * grad_scale
        observed = int((trace.grad_norm >= eps).sum())
        allowed = (d_const / eps) ** 2 * budget
        count_detail[f"count_eps_{frac}"] = {"observed": observed, "allowed": float(allowed)}
        count_ok = count_ok and observed <= allowed

    status = "pass" if worst >= 0.0 and count_ok else "fail"
    return CheckResult(
        "partial_gradient_bound",
        status,
        worst,
        {"D": float(d_const), "n_steps": int(slack.size), "grad_scale": grad_scale, **count_detail},
    )


def check_gradient_vanishes(trace: RunTrace, cfg: AlgoConfig) -> CheckResult:
    """Finite-horizon surrogate for gradient -> 0: final sup norm < eps.

    eps = 1e-3 * max(1, initial gradient sup norm), which makes the test
    unit-free.
    """
    scale = max(1.0, gradient_max_norm(full_gradient(trace.initial_points, cfg.h, cfg.profile)))
    epsilon = 1e-3 * scale
    final_norm = gradient_max_norm(full_gradient(trace.final_points, cfg.h, cfg.profile))
    slack = epsilon - final_norm
    return CheckResult(
        "gradient_vanishes",
        "pass" if final_norm < epsilon else "fail",
        float(slack),
        {
            "final_gradient_norm": final_norm,
            "epsilon": float(epsilon),
            "scale": scale,
            "kind": "finite-horizon surrogate",
        },
    )


def _dist_blocks(points: np.ndarray):
    """Pairwise distances as row blocks ``(d, upper)``; upper marks j > i."""
    cols = np.arange(points.shape[0])[None, :]
    for lo, hi, sq in pairwise_sq_blocks(points, points):
        np.clip(sq, 0.0, None, out=sq)
        yield np.sqrt(sq, out=sq), cols > np.arange(lo, hi)[:, None]


def _max_dist(points: np.ndarray) -> float:
    return max(float(d.max()) for d, _ in _dist_blocks(points)) if points.shape[0] > 1 else 0.0


def check_cluster_stability(trace: RunTrace, h, tau: float) -> CheckResult:
    """No pair in the forbidden band [tau, h - tau] and a settled partition.

    Uses the last two recorded snapshots: the final one must have every
    pairwise distance < tau or > h - tau, and the partitions induced by
    linking at tau must be identical across both snapshots.
    """
    h = check_bandwidth(h)
    if not 0.0 < tau < h / 2.0:
        raise ValueError(f"tau must lie in (0, h/2), got {tau}")
    if len(trace.snapshots) < 2:
        raise ValueError("cluster-stability check needs at least two snapshots")
    (_, prev), (_, last) = trace.snapshots[-2], trace.snapshots[-1]

    # worst band slack over pairs j > i; inf when there is no pair
    slack = float("inf")
    for d, upper in _dist_blocks(last):
        # max(tau - d, d - (h - tau)), the second term computed in place
        band = np.maximum(tau - d, np.subtract(d, h - tau, out=d), out=d)
        slack = min(slack, float(np.min(band, where=upper, initial=np.inf)))

    policy = MergePolicy(tau / h)
    part_prev = extract_clusters(prev, h, policy)
    part_last = extract_clusters(last, h, policy)
    same = np.array_equal(part_prev.assignment, part_last.assignment)
    status = "pass" if slack > 0.0 and same else "fail"
    return CheckResult(
        "cluster_stability",
        status,
        slack,
        {
            "tau": float(tau),
            "partition_settled": bool(same),
            "n_clusters": int(part_last.n_clusters),
            "kind": "finite-horizon surrogate",
        },
    )


def check_single_cluster_convergence(initial_points, cfg: AlgoConfig) -> CheckResult:
    """All points collapse to one limit when the initial diameter is < h.

    Runs SMS with the given budget; passes when the final maximal
    pairwise distance is below 10 * move_tolerance and the directional
    hull widths (axis directions plus d random directions) never grow
    along snapshots.  States violating the diameter assumption report
    "assumption unmet" instead of failing.
    """
    pts = check_state(initial_points)
    n, d = pts.shape
    diameter = _max_dist(pts)
    if diameter >= cfg.h:
        return CheckResult(
            "single_cluster_convergence",
            "skipped",
            None,
            {"reason": "assumption unmet", "diameter": diameter, "h": cfg.h},
        )

    run_cfg = replace(cfg, algorithm="sms", trace_objective=False, trace_gradient=False,
                      snapshot_every=max(1, n))
    final, trace = sms_run(pts, run_cfg)

    max_dist = _max_dist(final)
    threshold = 10.0 * cfg.move_tolerance
    slack = threshold - max_dist

    dirs = np.eye(d)
    extra = np.random.default_rng([cfg.seed, 2]).standard_normal((d, d))
    norms = np.sqrt(np.einsum("ij,ij->i", extra, extra))
    dirs = np.vstack([dirs, extra / norms[:, None]])
    width_tol = 1e-9 * max(1.0, diameter)
    monotone = True
    prev_widths = None
    for _, snap in trace.snapshots:
        proj = snap @ dirs.T
        widths = proj.max(axis=0) - proj.min(axis=0)
        if prev_widths is not None and np.any(widths > prev_widths + width_tol):
            monotone = False
            break
        prev_widths = widths

    status = "pass" if max_dist < threshold and monotone else "fail"
    return CheckResult(
        "single_cluster_convergence",
        status,
        float(slack),
        {
            "final_max_distance": max_dist,
            "threshold": threshold,
            "hull_widths_monotone": monotone,
            "total_updates": trace.total_updates,
            "kind": "finite-horizon surrogate",
        },
    )


def check_critical_characterization(points, h, profile: Profile) -> CheckResult:
    """Zero gradient iff every pair coincides or is at least h apart.

    Both sides are evaluated with explicit thresholds (gradient sup norm
    <= 1e-10 * max(1, its own magnitude); pair distances equal to 0 or
    >= h up to 1e-12 relative) and the check passes iff they agree.
    """
    pts = check_state(points)
    h = check_bandwidth(h)
    grad_norm = gradient_max_norm(full_gradient(pts, h, profile))
    gradient_zero = grad_norm <= 1e-10 * max(1.0, grad_norm)

    geometric = all(
        bool(np.all((d <= 1e-12 * h) | (d >= h * (1.0 - 1e-12)), where=upper))
        for d, upper in _dist_blocks(pts)
    )

    agree = gradient_zero == geometric
    return CheckResult(
        "critical_characterization",
        "pass" if agree else "fail",
        None,
        {
            "gradient_norm": grad_norm,
            "gradient_zero": bool(gradient_zero),
            "geometry_critical": geometric,
        },
    )


def _fake_trace(initial_points, objective0, objectives, shifts, grads=None) -> RunTrace:
    pts = check_state(initial_points)
    m = len(shifts)
    objective = np.asarray(objectives, dtype=np.float64)
    return RunTrace(
        algorithm="sms",
        moved_index=np.zeros(m, dtype=np.int64),
        shift=np.asarray(shifts, dtype=np.float64),
        objective=objective,
        objective_delta=np.diff(np.concatenate(([float(objective0)], objective))),
        grad_norm=None if grads is None else np.asarray(grads, dtype=np.float64),
        initial_objective=float(objective0),
        initial_points=pts,
        final_points=pts.copy(),
        total_updates=m,
    )


def negative_controls(profile: Profile | None = None, h: float = 1.0) -> list[CheckResult]:
    """Constructed violations; every returned check must FAIL.

    The suite uses these to demonstrate its own sensitivity: a
    decreasing-objective trace, a trace with inflated gradient records,
    a run frozen far from convergence, and a frozen pair at distance
    h/2 sitting in the forbidden band.
    """
    profile = profile or Profile(2)
    cfg = AlgoConfig(algorithm="sms", profile=profile, h=h)
    results = []

    pts = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.1]])
    decreasing = _fake_trace(pts, 5.0, [4.5, 4.0, 3.5], [0.1, 0.1, 0.1])
    res = check_monotone_ascent(decreasing, cfg)
    results.append(replace(res, name="negative_ascent"))

    inflated = _fake_trace(pts, 5.0, [5.0 + 1e-12] * 3, [0.1] * 3, grads=[1e6] * 3)
    res = check_partial_gradient_bound(inflated, cfg)
    results.append(replace(res, name="negative_gradient_bound"))

    data = generate(parse_preset("set1", seed=0))
    frozen_cfg = AlgoConfig(
        algorithm="sms", profile=profile, h=h, max_updates=data.n, seed=1, trace_objective=True
    )
    _, short_trace = sms_run(data.points, frozen_cfg)
    res = check_gradient_vanishes(short_trace, frozen_cfg)
    results.append(replace(res, name="negative_gradient_vanishes"))

    pair = np.array([[0.0, 0.0], [h / 2.0, 0.0]])
    band_trace = RunTrace(
        algorithm="sms",
        moved_index=np.zeros(0, dtype=np.int64),
        shift=np.zeros(0),
        initial_points=pair,
        final_points=pair.copy(),
        snapshots=[(0, pair.copy()), (1, pair.copy())],
    )
    res = check_cluster_stability(band_trace, h, h / 3.0)
    results.append(replace(res, name="negative_cluster_stability"))
    return results


def _aggregate(name: str, results: list[CheckResult], min_pass_fraction: float = 1.0) -> CheckResult:
    """Combine per-seed verdicts into one check with a pass fraction."""
    n = len(results)
    n_pass = sum(1 for r in results if r.status == "pass")
    fraction = n_pass / n if n else 1.0
    slacks = [r.worst_slack for r in results if r.worst_slack is not None]
    worst = float(min(slacks)) if slacks else None
    status = "pass" if fraction >= min_pass_fraction else "fail"
    return CheckResult(
        name,
        status,
        worst,
        {"n_trials": n, "pass_fraction": fraction, "min_pass_fraction": min_pass_fraction},
    )


def _random_ball_state(n: int, d: int, radius: float, seed: int) -> np.ndarray:
    """n points uniform in a ball of the given radius (diameter < 2 radius)."""
    rng = np.random.default_rng([seed, 3])
    raw = rng.standard_normal((n, d))
    raw /= np.sqrt(np.einsum("ij,ij->i", raw, raw))[:, None]
    return radius * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / d) * raw


def verify_preset(
    preset_text: str,
    profile: Profile,
    n_seeds: int = 20,
    h: float = 1.0,
    seed: int = 0,
    include_negative: bool = False,
) -> TheoryReport:
    """Run the whole check suite over seeded runs of one preset.

    Gradient-based checks are skipped for non-C1 profiles.  Cluster
    stability is a statistical check passed at the 95% seed fraction;
    the other per-trace checks must pass on every seed.  Raises
    ValueError when ``n_seeds`` is below 1, since a report over no runs
    would pass vacuously.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    per_seed: dict[str, list[CheckResult]] = {
        "monotone_ascent": [],
        "partial_gradient_bound": [],
        "gradient_vanishes": [],
        "cluster_stability": [],
    }
    for i in range(n_seeds):
        data = generate(parse_preset(preset_text, seed=seed + i))
        cfg = AlgoConfig(
            algorithm="sms",
            profile=profile,
            h=h,
            seed=index_seed(seed, i),
            trace_objective=True,
            trace_gradient=profile.smooth,
            snapshot_every=data.n,
        )
        _, trace = sms_run(data.points, cfg)
        per_seed["monotone_ascent"].append(check_monotone_ascent(trace, cfg))
        if profile.smooth:
            per_seed["partial_gradient_bound"].append(check_partial_gradient_bound(trace, cfg))
            per_seed["gradient_vanishes"].append(check_gradient_vanishes(trace, cfg))
        per_seed["cluster_stability"].append(check_cluster_stability(trace, h, h / 3.0))

    checks = [_aggregate("monotone_ascent", per_seed["monotone_ascent"])]
    if profile.smooth:
        checks.append(_aggregate("partial_gradient_bound", per_seed["partial_gradient_bound"]))
        checks.append(_aggregate("gradient_vanishes", per_seed["gradient_vanishes"]))
    else:
        checks.append(CheckResult("partial_gradient_bound", "skipped", None, {"reason": "profile assumption"}))
        checks.append(CheckResult("gradient_vanishes", "skipped", None, {"reason": "profile assumption"}))
    checks.append(_aggregate("cluster_stability", per_seed["cluster_stability"], 0.95))

    single = [
        check_single_cluster_convergence(
            _random_ball_state(20, 2, 0.4 * h, seed + i),
            AlgoConfig(
                algorithm="sms",
                profile=profile,
                h=h,
                seed=index_seed(seed, i),
            ),
        )
        for i in range(n_seeds)
    ]
    checks.append(_aggregate("single_cluster_convergence", single))

    if profile.smooth:
        rng = np.random.default_rng([seed, 4])
        agree = []
        for _ in range(100):
            n = int(rng.integers(2, 12))
            state = rng.uniform(-1.5, 1.5, size=(n, 2))
            agree.append(check_critical_characterization(state, h, profile))
        constructed = _constructed_states(h)
        agree.extend(check_critical_characterization(s, h, profile) for s in constructed)
        checks.append(_aggregate("critical_characterization", agree))
    else:
        checks.append(CheckResult("critical_characterization", "skipped", None, {"reason": "profile assumption"}))

    if include_negative:
        checks.extend(negative_controls(profile, h))

    meta = {
        "preset": preset_text,
        "profile": profile.name,
        "n_seeds": n_seeds,
        "h": h,
        "seed": seed,
    }
    return TheoryReport(checks, meta)


def _constructed_states(h: float) -> list[np.ndarray]:
    """Ten states exercising both sides of the critical-point dichotomy."""
    far = 2.0 * h
    return [
        np.array([[0.0, 0.0], [0.0, 0.0], [far, 0.0]]),            # coincident pair + far point
        np.array([[0.0, 0.0], [h / 2.0, 0.0]]),                    # pair inside the band
        np.array([[0.0, 0.0], [h, 0.0]]),                          # pair at exactly h
        np.array([[0.0, 0.0]]),                                    # singleton
        np.tile([[1.0, -2.0]], (4, 1)),                            # all coincident
        np.array([[0.0, 0.0], [far, 0.0], [0.0, far], [far, far]]),  # separated grid
        np.array([[0.0, 0.0], [0.9 * h, 0.0]]),                    # pair just inside support
        np.array([[0.0, 0.0], [0.0, 0.0], [0.3 * h, 0.0]]),        # coincident pair + near point
        np.vstack([np.zeros((3, 2)), np.full((2, 2), far)]),       # two coincident groups, separated
        np.array([[0.0, 0.0], [0.5 * h, 0.0], [1.5 * h, 0.0]]),    # chain with one close pair
    ]
