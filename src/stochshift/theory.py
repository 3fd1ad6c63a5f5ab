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

from . import _native
from .algorithms import AlgoConfig, RunTrace, sms_run
from .clustering import MergePolicy, _diameter, extract_clusters
from .core import _diff_sq_blocks, check_bandwidth, check_state, full_gradient, gradient_max_norm
from .experiments import index_seed, ordered_map
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

    def to_json_dict(self) -> dict:
        passed = {"pass": True, "fail": False}.get(self.status)
        out = {"name": self.name, "pass": passed, "status": self.status}
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


def _gradient_scale(points, cfg: AlgoConfig) -> float:
    """max(1, gradient sup norm at ``points``): the unit of the gradient checks."""
    return max(1.0, gradient_max_norm(full_gradient(points, cfg.h, cfg.profile)))


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


def check_partial_gradient_bound(trace: RunTrace, cfg: AlgoConfig, grad_scale: float | None = None) -> CheckResult:
    """Moved-coordinate gradient bound D sqrt(delta objective) + 1e-9.

    D = n sqrt(2 |k'(0)|) / h.  Also verifies the count bound: for
    eps in {0.1, 0.01} * max(1, initial gradient norm), the number of
    steps with gradient norm >= eps is at most
    (D / eps)^2 [n (n + 1) / 2 - initial objective].  ``grad_scale`` is
    that max(1, initial gradient norm) when the caller has already
    computed it for this trace; by default it is computed here.
    """
    if trace.algorithm != "sms":
        raise ValueError("gradient-bound check applies to SMS traces")
    if trace.objective_delta is None or trace.grad_norm is None:
        raise ValueError("trace was recorded without objective/gradient values")
    if grad_scale is None:
        grad_scale = _gradient_scale(trace.initial_points, cfg)
    n = trace.initial_points.shape[0]
    d_const = n * np.sqrt(2.0 * cfg.profile.weight_at_zero) / cfg.h
    deltas = np.clip(trace.objective_delta, 0.0, None)
    slack = d_const * np.sqrt(deltas) + 1e-9 - trace.grad_norm
    worst = float(slack.min()) if slack.size else float("inf")

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


def check_gradient_vanishes(trace: RunTrace, cfg: AlgoConfig, grad_scale: float | None = None) -> CheckResult:
    """Finite-horizon surrogate for gradient -> 0: final sup norm < eps.

    eps = 1e-3 * max(1, initial gradient sup norm), which makes the test
    unit-free.  ``grad_scale`` is that max(1, initial gradient sup norm)
    when the caller has already computed it for this trace; by default
    it is computed here.
    """
    if grad_scale is None:
        grad_scale = _gradient_scale(trace.initial_points, cfg)
    epsilon = 1e-3 * grad_scale
    final_norm = gradient_max_norm(full_gradient(trace.final_points, cfg.h, cfg.profile))
    slack = epsilon - final_norm
    return CheckResult(
        "gradient_vanishes",
        "pass" if final_norm < epsilon else "fail",
        float(slack),
        {
            "final_gradient_norm": final_norm,
            "epsilon": float(epsilon),
            "scale": grad_scale,
            "kind": "finite-horizon surrogate",
        },
    )


def _band_slack(points: np.ndarray, lo: float, hi: float) -> float:
    """min over pairs i < j of max(lo - d_ij, d_ij - hi); +inf when there is no pair.

    It is >= 0 iff every pair lies at most lo or at least hi apart.  The
    distances d_ij are exact (:func:`core._diff_sq_rows`), so coincident
    points measure exactly 0 wherever the state sits; the norm identity's
    rounding would put them up to ~1e-8 |x| apart and fail correct
    states.  The kernel's ``band_slack`` computes it when the kernel
    loads; the numpy body below walks row blocks otherwise.
    """
    lib = _native.load()
    if lib is not None:
        return _native.band_slack(lib, points, lo, hi)
    cols = np.arange(points.shape[0])[None, :]
    slack = float("inf")
    for lo_row, hi_row, sq in _diff_sq_blocks(points):
        d = np.sqrt(sq, out=sq)
        # max(lo - d, d - hi), the second term computed in place
        band = np.maximum(lo - d, np.subtract(d, hi, out=d), out=d)
        upper = cols > np.arange(lo_row, hi_row)[:, None]
        slack = min(slack, float(np.min(band, where=upper, initial=np.inf)))
    return slack


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

    slack = _band_slack(last, tau, h - tau)

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
    diameter = _diameter(pts)
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

    max_dist = _diameter(final)
    threshold = 10.0 * cfg.move_tolerance
    slack = threshold - max_dist

    extra = np.random.default_rng([cfg.seed, 2]).standard_normal((d, d))
    norms = np.sqrt(np.einsum("ij,ij->i", extra, extra))
    dirs = np.vstack([np.eye(d), extra / norms[:, None]])
    # hull widths per snapshot (rows) and direction (columns)
    proj = np.stack([snap @ dirs.T for _, snap in trace.snapshots])
    widths = proj.max(axis=1) - proj.min(axis=1)
    monotone = not np.any(widths[1:] > widths[:-1] + 1e-9 * max(1.0, diameter))

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

    # lo - d >= 0 iff d <= lo in floating point, so this is d <= lo or d >= hi for every pair
    geometric = _band_slack(pts, 1e-12 * h, h * (1.0 - 1e-12)) >= 0.0

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
    """A frozen SMS trace: the given records, the initial state in both snapshots."""
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
        snapshots=[(0, pts.copy()), (m, pts.copy())],
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

    band_trace = _fake_trace(np.array([[0.0, 0.0], [h / 2.0, 0.0]]), 0.0, [], [])
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


def _critical_trials(h: float, profile: Profile, seed: int):
    """Arguments of the critical-point check: 100 random small states, then the constructed ones."""
    rng = np.random.default_rng([seed, 4])
    for _ in range(100):
        n = int(rng.integers(2, 12))
        yield rng.uniform(-1.5, 1.5, size=(n, 2)), h, profile
    for state in _constructed_states(h):
        yield state, h, profile


# the checks of a report, in its order
_REPORT_ORDER = ("monotone_ascent", "partial_gradient_bound", "gradient_vanishes", "cluster_stability",
                 "single_cluster_convergence", "critical_characterization")


def verify_preset(
    preset_text: str,
    profile: Profile,
    n_seeds: int = 20,
    h: float = 1.0,
    seed: int = 0,
    include_negative: bool = False,
) -> TheoryReport:
    """Run the whole check suite over seeded runs of one preset.

    The report lists the checks in a fixed order.  Checks that need a C1
    profile are reported as skipped for other profiles.  Cluster
    stability is a statistical check passed at the 95% seed fraction;
    the other checks must pass on every trial.  Raises ValueError before
    the first run when ``preset_text`` does not parse, when ``h`` is not
    a valid bandwidth, or when ``n_seeds`` is below 1, since a report
    over no runs would pass vacuously.

    Each seed's traced run is one task of ``experiments.ordered_map``:
    generate, run, gradient scale and the four checks on its trace.  A
    task returns only its verdicts, so at most as many traces are alive
    as threads run, one per usable CPU.
    The single-cluster and critical-point trials, each under a
    millisecond of mostly Python that holds the GIL, run in order on the
    calling thread, where they are faster than fanned out.  The report
    is identical for any thread count.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    parse_preset(preset_text, seed=seed)
    check_bandwidth(h)

    def traced_checks(i):
        data = generate(parse_preset(preset_text, seed=seed + i))
        cfg = AlgoConfig(algorithm="sms", profile=profile, h=h, seed=index_seed(seed, i),
                         trace_objective=True, trace_gradient=profile.smooth, snapshot_every=data.n)
        trace = sms_run(data.points, cfg)[1]
        verdicts = {"monotone_ascent": check_monotone_ascent(trace, cfg)}
        if profile.smooth:
            # the unit of both gradient checks, from one full gradient of the initial state
            scale = _gradient_scale(trace.initial_points, cfg)
            verdicts["partial_gradient_bound"] = check_partial_gradient_bound(trace, cfg, scale)
            verdicts["gradient_vanishes"] = check_gradient_vanishes(trace, cfg, scale)
        verdicts["cluster_stability"] = check_cluster_stability(trace, h, h / 3.0)
        return verdicts

    per_seed = ordered_map(traced_checks, range(n_seeds))
    verdicts = {name: [seed_verdicts[name] for seed_verdicts in per_seed] for name in per_seed[0]}
    verdicts["single_cluster_convergence"] = [
        check_single_cluster_convergence(_random_ball_state(20, 2, 0.4 * h, seed + i),
                                         AlgoConfig(algorithm="sms", profile=profile, h=h, seed=index_seed(seed, i)))
        for i in range(n_seeds)
    ]
    if profile.smooth:
        verdicts["critical_characterization"] = [check_critical_characterization(*trial)
                                                 for trial in _critical_trials(h, profile, seed)]
    checks = [_aggregate(name, verdicts[name], 0.95 if name == "cluster_stability" else 1.0) if name in verdicts
              else CheckResult(name, "skipped", None, {"reason": "profile assumption"})
              for name in _REPORT_ORDER]

    if include_negative:
        checks.extend(negative_controls(profile, h))

    meta = {"preset": preset_text, "profile": profile.name, "n_seeds": n_seeds, "h": h, "seed": seed}
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
