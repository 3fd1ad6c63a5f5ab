"""Command-line front end: synth | cluster | bench | verify | sweep.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification
failure.  Every command is deterministic given its full flag set
(including --seed): rerunning produces byte-identical output files.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import bench as bench_mod
from . import io as io_mod
from .algorithms import ALGORITHMS, AlgoConfig
from .clustering import MergePolicy, cluster_summary
from .experiments import run_pipeline
from .kernels import PROFILE_NAMES, profile_from_name
from .synthdata import parse_preset, generate
from .theory import verify_preset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

SEED = click.IntRange(min=0)
COUNT = click.IntRange(min=1)


class VerificationFailure(Exception):
    pass


def _parse_values(text: str) -> list[float]:
    """Parse a sweep range: '2..12' (inclusive integers) or '0.5,1,2'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return [float(v) for v in range(int(lo), int(hi) + 1)]
    return [float(v) for v in text.split(",") if v.strip()]


def _fmt_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


@click.group()
def cli():
    """Mean-shift clustering experiments (MS, BMS, SMS)."""


@cli.command()
@click.option("--preset", "preset_text", required=True, help="set1..set4, complexity:M, imbalance:R, dim:D, numclusters:R")
@click.option("--seed", default=0, show_default=True, type=SEED)
@click.option("--out", required=True, type=click.Path(dir_okay=False, path_type=Path))
def synth(preset_text: str, seed: int, out: Path):
    """Generate a preset dataset and write it as CSV."""
    try:
        spec = parse_preset(preset_text, seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    data = generate(spec)
    io_mod.write_dataset_csv(out, data.points, data.labels)
    click.echo(f"n={data.n} d={data.dim} labels={data.n_labels} -> {out}")


@cli.command()
@click.option("--input", "input_path", required=True, type=click.Path(path_type=Path))
@click.option("--algo", default="sms", show_default=True, type=click.Choice(ALGORITHMS))
@click.option("--profile", "profile_name", default="epanechnikov", show_default=True,
              help=f"one of {', '.join(PROFILE_NAMES)} or polyN")
@click.option("--h", "bandwidth", default=1.0, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=SEED)
@click.option("--max-updates", default=10_000_000, show_default=True, type=int)
@click.option("--tol", default=1e-6, show_default=True, type=float)
@click.option("--merge-factor", default=1.0 / 3.0, show_default=True, type=float)
@click.option("--trace-objective", is_flag=True, help="record the objective at every update")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path))
def cluster(input_path, algo, profile_name, bandwidth, seed, max_updates, tol,
            merge_factor, trace_objective, out_dir):
    """Cluster a CSV dataset; write partition, trace and metrics files."""
    try:
        cfg = AlgoConfig(
            algorithm=algo,
            profile=profile_from_name(profile_name),
            h=bandwidth,
            max_updates=max_updates,
            move_tolerance=tol,
            seed=seed,
            trace_objective=trace_objective,
        )
        policy = MergePolicy(merge_factor)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    points, labels = io_mod.read_dataset_csv(input_path)
    if max_updates < points.shape[0]:
        raise io_mod.DataError(
            f"max_updates={max_updates} is below the number of points n={points.shape[0]}"
        )

    partition, trace, report = run_pipeline(points, labels, cfg, policy)
    out_dir.mkdir(parents=True, exist_ok=True)
    io_mod.write_partition_csv(out_dir / "partition.csv", partition)
    io_mod.write_trace_jsonl(out_dir / "trace.jsonl", trace)
    io_mod.write_dataset_csv(out_dir / "final_state.csv", trace.final_points)
    io_mod.write_json(out_dir / "metrics.json", report, schema="metrics-report")
    io_mod.write_json(
        out_dir / "clusters.json",
        {"clusters": cluster_summary(trace.final_points, partition)},
        schema="cluster-summary",
    )
    click.echo(
        f"{algo}: n={partition.n} clusters={partition.n_clusters} "
        f"updates={trace.total_updates} stop={trace.stop_reason} -> {out_dir}"
    )


@cli.command()
@click.option("--sizes", default="10,100,1000", show_default=True,
              help="comma list of per-cluster sizes")
@click.option("--algos", default="sms,bms", show_default=True)
@click.option("--reps", default=3, show_default=True, type=COUNT)
@click.option("--seed", default=0, show_default=True, type=SEED)
@click.option("--profile", "profile_name", default="epanechnikov", show_default=True)
@click.option("--h", "bandwidth", default=1.0, show_default=True, type=float)
@click.option("--timeout", default=120.0, show_default=True, type=float,
              help="per-run censoring threshold in seconds")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path))
def bench(sizes, algos, reps, seed, profile_name, bandwidth, timeout, out_dir):
    """Benchmark time-to-convergence and fit log-log scaling slopes."""
    try:
        profile = profile_from_name(profile_name)
        size_list = [int(s) for s in sizes.split(",") if s.strip()]
        algo_list = [a.strip() for a in algos.split(",") if a.strip()]
        result = bench_mod.run_benchmark(
            size_list, algo_list, repetitions=reps, seed=seed,
            profile=profile, h=bandwidth, timeout=timeout,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    out_dir.mkdir(parents=True, exist_ok=True)
    io_mod.write_json(out_dir / "bench.json", result.to_json_dict(), schema="bench-result")
    lines = ["n,algorithm,median_seconds,q05_seconds,q95_seconds,censored"]
    lines += [",".join(map(str, row)) for row in result.plot_rows()]
    (out_dir / "bench_plot.csv").write_text("\n".join(lines) + "\n")
    for warning in result.warnings:
        click.echo(f"warning: {warning}", err=True)
    slopes = " ".join(f"{a}={s:.3f}" for a, s in result.slopes.items())
    click.echo(f"slopes: {slopes} -> {out_dir}")


@cli.command()
@click.option("--preset", "preset_text", default="set1", show_default=True)
@click.option("--profile", "profile_name", default="biweight", show_default=True)
@click.option("--seeds", default=20, show_default=True, type=COUNT)
@click.option("--seed", default=0, show_default=True, type=SEED, help="base seed")
@click.option("--h", "bandwidth", default=1.0, show_default=True, type=float)
@click.option("--negative-controls", is_flag=True,
              help="also run constructed violations (they must fail; exit is nonzero)")
@click.option("--out", required=True, type=click.Path(dir_okay=False, path_type=Path))
def verify(preset_text, profile_name, seeds, seed, bandwidth, negative_controls, out):
    """Run the theory-check suite over seeded runs; exit 0 iff all pass."""
    try:
        report = verify_preset(
            preset_text, profile_from_name(profile_name), n_seeds=seeds, h=bandwidth, seed=seed,
            include_negative=negative_controls,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    io_mod.write_json(out, report.to_json_dict())
    for check in report.checks:
        slack = "" if check.worst_slack is None else f" worst_slack={check.worst_slack:.3g}"
        click.echo(f"{check.name}: {check.status}{slack}")
    if not report.all_passed:
        raise VerificationFailure(f"theory checks failed; see {out}")
    click.echo(f"all checks passed -> {out}")


@cli.command()
@click.option("--kind", required=True, type=click.Choice(bench_mod.SWEEP_KINDS))
@click.option("--range", "range_text", required=True,
              help="'2..12' (inclusive integers) or a comma list like '0.5,1,2'")
@click.option("--algos", default="ms,bms,sms", show_default=True)
@click.option("--reps", default=20, show_default=True, type=COUNT)
@click.option("--seed", default=0, show_default=True, type=SEED)
@click.option("--profile", "profile_name", default="epanechnikov", show_default=True)
@click.option("--h", "bandwidth", default=1.0, show_default=True, type=float)
@click.option("--merge-factor", default=1.0 / 3.0, show_default=True, type=float)
@click.option("--workers", default=None, show_default="the CPUs this process may use", type=COUNT,
              help="most threads to run replicates on")
@click.option("--out", required=True, type=click.Path(dir_okay=False, path_type=Path))
def sweep(kind, range_text, algos, reps, seed, profile_name, bandwidth,
          merge_factor, workers, out):
    """Sweep a preset parameter; write a long-format metrics CSV."""
    try:
        profile = profile_from_name(profile_name)
        algo_list = [a.strip() for a in algos.split(",") if a.strip()]
        rows = bench_mod.run_sweep(
            kind, _parse_values(range_text), algo_list, repetitions=reps, seed=seed, profile=profile,
            h=bandwidth, merge_factor=merge_factor, workers=workers,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    lines = ["sweep_value,algorithm,metric,median,q05,q95"]
    lines += [
        ",".join(
            [
                _fmt_value(r["sweep_value"]),
                r["algorithm"],
                r["metric"],
                repr(r["median"]),
                repr(r["q05"]),
                repr(r["q95"]),
            ]
        )
        for r in rows
    ]
    Path(out).write_text("\n".join(lines) + "\n")
    click.echo(f"{len(rows)} rows -> {out}")


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.ClickException as exc:  # UsageError included
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except io_mod.DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    except VerificationFailure as exc:
        click.echo(f"verification failure: {exc}", err=True)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
