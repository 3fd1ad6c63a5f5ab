"""The four workloads: inputs from the seed, the timed operations, the checks.

Each workload generates its inputs in `setup()` (and pays one warm-up
operation on a small input), lists the operations of one round in
`ops()`, reduces an operation's output to a fingerprint so repeated
rounds can be compared, and checks the outputs of the last round in
`check()` against `oracle` or a property the method must have.  Every
check function returns a list of failure messages, and `self_test()`
feeds each one a corrupted output it must reject.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from stochshift import affinity, algorithms, cli, clustering, experiments, kernels, synthdata, theory

import oracle

H = 1.0
TOL = 1e-6
SCORE_KEYS = ("acp", "alp", "k", "pur_cd", "pur_dc", "g")


class OpFailed(Exception):
    """An operation returned an error instead of an output."""


def _cli(argv: list) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"stochshift {argv[0]} exited with {code}")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _close(a: float, b: float, atol: float, rtol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def check_partition(assignment: np.ndarray, final: np.ndarray, what: str) -> list[str]:
    expected = oracle.single_linkage(final, H / 3.0)
    if assignment.shape != expected.shape or not np.array_equal(assignment, expected):
        bad = int(np.sum(assignment != expected)) if assignment.shape == expected.shape else -1
        return [f"{what}: partition differs from single linkage at h/3 ({bad} points)"]
    return []


def check_fixed_point(final: np.ndarray, sample: np.ndarray, what: str) -> list[str]:
    worst = float(oracle.displacements(final, sample, H, 1).max())
    return [] if worst < TOL else [f"{what}: largest mean-shift displacement {worst:.3g} >= tol {TOL}"]


def check_scores(report: dict, assignment: np.ndarray, labels: np.ndarray, what: str) -> list[str]:
    expected = oracle.scores(assignment, labels)
    out = [
        f"{what}: {key} = {report.get(key)!r}, oracle {expected[key]!r}"
        for key in SCORE_KEYS
        if not _close(float(report.get(key, math.nan)), expected[key], 1e-12)
    ]
    out += [
        f"{what}: {key} = {report.get(key)!r}, oracle {expected[key]!r}"
        for key in ("num_clusters", "n")
        if report.get(key) != expected[key]
    ]
    return out


class ClusterSet3:
    """`stochshift cluster --algo sms` on the set3 CSV of data seed 0, with two index seeds.

    The sample is fixed because the partition it collapses to sets the
    memory: data seed 0 ends in clusters of ~2950 and ~1540 points
    (~250 MB peak, most of it `cluster_summary`), data seed 1 in one
    cluster of ~4490 points (~510 MB).  The workload seed picks the
    index streams, which alone move the update count by about 7%.
    """

    name = "cluster-set3"
    DATA_SEED = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.csv = workdir / "set3.csv"
        self.algo_seeds = (2 * seed, 2 * seed + 1)

    def _cluster_argv(self, csv: Path, algo_seed: int, out: Path) -> list:
        return ["cluster", "--input", csv, "--algo", "sms", "--profile", "epanechnikov",
                "--h", H, "--tol", TOL, "--seed", algo_seed, "--out", out]

    def setup(self) -> None:
        _cli(["synth", "--preset", "set3", "--seed", self.DATA_SEED, "--out", self.csv])
        warm = self.dir / "warm-set2.csv"
        _cli(["synth", "--preset", "set2", "--seed", self.DATA_SEED, "--out", warm])
        _cli(self._cluster_argv(warm, self.seed, self.dir / "warm"))

    def _cluster(self, algo_seed: int, out: Path) -> Path:
        _cli(self._cluster_argv(self.csv, algo_seed, out))
        return out

    def ops(self):
        for j, s in enumerate(self.algo_seeds):
            yield f"seed{s}", lambda s=s, out=self.dir / f"run{j}": self._cluster(s, out)

    FILES = ("partition.csv", "final_state.csv", "metrics.json", "clusters.json", "trace.jsonl")

    def fingerprint(self, out: Path) -> str:
        return _digest(*((out / f).read_bytes() for f in self.FILES))

    @staticmethod
    def load(out: Path) -> dict:
        _, part = _read_csv(out / "partition.csv")
        _, final = _read_csv(out / "final_state.csv")
        ks = [json.loads(line)["k"] for line in (out / "trace.jsonl").read_text().splitlines()]
        return {
            "index": part[:, 0].astype(np.int64),
            "assignment": part[:, 1].astype(np.int64),
            "final": final,
            "metrics": json.loads((out / "metrics.json").read_text()),
            "clusters": json.loads((out / "clusters.json").read_text())["clusters"],
            "trace_k": np.asarray(ks, dtype=np.int64),
        }

    @staticmethod
    def check_partition_file(o: dict) -> list[str]:
        if not np.array_equal(o["index"], np.arange(o["final"].shape[0])):
            return ["partition.csv: index column is not 0..n-1"]
        return check_partition(o["assignment"], o["final"], "partition.csv")

    @staticmethod
    def check_metrics(o: dict, labels: np.ndarray) -> list[str]:
        m = o["metrics"]
        out = check_scores(m, o["assignment"], labels, "metrics.json")
        if m.get("stop_reason") != "converged":
            out.append(f"metrics.json: stop_reason {m.get('stop_reason')!r}")
        return out

    @staticmethod
    def check_summary(o: dict) -> list[str]:
        expected = oracle.cluster_stats(o["final"], o["assignment"])
        got = o["clusters"]
        if [c["size"] for c in got] != [c["size"] for c in expected]:
            return ["clusters.json: cluster sizes differ from the partition"]
        out = []
        for g, e in zip(got, expected):
            if not np.allclose(g["centroid"], e["centroid"], rtol=0.0, atol=1e-12):
                out.append(f"clusters.json: cluster {e['cluster_id']} centroid {g['centroid']}")
            if not _close(g["diameter"], e["diameter"], 1e-12, 1e-9):
                out.append(f"clusters.json: cluster {e['cluster_id']} diameter {g['diameter']!r}, "
                           f"oracle {e['diameter']!r}")
        return out

    @staticmethod
    def check_trace(o: dict) -> list[str]:
        n_updates = o["metrics"].get("total_updates")
        ks = o["trace_k"]
        if ks.size != n_updates or not np.array_equal(ks, np.arange(1, ks.size + 1)):
            return [f"trace.jsonl: {ks.size} records, k not 1..{n_updates}"]
        return []

    def _checks(self, o: dict, labels: np.ndarray) -> list[str]:
        return (self.check_partition_file(o) + check_fixed_point(o["final"], o["final"], "final_state.csv")
                + self.check_metrics(o, labels) + self.check_summary(o) + self.check_trace(o))

    def check(self, outputs: dict) -> list[str]:
        header, data = _read_csv(self.csv)
        self._labels = data[:, header.index("label")].astype(np.int64)
        self._first = None
        failures = []
        for label, out in outputs.items():
            o = self.load(out)
            if self._first is None:
                self._first = o
            failures += [f"{label}: {msg}" for msg in self._checks(o, self._labels)]
        return failures

    def self_test(self) -> list[tuple[str, list[str]]]:
        o, labels = self._first, self._labels
        moved = dict(o, assignment=o["assignment"].copy())
        moved["assignment"][0] = moved["assignment"][0] % int(moved["assignment"].max()) + 1
        shifted = dict(o, final=o["final"].copy())
        shifted["final"][0, 0] += H / 10.0
        off = dict(o, metrics=dict(o["metrics"], acp=o["metrics"]["acp"] + 1e-6))
        dropped = dict(o, trace_k=np.delete(o["trace_k"], o["trace_k"].size // 2))
        return [
            ("partition with one point moved", self.check_partition_file(moved)),
            ("final state with one point displaced by h/10",
             check_fixed_point(shifted["final"], shifted["final"], "final_state.csv")),
            ("metrics.json with ACP off by 1e-6", self.check_metrics(off, labels)),
            ("trace with a line dropped", self.check_trace(dropped)),
        ]


class EnsembleImbalance:
    """Replicates 0 and 1 of `sweep --kind imbalance --range 0.5,1,2 --seed 0`.

    Each operation is one replicate pipeline (generate, run, extract,
    score) with the data and index seeds `replicate_preset(..., seed=0)`
    gives it, so the inputs are the same for every workload seed.  The
    cost of one replicate is heavy tailed in both seeds:
    - At R=2, data seed 1 needs 136 BMS sweeps and 93k SMS updates, while
      data seeds 0, 2, 3 and 4 need 8 to 16 sweeps and 30k to 46k updates.
    - On that one sample, SMS index seeds alone give 43k to 176k updates
      (10 streams).
    A round over seed-dependent samples moved by 1.7x between workload
    seeds, and one over seed-dependent index streams moved by 0.26 of
    its median.
    """

    name = "ensemble-imbalance"
    RATIOS = ("0.5", "1", "2")
    ALGOS = ("ms", "bms", "sms")
    REPS = 2

    def __init__(self, seed: int, workdir: Path):
        pass

    @staticmethod
    def _pipeline(preset: str, algo: str, rep: int):
        data = synthdata.generate(synthdata.parse_preset(preset, seed=rep))
        cfg = algorithms.AlgoConfig(algorithm=algo, profile=kernels.EPANECHNIKOV, h=H, move_tolerance=TOL,
                                    seed=experiments.RUN_SEED_OFFSET + rep)
        partition, trace, report = experiments.run_pipeline(
            data.points, data.labels, cfg, clustering.MergePolicy(1.0 / 3.0))
        return {"data": data, "cfg": cfg, "assignment": partition.assignment,
                "final": trace.final_points, "report": report}

    def setup(self) -> None:
        for algo in self.ALGOS:
            self._pipeline("set2", algo, 0)

    def ops(self):
        for ratio in self.RATIOS:
            for algo in self.ALGOS:
                for rep in range(self.REPS):
                    yield (f"imbalance:{ratio}/{algo}/rep{rep}",
                           lambda r=ratio, a=algo, rep=rep: self._pipeline(f"imbalance:{r}", a, rep))

    def fingerprint(self, out: dict) -> str:
        return _digest(out["final"], out["assignment"], json.dumps(out["report"], sort_keys=True).encode())

    @staticmethod
    def check_fixed(out: dict, label: str) -> list[str]:
        algo = out["cfg"].algorithm
        sample = out["data"].points if algo == "ms" else out["final"]
        return check_fixed_point(out["final"], sample, label)

    def check(self, outputs: dict) -> list[str]:
        failures = []
        for label, out in outputs.items():
            if out["report"].get("stop_reason") != "converged":
                failures.append(f"{label}: stop_reason {out['report'].get('stop_reason')!r}")
            failures += self.check_fixed(out, label)
            failures += check_partition(out["assignment"], out["final"], label)
            failures += check_scores(out["report"], out["assignment"], out["data"].labels, label)
        failures += self._check_reference(outputs)
        failures += self._check_replicate_preset(outputs)
        self._outputs = outputs
        return failures

    @staticmethod
    def _check_reference(outputs: dict) -> list[str]:
        """At least one SMS replicate must match the reference loop step for step."""
        sms = sorted((o["data"].n, label) for label, o in outputs.items() if o["cfg"].algorithm == "sms")
        tried = []
        for _, label in sms:
            o = outputs[label]
            ref, updates, reason = oracle.reference_sms(o["data"].points, H, 1, o["cfg"].seed, TOL)
            gap = float(np.abs(ref - o["final"]).max())
            same_part = np.array_equal(oracle.single_linkage(ref, H / 3.0), o["assignment"])
            if updates == o["report"]["total_updates"] and gap <= 1e-9 and same_part:
                return []
            tried.append(f"{label}: reference {updates} updates ({reason}), program "
                         f"{o['report']['total_updates']}, max gap {gap:.3g}, same partition {same_part}")
        return ["no SMS replicate matches the reference loop: " + "; ".join(tried)]

    def _check_replicate_preset(self, outputs: dict) -> list[str]:
        """The timed pipelines are the ones replicate_preset runs (checked on the cheapest cell)."""
        reports = experiments.replicate_preset("imbalance:0.5", "ms", repetitions=self.REPS, seed=0,
                                               profile=kernels.EPANECHNIKOV, h=H, move_tolerance=TOL)
        out = []
        for rep, r in enumerate(reports):
            mine = dict(outputs[f"imbalance:0.5/ms/rep{rep}"]["report"], rep=rep)
            if r != mine:
                out.append(f"replicate_preset imbalance:0.5/ms rep {rep} reports {r}, benchmark {mine}")
        return out

    def self_test(self) -> list[tuple[str, list[str]]]:
        label = next(lbl for lbl in self._outputs if lbl.endswith("/sms/rep0"))
        shifted = dict(self._outputs[label], final=self._outputs[label]["final"].copy())
        shifted["final"][0, 0] += H / 10.0
        return [("final state with one point displaced by h/10", self.check_fixed(shifted, label))]


class VerifySet1:
    """`stochshift verify --preset set1 --profile biweight --seeds 4`."""

    name = "verify-set1"
    SEEDS = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.report = workdir / "verify.json"

    def setup(self) -> None:
        _cli(["verify", "--preset", "set2", "--profile", "biweight", "--seeds", 1,
              "--seed", self.seed, "--out", self.dir / "warm-verify.json"])

    def _verify(self) -> Path:
        _cli(["verify", "--preset", "set1", "--profile", "biweight", "--seeds", self.SEEDS,
              "--seed", self.seed, "--h", H, "--out", self.report])
        return self.report

    def ops(self):
        yield "verify", self._verify

    def fingerprint(self, out: Path) -> str:
        return _digest(out.read_bytes())

    @staticmethod
    def check_report(report: dict) -> list[str]:
        out = [f"verify: check {c['name']} is {c['status']}" for c in report["checks"]
               if c["status"] not in ("pass", "skipped")]
        names = {c["name"] for c in report["checks"] if c["status"] == "pass"}
        expected = {"monotone_ascent", "partial_gradient_bound", "gradient_vanishes",
                    "cluster_stability", "single_cluster_convergence", "critical_characterization"}
        if not expected <= names:
            out.append(f"verify: checks not passed: {sorted(expected - names)}")
        if report.get("all_passed") is not True:
            out.append("verify: all_passed is not true")
        return out

    @staticmethod
    def check_negative_controls() -> list[str]:
        results = theory.negative_controls(kernels.BIWEIGHT, H)
        return [f"negative control {r.name} did not fail" for r in results if r.status != "fail"]

    def check_ascent(self) -> list[str]:
        """Direct double-sum objective rises by at least (2 G(0)/h^2) * sum of squared shifts."""
        data = synthdata.generate(synthdata.parse_preset("set1", seed=self.seed))
        cfg = algorithms.AlgoConfig(algorithm="sms", profile=kernels.BIWEIGHT, h=H, move_tolerance=TOL,
                                    seed=self.seed + experiments.RUN_SEED_OFFSET, trace_objective=True,
                                    trace_gradient=True, snapshot_every=data.n)
        final, trace = algorithms.sms_run(data.points, cfg)
        (_, first), (_, last) = trace.snapshots[0], trace.snapshots[-1]
        if not (np.array_equal(first, data.points) and np.array_equal(last, final)):
            return ["ascent: snapshots do not start at the input and end at the final state"]
        rise = oracle.objective(last, H, 2) - oracle.objective(first, H, 2)
        needed = 2.0 * kernels.BIWEIGHT.weight_at_zero / H**2 * float(np.sum(trace.shift**2))
        slack = 1e-9 * max(1.0, abs(rise))
        if rise < needed - slack:
            return [f"ascent: objective rose {rise!r}, bound needs {needed!r}"]
        return []

    def check(self, outputs: dict) -> list[str]:
        self._report = json.loads(outputs["verify"].read_text())
        return self.check_report(self._report) + self.check_negative_controls() + self.check_ascent()

    def self_test(self) -> list[tuple[str, list[str]]]:
        bad = json.loads(json.dumps(self._report))
        bad["checks"][0]["status"] = "fail"
        return [("verify report with one check failed", self.check_report(bad))]


class EmbedKnn:
    """Spherical normalisation, cosine scores, top-k neighbours and score-matrix SMS.

    The embeddings are `dim:16` drawn with data seed 0 for every workload
    seed; the workload seed is the SMS index seed.  The update count of
    this loop swings 420k..700k over data seeds 0..5 but only 426k..438k
    over index seeds 1..4 on one sample, and one run cannot average
    enough samples to make the former steady.
    """

    name = "embed-knn"
    K = 10
    TARGET_DIM = 8
    DATA_SEED = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def _pipeline(self, points: np.ndarray):
        z = affinity.spherical_normalize(points, affinity.PreprocessConfig(target_dim=self.TARGET_DIM))
        scores = z @ z.T
        neighbors = affinity.top_score_neighbors(scores, self.K)
        final, trace = affinity.knn_sms_run(z, scores, self.K,
                                            algorithms.AlgoConfig(move_tolerance=TOL, seed=self.seed))
        return {"z": z, "scores": scores, "neighbors": neighbors, "final": final,
                "stop_reason": trace.stop_reason}

    def setup(self) -> None:
        self.points = synthdata.generate(synthdata.parse_preset("dim:16", seed=self.DATA_SEED)).points
        self._pipeline(self.points[::8])

    def ops(self):
        yield "pipeline", lambda: self._pipeline(self.points)

    def fingerprint(self, out: dict) -> str:
        return _digest(out["z"], out["neighbors"], out["final"])

    def check_neighbors(self, out: dict) -> list[str]:
        expected = oracle.top_k(out["scores"], self.K)
        if not np.array_equal(out["neighbors"], expected):
            rows = int(np.any(out["neighbors"] != expected, axis=1).sum())
            return [f"top_score_neighbors differs from the oracle on {rows} rows"]
        return []

    def check(self, outputs: dict) -> list[str]:
        out = self._out = outputs["pipeline"]
        z, n = out["z"], out["z"].shape[0]
        failures = []
        if z.shape != (self.points.shape[0], self.TARGET_DIM):
            failures.append(f"spherical_normalize returned shape {z.shape}")
        if not np.allclose(np.sqrt(np.einsum("ij,ij->i", z, z)), 1.0, rtol=0.0, atol=1e-12):
            failures.append("spherical_normalize rows are not unit length")
        failures += self.check_neighbors(out)
        if out["stop_reason"] != "converged":
            failures.append(f"knn_sms_run stop_reason {out['stop_reason']!r}")
        nb = oracle.top_k(out["scores"], self.K)
        final = out["final"]
        gaps = np.sqrt(((final[nb].mean(axis=1) - final) ** 2).sum(axis=1))
        settled, need = int(np.sum(gaps < TOL)), math.ceil(0.99 * n)
        if settled < need:
            failures.append(f"only {settled} of {n} final points are within tol of their neighbours' mean")
        return failures

    def self_test(self) -> list[tuple[str, list[str]]]:
        swapped = dict(self._out, neighbors=self._out["neighbors"].copy())
        row = swapped["neighbors"][0]
        row[-1] = next(j for j in range(1, row.size + 2) if j not in row)
        return [("neighbour set with one index swapped", self.check_neighbors(swapped))]


WORKLOADS = {w.name: w for w in (ClusterSet3, EnsembleImbalance, VerifySet1, EmbedKnn)}
