#!/usr/bin/env python3
"""Benchmark for the zdgraph CLI.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: one CLI invocation at a time,
each in a fresh single-threaded child process that runs `zdgraph.cli` as
`python -m zdgraph.cli` does, with this checkout's `src/` on PYTHONPATH.
Inputs are generated from the seed; the CLI sees only the generated inputs.
Every run's output is checked by code in this file that shares nothing with
the engine.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run (see child.py).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller record
with the seed, every sample and the machine goes to perfbench/results/.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

perf = time.perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH / ".work"
RESULTS = BENCH / "results"
CHILD = BENCH / "child.py"

CHILD_TIMEOUT_S = 150
MIN_RUNS = 3  # timed CLI runs per measured run, whatever --seconds says
SETUP_MIN = 3  # timed set-up children per measured run, at least
SETUP_PER_RUN = 3  # set-up children after one CLI run, at most
SETUP_SHARE = 0.25  # of the CLI runs' time spent on set-up children, at most
# On a shared 2-vCPU Xeon virtual machine the same code ran up to 1.5x slower
# for tens of seconds at a time, which no affordable run length averages out.
# So every end-to-end time is scaled to the machine speed at which
# reference_seconds() takes REF_S, measured around each CLI run.  Raw times
# go to the results file.
REF_S = 0.3

SUITES = (
    "adjacency", "distance", "eccentricity", "radius", "triangle",
    "orthogonal", "girth", "domination", "spectrum", "retract",
)


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Proc:
    code: int
    wall_s: float
    lines: list[tuple[float, str]]  # (arrival time, line) of standard output
    stderr: str
    rss_mb: float = 0.0

    @property
    def stdout(self) -> str:
        return "".join(line for _, line in self.lines)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZDGRAPH_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


_current: list[subprocess.Popen] = []


def spawn(args: list[str], cwd: Path) -> Proc:
    """Run one child to completion; wall time spans spawn to reap."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        t0 = perf()
        p = subprocess.Popen(
            [sys.executable, "-u", *args], cwd=cwd, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
        )
        _current.append(p)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            lines = [(perf(), raw.decode("utf-8", "replace")) for raw in p.stdout]
            p.wait()
            t1 = perf()
        finally:
            watchdog.cancel()
            p.stdout.close()
            _current.remove(p)
        err.seek(0)
        return Proc(p.returncode, t1 - t0, lines, err.read().decode("utf-8", "replace"))


def stop_children(*_):
    for p in _current:
        if p.poll() is None:
            p.kill()
            p.wait()
    raise SystemExit(1)


def cli(args: list[str], cwd: Path) -> Proc:
    """One CLI run; its peak RSS comes from the child itself (see child.py)."""
    rss_file = cwd / ".peak_rss.json"
    proc = spawn([str(CHILD), "cli", str(rss_file), *args], cwd)
    proc.rss_mb = read_json(rss_file)["peak_rss_kb"] / 1024 if rss_file.exists() else 0.0
    return proc


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# independent arithmetic for the checks


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def squarefree_below(limit: int) -> list[int]:
    return [n for n in range(2, limit) if len(set(prime_factors(n))) == len(prime_factors(n))]


def check_report(data: bytes, factors: list[int], seed: int) -> int:
    """Check one verification report; return its record count."""
    doc = json.loads(data)
    require(doc["ring"]["factors"] == factors, f"report ring {doc['ring']} is not F{factors}")
    require(doc["seed"] == seed, f"report seed {doc['seed']} is not {seed}")
    require(doc["suites"] == list(SUITES), f"report suites {doc['suites']}")
    records = doc["records"]
    require(len(records) > 0, "report has no records")
    verdicts = [r["verdict"] for r in records]
    require(set(verdicts) <= {"Confirmed", "Violated", "NotApplicable"}, "unknown verdict in report")
    unregistered = [r["check_id"] for r in records if r["verdict"] == "Violated" and not r["registered"]]
    require(not unregistered, f"unregistered violations: {sorted(set(unregistered))}")
    summary = doc["summary"]
    require(summary["total"] == len(records), "summary total disagrees with the records")
    require(summary["confirmed"] == verdicts.count("Confirmed"), "summary confirmed count is wrong")
    require(summary["violated"] == 0, "summary reports unregistered violations")
    return len(records)


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(hashlib.sha256(c).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Outcome:
    checks: int  # verification records, or closed-form facts for inspect
    rings: int
    digest: str  # of every output byte that must repeat exactly
    reports: dict = field(default_factory=dict)  # ring key -> report bytes
    ring_latencies_ms: list[float] = field(default_factory=list)


class Workload:
    """One CLI command line and the checks on its output."""

    name = ""
    why = ""
    ring_spec = ""
    verifies = True
    seeds_per_run = 1  # CLI seeds a measured run cycles through

    def prepare(self, work: Path, seed: int, bench: "Bench") -> None:
        pass

    def args(self, out: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def check(self, proc: Proc, out: Path, seed: int) -> Outcome:
        raise NotImplementedError


class SingleReport(Workload):
    """A `verify` run on one ring that writes report.json."""

    factors: list[int] = []

    def check(self, proc, out, seed):
        require(proc.code == 0, f"exit code {proc.code}: {proc.stderr.strip()[-300:]}")
        data = (out / "report.json").read_bytes()
        n = check_report(data, self.factors, seed)
        require("violated (UNREGISTERED) 0" in proc.stdout, "summary lines report unregistered violations")
        return Outcome(n, 1, digest(data, proc.stdout.encode()), {"report": data}, [proc.wall_s * 1000])


class VerifyK7(SingleReport):
    name = "verify-k7"
    why = "one 7-factor ring, all ten suites: girth flow, adjacency oracle ring arithmetic and pair sampling"
    ring_spec = "zn:510510"
    factors = [2, 3, 5, 7, 11, 13, 17]
    seeds_per_run = 3  # the sampled pairs, and with them the work, vary by about 10% between seeds

    def args(self, out, seed):
        return ["verify", "--zn", "510510", "--seed", str(seed), "--report", str(out / "report.json")]


class InspectK10(Workload):
    name = "inspect-k10"
    why = "class BFS for radius on two 1022-class graphs; no sampling, girth or serialization"
    ring_spec = "fields:2,3,5,7,11,13,17,19,23,29"
    verifies = False
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def args(self, out, seed):
        return ["inspect", "--fields", ",".join(map(str, self.primes)), "--json"]

    def check(self, proc, out, seed):
        require(proc.code == 0, f"exit code {proc.code}: {proc.stderr.strip()[-300:]}")
        doc = json.loads(proc.stdout)
        qs, k = self.primes, len(self.primes)
        prod = math.prod
        expected = {
            ("gamma", "vertices"): prod(qs) - prod(q - 1 for q in qs) - 1,
            ("gamma", "edges"): (prod(2 * q - 1 for q in qs) - 2 * prod(qs) + 1) // 2,
            ("gamma", "classes"): 2**k - 2,
            ("gamma", "radius"): 2,
            ("ag", "vertices"): 2**k - 2,
            ("ag", "edges"): (3**k - 2 ** (k + 1) + 1) // 2,
            ("ag", "classes"): 2**k - 2,
            ("ag", "radius"): 2,
        }
        for (graph, key), value in expected.items():
            require(doc[graph][key] == value, f"inspect {graph}.{key} = {doc[graph][key]}, expected {value}")
        require(doc["ring"]["factors"] == qs and doc["size"] == prod(qs), "inspect describes another ring")
        require(len(doc["min_primes"]) == k, "inspect lists the wrong number of minimal primes")
        return Outcome(len(expected), 1, digest(proc.stdout.encode()), {}, [proc.wall_s * 1000])


class Batch300(Workload):
    name = "batch-300"
    why = "182 small rings: per-ring construction, registry matching, serialization and atomic writes"
    ring_spec = "batch:300"
    limit = 300

    def prepare(self, work, seed, bench):
        self.moduli = squarefree_below(self.limit)

    def args(self, out, seed):
        return ["batch", "--squarefree-below", str(self.limit), "--seed", str(seed),
                "--out-dir", str(out / "reports")]

    def check(self, proc, out, seed):
        require(proc.code == 0, f"exit code {proc.code}: {proc.stderr.strip()[-300:]}")
        ring_lines = [(t, line) for t, line in proc.lines if line.startswith("zn=")]
        require(len(ring_lines) == len(self.moduli), f"{len(ring_lines)} ring lines for {len(self.moduli)} moduli")
        require(proc.lines[-1][1].startswith("totals:") and "unregistered=0 " in proc.lines[-1][1],
                "batch totals line missing or reports unregistered violations")
        reports, checks = {}, 0
        for n, (_, line) in zip(self.moduli, ring_lines):
            require(line.startswith(f"zn={n:<4d} "), f"expected ring {n}, got {line.strip()}")
            data = (out / "reports" / f"zn{n:04d}.json").read_bytes()
            checks += check_report(data, prime_factors(n), seed)
            reports[n] = data
        require(len(list((out / "reports").iterdir())) == len(self.moduli), "unexpected files in the out dir")
        # the first line also carries interpreter start, so latency counts from the second
        gaps = [(b[0] - a[0]) * 1000 for a, b in zip(ring_lines, ring_lines[1:])]
        return Outcome(checks, len(self.moduli), digest(*reports.values(), proc.stdout.encode()), reports, gaps)


class Table770(SingleReport):
    name = "table-770"
    why = "5.6 MB of relabelled Z/770 tables: table load and decomposition, which no other workload touches"
    n = 770
    factors = [2, 5, 7, 11]

    def prepare(self, work, seed, bench):
        self.table = work / f"t{self.n}.json"
        write_relabelled_zn_table(self.table, self.n, seed)
        self.ring_spec = f"table:{self.table}"
        ref = cli(["verify", "--zn", str(self.n), "--seed", str(seed), "--report", str(work / "report.json")], work)
        self.reference = bench.attempt(lambda: SingleReport.check(self, ref, work, seed).reports["report"],
                                       "reference verify --zn 770")

    def args(self, out, seed):
        return ["verify", "--table", str(self.table), "--seed", str(seed), "--report", str(out / "report.json")]

    def check(self, proc, out, seed):
        outcome = super().check(proc, out, seed)
        require(outcome.reports["report"] == self.reference, "table report differs from the verify --zn 770 report")
        return outcome


def write_relabelled_zn_table(path: Path, n: int, seed: int) -> None:
    """Tables of Z/n with residue x relabelled perm[x], perm drawn from the seed."""
    perm = list(range(n))
    random.Random(f"table:{n}:{seed}").shuffle(perm)
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for i in range(n):
        row_a, row_m = add[perm[i]], mul[perm[i]]
        for j in range(n):
            row_a[perm[j]] = perm[(i + j) % n]
            row_m[perm[j]] = perm[(i * j) % n]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"size": n, "one": perm[1 % n], "add": add, "mul": mul}, fh)


WORKLOADS = {w.name: w for w in (Table770, VerifyK7, InspectK10, Batch300)}


# ---------------------------------------------------------------------------
# measuring


def reference_seconds() -> float:
    """Time a fixed pure-Python workload in this process.

    It is breadth-first search from every eighth node of the disjointness
    graph on the 1022 nonempty proper subsets of 10 bits: the shape of
    zdgraph's hot loops, in code that shares nothing with it.  The garbage
    collector is off meanwhile, so the harness's own heap does not show.
    """
    gc.disable()
    try:
        t0 = perf()
        masks = range(1, (1 << 10) - 1)
        adj = [[j for j, b in enumerate(masks) if a & b == 0] for a in masks]
        for src in range(0, len(adj), 8):
            seen = {src}
            frontier = [src]
            while frontier:
                nxt = []
                for i in frontier:
                    for j in adj[i]:
                        if j not in seen:
                            seen.add(j)
                            nxt.append(j)
                frontier = nxt
        return perf() - t0
    finally:
        gc.enable()


def percentile(xs, pct: int) -> float:
    if len(xs) == 1:
        return xs[0]
    return quantiles(xs, n=100, method="inclusive")[pct - 1]


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


class Bench:
    """One measured run of one workload.

    Every child process started is one attempted operation; it fails when it
    exits nonzero or any check on its output fails.
    """

    def __init__(self, workload: Workload, seed: int, seconds: int, work: Path):
        self.w, self.seed, self.seconds, self.work = workload, seed, seconds, work
        n = workload.seeds_per_run
        self.cli_seeds = [seed * n + j for j in range(n)]
        self.firsts: dict[int, Outcome] = {}  # first correct outcome per CLI seed
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.t_start = perf()

    def attempt(self, fn, what: str):
        """Check one child's output; a failure is counted, never raised."""
        self.attempted += 1
        try:
            return fn()
        except (CheckFailed, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def elapsed(self) -> float:
        return perf() - self.t_start

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work))

    def child(self, mode: str, *args: str, cwd: Path | None = None, check=None) -> tuple[Proc, dict | None]:
        """Run child.py in MODE; return its process and JSON document."""
        out = self.work / f"{mode}.json"
        proc = spawn([str(CHILD), mode, str(out), *args], cwd or self.work)

        def load():
            require(proc.code == 0, f"exit code {proc.code}: {proc.stderr.strip()[-300:]}")
            doc = read_json(out)
            if check is not None:
                check(proc, doc)
            return doc

        return proc, self.attempt(load, f"{self.w.name} child {mode}")

    def checked(self, proc: Proc, out: Path, seed: int) -> Outcome:
        outcome = self.w.check(proc, out, seed)
        first = self.firsts.setdefault(seed, outcome)
        require(outcome.digest == first.digest, f"output for seed {seed} differs from its first run's")
        return outcome

    def cli_run(self, seed: int) -> tuple[Proc, Outcome | None]:
        out = self.fresh_dir()
        try:
            proc = cli(self.w.args(out, seed), out)
            return proc, self.attempt(lambda: self.checked(proc, out, seed), f"{self.w.name} CLI run")
        finally:
            shutil.rmtree(out)

    def end_to_end(self) -> tuple[dict, dict]:
        """CLI runs with set-up children interleaved, every time scaled to the reference speed.

        A warm-up set-up child runs first and is not counted; it also writes
        the bytecode cache.  The reference workload runs before the first CLI
        run and after each one; the times of a CLI run and of the set-up
        children after it are scaled by REF_S over the mean of the two
        reference times around them.
        """
        self.child("setup", self.w.ring_spec)
        ref = [reference_seconds()]
        raw_walls, raw_setup = [], []
        walls, setup, rss, checks_rate, rings_rate, latencies = [], [], [], [], [], []
        min_runs = max(MIN_RUNS, len(self.cli_seeds) + 1)  # so some CLI seed repeats
        while len(walls) < min_runs or len(setup) < SETUP_MIN or self.elapsed() < self.seconds:
            proc, outcome = self.cli_run(self.cli_seeds[len(walls) % len(self.cli_seeds)])
            raw_walls.append(proc.wall_s)
            setups = []
            for _ in range(SETUP_PER_RUN):
                if sum(raw_setup) + sum(setups) >= SETUP_SHARE * sum(raw_walls):
                    break
                setups.append(self.child("setup", self.w.ring_spec)[0].wall_s)
            raw_setup.extend(setups)
            ref.append(reference_seconds())
            scale = REF_S / ((ref[-2] + ref[-1]) / 2)
            walls.append(proc.wall_s * scale)
            setup.extend(t * scale for t in setups)
            rss.append(proc.rss_mb)
            if outcome is not None:
                checks_rate.append(outcome.checks / walls[-1])
                rings_rate.append(outcome.rings / walls[-1])
                latencies.extend(ms * scale for ms in outcome.ring_latencies_ms)
        if not latencies:  # every run failed; report the timings that exist
            checks_rate, rings_rate, latencies = [0.0], [0.0], [w * 1000 for w in walls]
        metrics = {
            "wall_s": (median(walls), "s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (median(rss), "MB"),
            "checks_per_s": (median(checks_rate), "1/s"),
            "rings_per_s": (median(rings_rate), "1/s"),
            "ring_p50_ms": (percentile(latencies, 50), "ms"),
            "ring_p90_ms": (percentile(latencies, 90), "ms"),
        }
        samples = {
            "raw_wall_s": raw_walls, "raw_setup_s": raw_setup, "reference_s": ref, "peak_rss_mb": rss,
            "raw_wall_median_s": median(raw_walls), "raw_setup_median_s": median(raw_setup),
            "ring_latencies": len(latencies),
        }
        return metrics, samples

    def traced(self) -> tuple[dict, dict]:
        """Pairs of one untraced and one traced CLI run, all with the first CLI seed."""
        seed = self.cli_seeds[0]
        self.child("setup", self.w.ring_spec)  # warm-up, as in end_to_end
        suite_s = {s: 0.0 for s in SUITES}
        suites_doc = None
        if self.w.verifies:
            _, suites_doc = self.child("suites", self.w.ring_spec, str(seed))
            if suites_doc is not None:
                suite_s.update(suites_doc["suite_s"])
        untraced, traced, layers = [], [], []
        while not traced or self.elapsed() < self.seconds:
            proc, _ = self.cli_run(seed)
            untraced.append(proc.wall_s)
            out = self.fresh_dir()

            def check_traced(tproc, doc):
                outcome = self.checked(tproc, out, seed)
                if layers:
                    counts = {k: v for k, v in doc["layers"].items() if unit_of(k) != "s"}
                    require(counts == {k: layers[0]["layers"][k] for k in counts}, "counters differ between runs")
                elif suites_doc is not None:
                    check_suites_union(suites_doc, outcome)

            tproc, doc = self.child("trace", *self.w.args(out, seed), cwd=out, check=check_traced)
            shutil.rmtree(out)
            traced.append(tproc.wall_s)
            if doc is not None:
                if not layers:
                    with open(RESULTS / f"trace-{self.w.name}-seed{self.seed}.json", "w") as fh:
                        json.dump(doc, fh)
                layers.append(doc)
        metrics = {}
        for name in layers[0]["layers"] if layers else []:
            values = [d["layers"][name] for d in layers]
            metrics[name] = median(values) if unit_of(name) == "s" else values[0]
        for s in SUITES:
            metrics[f"verify.suite.{s}_s"] = suite_s[s]
        metrics["trace.wall_s"] = median(traced)
        metrics["trace.overhead_s"] = median(traced) - median(untraced)
        samples = {"traced_wall_s": traced, "untraced_wall_s": untraced}
        return {k: (v, unit_of(k)) for k, v in metrics.items()}, samples


def check_suites_union(suites_doc: dict, outcome: Outcome) -> None:
    """The per-suite runs together must give exactly the full run's records."""
    full = [json.loads(data)["records"] for data in outcome.reports.values()]
    parts = [r["records"] for r in suites_doc["rings"]]
    require(len(full) == len(parts), f"{len(parts)} rings in the per-suite run, {len(full)} in the full run")
    for i, (a, b) in enumerate(zip(full, parts)):
        require(a == b, f"per-suite records differ from the full run on ring {i}")


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_revision": revision,
        "src_sha256": digest(*(str(p.relative_to(SRC)).encode() + p.read_bytes() for p in src)),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        w = WORKLOADS[name]()
        bench = Bench(w, seed, seconds, work)
        w.prepare(work, seed, bench)
        bench.t_start = perf()
        metrics, samples = bench.traced() if trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
        "fail_ratio": bench.failed / bench.attempted, "errors": bench.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
    }


def print_result(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"attempted {res['attempted']}  failed {res['failed']}  fail_ratio {res['fail_ratio']}")
    for err in res["errors"]:
        print(f"  FAILED {err}")
    for name, m in res["metrics"].items():
        print(f"  {name:<32} {m['value']!r:>24} {m['unit']}")
    if "raw_wall_median_s" in res["samples"]:
        print(f"  unscaled medians: wall {res['samples']['raw_wall_median_s']!r} s, "
              f"set-up {res['samples']['raw_setup_median_s']!r} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "zdgraph" / "cli.py").is_file():
        print(f"perfbench: no zdgraph sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, stop_children)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    env = environment()
    for res in results:
        res["environment"] = env
        with open(RESULTS / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(res, fh, indent=1)
        print_result(res)
    print(f"environment {json.dumps(env)}")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
