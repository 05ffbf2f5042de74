"""sgspectra benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload campaign_default --seed 0 --seconds 15 --trace 0

Every line but the last is a human-readable note.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  perfbench/README.md gives the reason for each
workload and how to confirm a claim on a held-out seed.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported, here or in a child.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import NOMINAL_S, Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"  # inputs, digests and traces written at run time
clock = time.perf_counter

# Fixed here, not read from the package, so that the per-layer metric names
# stay the same whatever the code under test does.
CHECK_IDS = (
    "T2.1", "C2.2", "L2.3", "T2.4", "C2.5", "T2.7", "C2.8", "C2.9",
    "L3.1", "T3.2", "T3.3", "T3.4", "C3.5", "C3.6", "C3.7",
    "B4", "T4.1", "T4.2", "T4.3",
)
# Chains known to be false (see README.md of the package): their violations
# are verdicts, not errors.  Every other violation is an error.
KNOWN_FALSE = frozenset({"T4.1", "T4.2", "T4.3", "C3.7"})

CAMPAIGNS = {
    "campaign_default": {},
    "campaign_scarce": {"theorems": ("C2.2", "C3.7", "T2.7"), "n_min": 8, "n_max": 24},
    "campaign_large": {"theorems": ("T2.1", "L2.3", "T3.4", "L3.1", "B4", "T4.1"),
                       "n_min": 32, "n_max": 64, "samples": 20},
}
SINGLE_CHECK_IDS = ("T2.1", "T3.4", "C3.5", "L2.3", "T3.2", "T4.1", "T4.3", "L3.1", "B4")
SINGLE_CHECK_GRAPHS = 100
SINGLE_CHECK_CALLS = 1000  # each graph file is checked ten times, with other ids and arguments
MIN_PASSES = 2  # campaign_s is the median of at least this many passes
MIN_LATENCIES = 1000  # distinct check inputs, so that p99 has at least 10 beyond it
# campaign_scarce meets its hypotheses in about 2% of probes, and those set p99:
# more inputs keep p99 from hinging on how many of them a seed draws.
PROBE_INPUTS = {"campaign_scarce": 5000}
PROBE_BLOCK_S = 0.3  # probes run in blocks of about this long between calibration kernels
CHECK_BLOCK = 100  # single_check calls per calibrated block
SETUP_REPEATS = 7
REPORT_MIN_S = 0.5  # a short report stage is timed repeatedly, for this long per pass
AGREE_TOL = 1e-9  # eigen vs LAPACK, relative to max(1, largest |eigenvalue|)


# --- loading and inputs ------------------------------------------------------

def load_package():
    """Import sgspectra from this checkout's src/ (never from elsewhere)."""
    src = ROOT / "src"
    if not (src / "sgspectra" / "__init__.py").is_file():
        raise SystemExit(f"error: sgspectra sources not found under {src}")
    sys.path.insert(0, str(src))
    import numpy as np
    import sgspectra
    from sgspectra import cli, verify
    if Path(sgspectra.__file__).resolve().parent != src / "sgspectra":
        raise SystemExit(f"error: imported sgspectra from {sgspectra.__file__}, not {src}")
    return types.SimpleNamespace(np=np, cli=cli, verify=verify)


class CampaignWorkload:
    def __init__(self, sg, name: str, seed: int):
        self.sg = sg
        self.name = name
        self.seed = seed
        self.cfg = sg.verify.CampaignConfig(seed=seed, **CAMPAIGNS[name])
        self.cfg.validate()
        # A pass runs the campaign one check id at a time, so that calibration
        # brackets blocks of under a second.  Each id's sample stream does not
        # depend on which other ids run, so the merged reports are the same
        # bytes as one run_campaign over every id (the traced run checks this).
        self.parts = [dataclasses.replace(self.cfg, theorems=(t,)) for t in self.cfg.theorems]
        tables = json.loads((BENCH / "expected_tables.json").read_text())
        self.expected = tables.get(name, {}).get(str(seed))

    def close(self) -> None:
        pass


class SingleCheckWorkload:
    """Pre-written .sg files (n 4..12) and the `sgspectra check` argvs run on them."""

    def __init__(self, sg, name: str, seed: int, workdir: Path):
        self.sg = sg
        self.name = name
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True)
        rng = random.Random(seed)
        graphs = []
        for i in range(SINGLE_CHECK_GRAPHS):
            n, edges = _random_graph(rng)
            path = workdir / f"g{i:03d}.sg"
            path.write_text("".join([f"n {n}\n"] + [f"{u} {v} {s}\n" for u, v, s in edges]))
            graphs.append((str(path), n, edges))
        self.argvs = []
        for i in range(SINGLE_CHECK_CALLS):
            theorem = SINGLE_CHECK_IDS[i % len(SINGLE_CHECK_IDS)]
            path, n, edges = graphs[i % SINGLE_CHECK_GRAPHS]
            self.argvs.append(["check", path, "--theorem", theorem]
                              + _check_args(theorem, n, edges, rng))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _random_graph(rng: random.Random):
    """n in 4..12, each pair an edge with probability 1/2, each edge negative with
    probability 1/2; redrawn until it has an edge."""
    while True:
        n = rng.randint(4, 12)
        edges = [(u, v, "-" if rng.random() < 0.5 else "+")
                 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if edges:
            return n, edges


def _check_args(theorem: str, n: int, edges, rng: random.Random) -> list[str]:
    """The argument a user would pass: one that meets the hypothesis if one exists."""
    nbrs = [set() for _ in range(n)]
    for u, v, _ in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    if theorem in ("T2.1", "T3.4", "C3.5"):
        negfree = [v for v in range(n) if all(not (s == "-" and v in (a, b)) for a, b, s in edges)]
        pool = negfree if theorem == "C3.5" and negfree else list(range(n))
        return ["--vertex", str(rng.choice(pool))]
    if theorem in ("L2.3", "T3.2", "T4.1"):
        negative = [e for e in edges if e[2] == "-"]
        u, v, _ = rng.choice(negative if theorem != "L2.3" and negative else edges)
        return ["--edge", f"{u},{v}"]
    if theorem == "T4.3":
        good = [(a, b) for a in range(n) for b in range(a + 1, n)
                if not nbrs[a] & nbrs[b] and (nbrs[a] | nbrs[b]) - {a, b}]
        a, b = rng.choice(good) if good else rng.sample(range(n), 2)
        return ["--pair", f"{a},{b}"]
    return []


def make_workload(sg, name: str, seed: int, workdir: Path):
    if name == "single_check":
        return SingleCheckWorkload(sg, name, seed, workdir)
    return CampaignWorkload(sg, name, seed)


def setup(name: str, seed: int, workdir: Path):
    """Import the package and prepare the workload's inputs (what setup_s times)."""
    sg = load_package()
    return sg, make_workload(sg, name, seed, workdir)


def measure_setup(name: str, seed: int, cal: Calibrator) -> list[float]:
    """Time setup in fresh interpreters, so that import cost is paid each time;
    returns the calibrated times."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        out, wall, calibrated = cal.time(subprocess.run, argv, capture_output=True, text=True,
                                         timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]) * calibrated / wall)
    return times


# --- output checks -----------------------------------------------------------

def summary_problems(summary, cfg, expected=None) -> list[str]:
    problems = []
    if [row["theorem"] for row in summary] != list(cfg.theorems):
        problems.append("summary does not list the configured check ids in order")
    for row in summary:
        t, met, holds, fails = row["theorem"], row["hypothesis_met"], row["holds"], row["fails"]
        if met + row["skipped"] != cfg.samples or holds + fails != met:
            problems.append(f"{t}: inconsistent counts {row}")
        if fails and t not in KNOWN_FALSE:
            problems.append(f"{t}: {fails} violations of a chain expected to hold")
    if expected is not None and table(summary) != expected:
        problems.append(f"summary {table(summary)} differs from the recorded table {expected}")
    return problems


def table(summary) -> dict:
    return {row["theorem"]: [row["hypothesis_met"], row["holds"], row["fails"], row["skipped"]]
            for row in summary}


def report_problems(theorem: str, code: int, text: str) -> list[str]:
    """A `check` exit code must agree with the report it printed."""
    try:
        report = json.loads(text)
    except ValueError:
        return [f"{theorem}: exit {code}, output is not a JSON report"]
    if report.get("theorem") != theorem:
        return [f"{theorem}: report names {report.get('theorem')!r}"]
    met, holds = report.get("hypothesis_met"), report.get("holds")
    expected = 3 if not met else (0 if holds else 4)
    if code != expected:
        return [f"{theorem}: exit {code} but the report says met={met} holds={holds}"]
    if code == 4 and theorem not in KNOWN_FALSE:
        return [f"{theorem}: violation of a chain expected to hold"]
    return []


def tree_digest() -> str:
    h = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*.py")] + [p for p in BENCH.iterdir() if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def digest_problems(workload: str, seed: int, digest: str) -> list[str]:
    """Every run of one source tree and seed must produce the same report bytes."""
    STATE.mkdir(exist_ok=True)
    path = STATE / f"digests-{tree_digest()}.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    key = f"{workload}:{seed}"
    if key in known:
        return [] if known[key] == digest else [f"report digest {digest} != {known[key]} of an earlier run"]
    known[key] = digest
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


class Ops:
    """Operations attempted and failed; the failures' reasons go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"FAILED: {p}", file=sys.stderr)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --- the operations ------------------------------------------------------------

def run_parts(wl: CampaignWorkload, cal: Calibrator):
    """run_campaign over each check id in turn, each call between calibration
    kernels; returns the merged result, wall seconds and calibrated seconds."""
    v = wl.sg.verify
    reports, summary = [], []
    wall = calibrated = 0.0
    for part in wl.parts:
        result, w, c = cal.time(v.run_campaign, part)
        reports += result.reports
        summary += result.summary
        wall += w
        calibrated += c
    return v.CampaignResult(wl.cfg, reports, summary), wall, calibrated


def report_stage(v, result) -> str:
    js = v.campaign_to_json(result)
    v.campaign_to_csv(result)
    return js


def campaign_pass(wl: CampaignWorkload, ops: Ops, seen: set, cal: Calibrator):
    """The campaign, then JSON and CSV; returns (campaign_s (wall, calibrated),
    calibrated report_s samples, summary, result), or None when the campaign
    raises."""
    v = wl.sg.verify
    try:
        result, wall, calibrated = run_parts(wl, cal)
        js, _, report_first = cal.time(report_stage, v, result)
    except Exception as exc:  # an operation that raises counts as failed
        ops.add([f"campaign raised {exc!r}"])
        return None
    problems = summary_problems(result.summary, wl.cfg, wl.expected)
    if len(result.reports) != wl.cfg.samples * len(wl.cfg.theorems):
        problems.append(f"{len(result.reports)} reports")
    digest = sha256(js)
    del js  # so that repeated report timings do not hold two copies at once
    seen.add(digest)
    if len(seen) > 1:
        problems.append("two passes in one run gave different JSON")
    problems += digest_problems(wl.name, wl.seed, digest)
    ops.add(problems)
    return (wall, calibrated), report_times(v, result, report_first, cal), result.summary, result


def probe_block(wl: CampaignWorkload, first: int, ops: Ops) -> list[tuple[int, float]]:
    """Probes first, first + 1, ... for about PROBE_BLOCK_S; returns (input
    index, latency) for each probe that did not raise."""
    inputs = PROBE_INPUTS.get(wl.name, MIN_LATENCIES)
    out, i, end = [], first, clock() + PROBE_BLOCK_S
    while clock() < end:
        latency = campaign_probe(wl, i % inputs, ops)
        if latency is not None:
            out.append((i % inputs, latency))
        i += 1
    return out


def campaign_probe(wl: CampaignWorkload, i: int, ops: Ops) -> float | None:
    """One sampled check through the library: a single-sample campaign (a batch
    of one).  Returns its latency, or None when it raises."""
    theorems = wl.cfg.theorems
    one = dataclasses.replace(wl.cfg, theorems=(theorems[i % len(theorems)],), samples=1,
                              seed=wl.cfg.seed * 1_000_003 + i)
    try:
        t0 = clock()
        result = wl.sg.verify.run_campaign(one)
        seconds = clock() - t0
    except Exception as exc:  # an operation that raises counts as failed
        ops.add([f"{one.theorems[0]} probe {i} raised {exc!r}"])
        return None
    ops.add(summary_problems(result.summary, one))
    return seconds


def calibrated_check_pass(wl: SingleCheckWorkload, main, cal: Calibrator):
    """Every pre-written check once, in blocks of CHECK_BLOCK calls between
    calibration kernels.

    Returns the calibrated latencies, the calls, and the pass's wall and
    calibrated seconds.
    """
    latencies, calls, wall, calibrated = [], [], 0.0, 0.0
    for lo in range(0, len(wl.argvs), CHECK_BLOCK):
        (lat, block), w, c = cal.time(check_calls, wl.argvs[lo:lo + CHECK_BLOCK], main)
        latencies += [x * c / w for x in lat]
        calls += block
        wall += w
        calibrated += c
    return latencies, calls, wall, calibrated


def check_calls(argvs, main):
    """Run each `sgspectra check` argv through cli.main.

    Returns the latencies and, per call, (exit code, output, exception raised).
    """
    latencies, calls = [], []
    sink = io.StringIO()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(sink):
            t0 = clock()
            try:
                code, error = main(argv), None
            except Exception as exc:  # an operation that raises counts as failed
                code, error = None, exc
            latencies.append(clock() - t0)
        calls.append((code, buf.getvalue(), error))
    return latencies, calls


def check_outputs(wl: SingleCheckWorkload, calls, ops: Ops, first: list | None) -> list[str]:
    """Count each call as one operation; returns the outputs."""
    outputs = []
    for k, (argv, (code, text, error)) in enumerate(zip(wl.argvs, calls)):
        problems = [f"{argv}: raised {error!r}"] if error else report_problems(argv[3], code, text)
        if first is not None and text != first[k]:
            problems.append(f"{argv}: output differs from the first pass")
        ops.add(problems)
        outputs.append(text)
    return outputs


def checks_result(v, outputs: list[str]):
    """The reports a check pass printed, gathered into one campaign-shaped result."""
    reports = []
    for text in outputs:
        with contextlib.suppress(ValueError, TypeError):  # already counted as failed
            reports.append(v.report_from_dict(json.loads(text)))
    summary = []
    for t in SINGLE_CHECK_IDS:
        rows = [r for r in reports if r.theorem == t]
        met = [r for r in rows if r.hypothesis_met]
        holds = sum(1 for r in met if r.holds)
        summary.append({"theorem": t, "samples": len(rows), "hypothesis_met": len(met),
                        "holds": holds, "fails": len(met) - holds, "skipped": len(rows) - len(met)})
    cfg = v.CampaignConfig(theorems=SINGLE_CHECK_IDS, samples=len(reports))
    return v.CampaignResult(cfg, reports, summary)


def report_times(v, result, first: float, cal: Calibrator) -> list[float]:
    """Time the report stage of one pass again until the samples cover
    REPORT_MIN_S; returns the calibrated times."""
    times = [first]
    while sum(times) < REPORT_MIN_S:
        times.append(cal.time(report_stage, v, result)[2])
    return times


# --- untraced run: end-to-end metrics -----------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(wl, seconds: float, ops: Ops, cal: Calibrator) -> tuple[dict, list]:
    """Repeat passes and checks for `seconds`; returns end-to-end metrics.

    The host's speed drifts by tens of percent over seconds, so every timing
    is calibrated (see calibrate.py).  campaign_s and report_s are medians over
    the run's passes and report stages; the check percentiles are taken over
    each check input's median latency.
    """
    start = clock()
    deadline = start + seconds
    passes, report_s = [], []  # passes: (wall, calibrated) seconds
    v = wl.sg.verify
    if isinstance(wl, CampaignWorkload):
        campaign_probe(wl, 0, Ops())  # warm-up, untimed
        samples = [[] for _ in range(PROBE_INPUTS.get(wl.name, MIN_LATENCIES))]
        seen: set = set()
        summary = None
        attempts = probes = 0
        pass_time, probe_time, last_pass = 0.0, -seconds / 8, 0.0
        pending = None  # the last pass's result, its report stage to be timed again
        # Alternate passes and probes, probes first and a quarter of the time, so
        # that both sets of samples span the run (on both sides of a long pass)
        # and see the same machine conditions.  Probe inputs repeat in cycles.
        # Each pass's report stage is timed again halfway through the probes
        # that follow it, so that report_s also samples the host at more times,
        # and always before the next pass, so that one pass's reports are alive
        # at a time.
        while not (attempts >= MIN_PASSES and probes >= len(samples) and clock() >= deadline):
            t0 = clock()
            if pending is not None and probe_time >= halfway:
                report_s += report_times(v, pending, cal.time(report_stage, v, pending)[2], cal)
                pending = None
            elif probe_time >= pass_time / 3 and (attempts < MIN_PASSES or t0 + last_pass <= deadline):
                sample = campaign_pass(wl, ops, seen, cal)
                if sample:
                    passes.append(sample[0])
                    report_s += sample[1]
                    summary, pending = sample[2], sample[3]
                sample = None
                attempts += 1
                last_pass = clock() - t0
                pass_time += last_pass
                halfway = min(probe_time + last_pass / 6, pass_time / 3)
            else:
                block, wall, calibrated = cal.time(probe_block, wl, probes, ops)
                for k, latency in block:
                    samples[k].append(latency * calibrated / wall)
                probes += len(block)
                probe_time += clock() - t0
        if pending is not None:
            report_s += report_times(v, pending, cal.time(report_stage, v, pending)[2], cal)
    else:
        samples = [[] for _ in wl.argvs]
        first = None
        result = None
        last_pass = 0.0
        while len(passes) < MIN_PASSES or clock() + last_pass <= deadline:
            t0 = clock()
            lat, calls, wall, calibrated = calibrated_check_pass(wl, wl.sg.cli.main, cal)
            passes.append((wall, calibrated))
            outputs = check_outputs(wl, calls, ops, first)
            for k, (x, call) in enumerate(zip(lat, calls)):
                if not call[2]:
                    samples[k].append(x)
            if first is None:
                first = outputs
                result = checks_result(v, outputs)
                ops.add(digest_problems(wl.name, wl.seed, sha256("".join(outputs))))
            report_s += report_times(v, result, cal.time(report_stage, v, result)[2], cal)
            last_pass = clock() - t0
        summary = result.summary
    latencies = [statistics.median(xs) for xs in samples if xs]
    if not (passes and latencies):
        raise SystemExit("error: every campaign or every check raised")
    repeats = sum(map(len, samples)) / len(latencies)
    print(f"# passes: {len(passes)}; campaign_s per pass, wall/calibrated: "
          + " ".join(f"{w:.4f}/{c:.4f}" for w, c in passes))
    print(f"# calibration kernel: {len(cal.samples)} runs, median "
          f"{statistics.median(cal.samples):.5f} s (nominal {NOMINAL_S:.5f} s)")
    print(f"# report_s: median of {len(report_s)} calibrated report stages: "
          + " ".join(f"{x:.4f}" for x in report_s))
    print(f"# check latency: {len(latencies)} inputs, each the median of {repeats:.1f} calibrated "
          f"calls on average; p99 has {len(latencies) - math.ceil(0.99 * len(latencies))} "
          "inputs beyond it")
    metrics = {
        "campaign_s": (statistics.median(c for _, c in passes), "s"),
        "report_s": (statistics.median(report_s), "s"),
        "check_p50_ms": (1e3 * percentile(latencies, 0.50), "ms"),
        "check_p99_ms": (1e3 * percentile(latencies, 0.99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, summary


# --- traced run: per-layer metrics ---------------------------------------------

def traced_run(wl, ops: Ops) -> tuple[dict, list, Tracer]:
    """One untraced pass, then the same pass traced; returns per-layer metrics."""
    sg, v = wl.sg, wl.sg.verify
    tracer = Tracer()
    sink = io.StringIO()
    if isinstance(wl, CampaignWorkload):
        campaign_probe(wl, 0, Ops())  # warm-up, untimed
        result, untraced, _ = run_parts(wl, Calibrator(sg.np))
        reference = sha256(v.campaign_to_json(result))
        problems = summary_problems(result.summary, wl.cfg, wl.expected)
        ops.add(problems + digest_problems(wl.name, wl.seed, reference))
        cfg = wl.cfg
        out = STATE / f"campaign-{os.getpid()}.json"
        argv = ["campaign", "--theorems", ",".join(cfg.theorems), "--n-min", str(cfg.n_min),
                "--n-max", str(cfg.n_max), "--p", repr(cfg.p), "--q", repr(cfg.q),
                "--samples", str(cfg.samples), "--seed", str(cfg.seed), "--out", str(out)]
        tracer.install(sg, sg.np)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = tracer.call("cli.main", sg.cli.main, argv)
            tracer.call("verify.campaign_to_csv", v.campaign_to_csv, result)
        finally:
            tracer.uninstall()
        traced = sum(e - s for name, s, e, _ in tracer.spans if name == "verify.run_campaign")
        written = out.read_text() if out.exists() else ""
        problems = [] if sha256(written) == reference else [
            "`sgspectra campaign` JSON differs from the per-id runs merged"]
        out.unlink(missing_ok=True)
        violations = sum(row["fails"] for row in result.summary)
        if code != (4 if violations else 0):
            problems.append(f"`sgspectra campaign` exited {code} with {violations} violations")
        summary = result.summary
    else:
        t0 = clock()
        _, calls = check_calls(wl.argvs, sg.cli.main)
        untraced = clock() - t0
        outputs = check_outputs(wl, calls, ops, None)
        result = checks_result(v, outputs)
        ops.add(digest_problems(wl.name, wl.seed, sha256("".join(outputs))))
        traced_ops = Ops()
        tracer.install(sg, sg.np)
        try:
            main = tracer.wrap("cli.main", sg.cli.main)
            _, calls = tracer.call("bench.checks", check_calls, wl.argvs, main)
            tracer.call("verify.campaign_to_json", v.campaign_to_json, result)
            tracer.call("verify.campaign_to_csv", v.campaign_to_csv, result)
        finally:
            tracer.uninstall()
        check_outputs(wl, calls, traced_ops, outputs)
        traced = sum(e - s for name, s, e, _ in tracer.spans if name == "bench.checks")
        problems = ["traced checks failed"] if traced_ops.failed else []
        summary = result.summary
    eigen, rows = eigen_analysis(sg.np, tracer.eigen_calls)
    if eigen["disagree"]:
        problems.append(f"{eigen['disagree']} eigen calls disagree with eigvalsh beyond "
                        f"{AGREE_TOL} x scale")
    ops.add(problems)
    for line in rows:
        print(line)
    return layer_metrics(tracer, eigen, untraced, traced, summary), summary, tracer


def eigen_analysis(np, calls) -> tuple[dict, list[str]]:
    """Per-order timings, the LAPACK ceiling and agreement, from recorded matrices."""
    by_order = defaultdict(list)
    for m, out, seconds in calls:
        by_order[m.shape[0]].append((m, out, seconds))
    ceiling, max_dev, disagree = 0.0, 0.0, 0
    buckets = {"le8": [0, 0.0], "9_16": [0, 0.0], "gt16": [0, 0.0]}
    rows = ["# eigen per order: n calls ours_us_per_solve eigvalsh_us_per_solve"]
    for n, items in sorted(by_order.items()):
        ok = [(m, out) for m, out, _ in items if out.shape == (n,)]
        disagree += len(items) - len(ok)
        ours_s = sum(s for _, _, s in items)
        bucket = buckets["le8" if n <= 8 else "9_16" if n <= 16 else "gt16"]
        bucket[0] += len(items)
        bucket[1] += ours_s
        if n == 0 or not ok:
            continue
        mats = np.stack([m for m, _ in ok])
        ours = np.stack([out for _, out in ok])
        times = []
        for _ in range(3):
            t0 = clock()
            ref = np.linalg.eigvalsh(mats)
            times.append(clock() - t0)
        lapack = statistics.median(times)
        ceiling += lapack
        dev = np.abs(ours - ref).max(axis=1) / np.maximum(1.0, np.abs(ref).max(axis=1))
        max_dev = max(max_dev, float(dev.max()))
        disagree += int((dev > AGREE_TOL).sum())
        rows.append(f"#   {n:3d} {len(items):6d} {1e6 * ours_s / len(items):10.1f} "
                    f"{1e6 * lapack / len(ok):8.2f}")
    for key, (count, seconds) in buckets.items():
        rows.append(f"# eigen.us_per_solve.{key}: "
                    + (f"{1e6 * seconds / count:.1f} over {count} solves" if count else "no solves"))
    return {
        "calls": len(calls),
        "n3_sum": sum(m.shape[0] ** 3 for m, _, _ in calls),
        "ceiling_s": ceiling,
        "max_dev": max_dev,
        "disagree": disagree,
    }, rows


def layer_metrics(tracer: Tracer, eigen: dict, untraced: float, traced: float, summary) -> dict:
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sampler = json_s = csv_s = 0.0
    rows = tracer.by_name()
    for name, (n, own, _) in rows.items():
        layer = name.split(".", 1)[0]
        if layer == "bench" or name == "verify.run_campaign":
            sampler += own  # the campaign loop outside every layer call
        elif name == "verify.campaign_to_json":
            json_s += own
        elif name == "verify.campaign_to_csv":
            csv_s += own
        else:
            self_s[layer] += own
            calls[layer] += n
    degree_profile_calls = rows.get("graphs.degree_profile", [0])[0]
    accounted = sum(self_s.values()) + sampler + json_s + csv_s
    roots = sum(e - s for _, s, e, parent in tracer.spans if parent < 0)
    print(f"# tracing: traced campaign_s {traced:.4f}, untraced {untraced:.4f}; "
          f"self times account for {accounted / roots:.6f} of the traced spans")
    met_rate = {t: 0.0 for t in CHECK_IDS}
    for row in summary:
        met_rate[row["theorem"]] = row["hypothesis_met"] / row["samples"]
    metrics = {
        "trace.campaign_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "eigen.self_s": (self_s["eigen"], "s"),
        "eigen.calls": (eigen["calls"], "count"),
        "eigen.n3_sum": (eigen["n3_sum"], "count"),
        "eigen.us_per_solve": (1e6 * self_s["eigen"] / max(1, eigen["calls"]), "us"),
        "eigen.ceiling_s": (eigen["ceiling_s"], "s"),
        "eigen.max_dev": (eigen["max_dev"], "ratio"),
    }
    for layer in ("matrices", "graphs", "surgery", "fileio"):
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    metrics["graphs.degree_profile_calls"] = (degree_profile_calls, "count")
    metrics["cli.self_s"] = (self_s["cli"], "s")
    metrics["verify.self_s"] = (self_s["verify"], "s")
    metrics["verify.sampler_self_s"] = (sampler, "s")
    metrics["verify.json_s"] = (json_s, "s")
    metrics["verify.csv_s"] = (csv_s, "s")
    metrics["verify.vacuous_ids"] = (sum(1 for row in summary if row["hypothesis_met"] == 0), "count")
    for t in CHECK_IDS:
        metrics[f"verify.met_rate.{t}"] = (met_rate[t], "ratio")
    return metrics


def write_trace(name: str, seed: int, tracer: Tracer, machine: dict, metrics: dict) -> Path:
    STATE.mkdir(exist_ok=True)
    path = STATE / f"trace_{name}_seed{seed}.json"
    doc = {"workload": name, "seed": seed, "machine": machine,
           "metrics": {k: v for k, (v, _) in metrics.items()},
           "spans": tracer.spans}
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path


# --- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*CAMPAIGNS, "single_check"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workdir = STATE / f"inputs-{os.getpid()}"

    if args.setup_probe:
        t0 = clock()
        _, wl = setup(args.workload, args.seed, workdir)
        elapsed = clock() - t0
        wl.close()
        print(f"{elapsed!r}")
        return 0

    sg, wl = setup(args.workload, args.seed, workdir)
    np = sg.np
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__, "blas_pin": BLAS_PIN, "machine": platform.machine()}
    print(f"# machine: {json.dumps(machine, sort_keys=True)}")
    ops = Ops()
    try:
        if args.trace:
            metrics, summary, tracer = traced_run(wl, ops)
            path = write_trace(args.workload, args.seed, tracer, machine, metrics)
            print(f"# trace written to {path.relative_to(ROOT)}")
        else:
            cal = Calibrator(np)
            setup_times = measure_setup(args.workload, args.seed, cal)
            metrics, summary = measure(wl, args.seconds, ops, cal)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            print("# setup_s per fresh process, calibrated: "
                  + " ".join(f"{x:.4f}" for x in setup_times))
    finally:
        wl.close()
    print("# hypothesis met / samples: " + ", ".join(
        f"{row['theorem']} {row['hypothesis_met']}/{row['samples']}" for row in summary))
    vacuous = [row["theorem"] for row in summary if row["hypothesis_met"] == 0]
    print(f"# vacuous ids (hypothesis never met): {', '.join(vacuous) or 'none'}")
    print(f"# error_rate: {ops.failed}/{ops.attempted} = {ops.failed / ops.attempted:.6f}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
