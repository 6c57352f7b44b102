"""Benchmark of `patmetrics run`: wall time, peak RSS and set-up time per
workload, with per-layer spans from a separate traced run.

From the root of a checkout:

    python3 bench/run.py --workload citation-heavy --seed 20240 --seconds 40 --trace 0
    python3 bench/run.py --workload all      # every workload, one after another
    python3 bench/run.py --self-check        # every workload on a shrunken corpus

Load model: closed loop, one client.  Each timed run is one fresh
`patmetrics` process into a fresh, empty output directory, reaped with
`os.wait4` so its peak RSS and CPU time are its own.  Runs follow one
another until `--seconds` have passed (at least one run).  Every run's
outputs are checked; a run that fails a check counts in `failed` and its
timings are dropped.  The medians go to the JSON object on the last line
of standard output.

The host's CPU speed drifts by tens of percent within seconds and over
minutes, more than a median over one run can remove.  So a fixed reference
task runs before and after every timed process, on the same CPU, and each
process's time is scaled by the mean of those two reference times
(`reference_task`, `Workload.reference_s`).  The unscaled times are per-layer
metrics.  `bench/README.md` says why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
WORK = os.path.join(ROOT, ".bench_work")

DEFAULT_SEED = 20240
#: Set-up is repeated and its median reported, so one slow start does not
#: read as a regression.
SETUP_REPEATS = 5
#: `base_count` of the shrunken corpora in the self-check (desk: 529).
SELF_CHECK_BASE_COUNT = 12

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass(frozen=True)
class Workload:
    name: str
    synth_config: str
    run_config: str
    #: True when set-up writes the input tables with `patmetrics synth`;
    #: False when the timed command generates its own corpus.
    synth_in_setup: bool
    #: Classifier groups that must reproduce the planted `truth/<g>.ids`.
    gated: tuple[str, ...]
    #: Manifest digest at DEFAULT_SEED (see `manifest_digest`).
    digest: str
    #: Files copied beside the run config during set-up.
    extra_files: tuple[str, ...] = ()
    #: False for a workload that only runs by name, outside BENCHMARK.json.
    declared: bool = True
    #: Gradient steps of the reference task's numpy part (`reference.py`):
    #: 0 for a workload whose work is pure Python.  A reference with the
    #: workload's own mix of work feels the host's contention as it does.
    reference_steps: int = 0
    #: Seconds the reference task takes at the reference speed, about its
    #: time on the reference machine.  Each timed process's wall is reported
    #: as measured x reference_s / (mean wall of the reference task just
    #: before and just after it): seconds on a host where the task takes
    #: reference_s.  A reference next to the process tracks the host's speed
    #: much better than one a second away.
    reference_s: float = 0.5


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            synth_config=os.path.join(FIXTURES, "desk.synth"),
            run_config=os.path.join(FIXTURES, "desk.run"),
            synth_in_setup=False,
            gated=("Keyword", "Science", "WIPO", "USPTO"),
            digest="08fc2f088f177bc4ccf182ba537732d52ee7305a37198729a52f47539758a665",
            # one process takes ~40 s, so a run holds one sample: too few
            # for a median that is steady across seeds
            declared=False,
            reference_steps=60,
            reference_s=1.0,
        ),
        Workload(
            name="citation-heavy",
            synth_config=os.path.join(BENCH, "workloads", "citation-heavy.synth"),
            run_config=os.path.join(BENCH, "workloads", "citation-heavy.run"),
            synth_in_setup=True,
            gated=("Science",),
            digest="692bb41395fd159caf0218b50347c19e730a3b193c5e37f6431029dd9407df6a",
        ),
        Workload(
            name="text-heavy",
            synth_config=os.path.join(BENCH, "workloads", "text-heavy.synth"),
            run_config=os.path.join(BENCH, "workloads", "text-heavy.run"),
            synth_in_setup=True,
            gated=("Keyword", "WIPO", "Science"),
            digest="171d6d74b5915667b93a656e25a2b8737eae3f7835ac50d5328efee15c505a36",
            extra_files=(os.path.join(BENCH, "workloads", "text-heavy.uspto"),),
            reference_steps=60,
            reference_s=1.0,
        ),
    )
}


class BenchError(Exception):
    """The benchmark itself cannot go on (set-up failed, bad checkout)."""


# ---------------------------------------------------------------------------
# processes

@dataclass
class Proc:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    exit_code: int


def spawn(argv: list[str], log_path: str) -> Proc:
    """Run one child to completion; wall is spawn to reap, rusage is the
    child's own (`RUSAGE_CHILDREN` would mix in every earlier child)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, proc.returncode)


def patmetrics(*args: str) -> list[str]:
    return [sys.executable, "-m", "patmetrics", *args]


def traced(run_id: str, spans_path: str, *args: str) -> list[str]:
    return [sys.executable, os.path.join(BENCH, "spans.py"), run_id, spans_path, "--", *args]


def reference_task(w: Workload, log_path: str) -> float:
    """Wall seconds, spawn to reap, of `reference.py` for this workload: a
    fixed task that depends on nothing in `src/`."""
    proc = spawn(
        [sys.executable, os.path.join(BENCH, "reference.py"), str(w.reference_steps)], log_path
    )
    if proc.exit_code != 0:
        raise BenchError(f"the reference task exited {proc.exit_code}; see {log_path}")
    return proc.wall_s


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the reference task
    runs where the timed processes run: the two vCPUs of the reference
    machine slow down largely independently of each other.  A program
    that learns to use a second core needs this pin lifted to show it."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fresh_dir(path: str) -> str:
    """Create an output directory that did not exist; a reused directory
    would let `patmetrics` pick up an earlier run's corpus."""
    os.makedirs(path)
    if os.listdir(path):
        raise BenchError(f"output directory {path} is not empty")
    return path


# ---------------------------------------------------------------------------
# inputs

def shrink_configs(w: Workload, dest: str) -> tuple[str, str]:
    """Copies of the workload's synth and run configs with a small
    `base_count`, for the self-check; returns (synth, run) paths."""
    synth = configparser.ConfigParser()
    synth.read(w.synth_config, encoding="utf-8")
    synth["synth"]["base_count"] = str(SELF_CHECK_BASE_COUNT)
    synth_path = os.path.join(dest, os.path.basename(w.synth_config))
    with open(synth_path, "w", encoding="utf-8") as fh:
        synth.write(fh)
    if w.synth_in_setup:
        return synth_path, w.run_config
    # the run config names its synth config (and the USPTO config) relative
    # to its own directory, so the copy points at absolute paths
    run = configparser.ConfigParser()
    run.read(w.run_config, encoding="utf-8")
    run["inputs"]["synth"] = synth_path
    base = os.path.dirname(w.run_config)
    for section in run.sections():
        if "config" in run[section]:
            run[section]["config"] = os.path.join(base, run[section]["config"])
    run_path = os.path.join(dest, os.path.basename(w.run_config))
    with open(run_path, "w", encoding="utf-8") as fh:
        run.write(fh)
    return synth_path, run_path


@dataclass
class Inputs:
    run_config: str
    #: Directory of the set-up tables, or None when the run generates them.
    tables: str | None


def set_up(w: Workload, seed: int, work: str, shrink: bool, repeats: int,
           spans_path: str | None = None) -> tuple[Inputs, list[float], list[float]]:
    """Prepare the workload's inputs `repeats` times into fresh directories
    and keep the last; returns the inputs, each repetition's wall and the
    mean wall of the reference tasks just before and after it.

    With `spans_path`, one traced repetition is made instead.  A workload
    without set-up tables starts the interpreter and imports the program,
    which also warms the file cache for the first timed run."""
    synth_config, run_config = (
        shrink_configs(w, work) if shrink else (w.synth_config, w.run_config)
    )
    walls, refs, manifests = [], [], set()
    before = reference_task(w, os.path.join(work, "setup.log"))
    for rep in range(repeats):
        dest = fresh_dir(os.path.join(work, f"setup-{rep}"))
        if w.synth_in_setup:
            args = ("synth", "--config", synth_config, "--out", dest, "--seed", str(seed))
            argv = traced("setup", spans_path, *args) if spans_path else patmetrics(*args)
        else:
            argv = [sys.executable, "-c", "import patmetrics.cli"]
        proc = spawn(argv, os.path.join(work, "setup.log"))
        if proc.exit_code != 0:
            raise BenchError(f"{w.name}: set-up exited {proc.exit_code}; see {work}/setup.log")
        walls.append(proc.wall_s)
        after = reference_task(w, os.path.join(work, "setup.log"))
        refs.append((before + after) / 2)
        before = after
        if w.synth_in_setup:
            with open(os.path.join(dest, "manifest.txt"), "rb") as fh:
                manifests.add(fh.read())
        if rep:
            shutil.rmtree(os.path.join(work, f"setup-{rep - 1}"))
    if len(manifests) > 1:
        raise BenchError(f"{w.name}: repeated set-up wrote different tables")
    if not w.synth_in_setup:
        return Inputs(run_config, None), walls, refs
    for path in (run_config, *w.extra_files):
        shutil.copy(path, dest)
    return Inputs(os.path.join(dest, os.path.basename(w.run_config)), dest), walls, refs


# ---------------------------------------------------------------------------
# correctness

def sha256_file(path: str) -> str:
    """Hash computed here, not by `patmetrics.io`, so the check does not
    trust the program it checks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_digest(out: str, tables: str | None) -> str:
    """sha256 of `manifest.txt`.  When the input tables sit outside the
    output directory, `load-report.txt` names them by absolute path, so its
    entry is re-hashed with that directory replaced by `<inputs>`: the digest
    then does not depend on where the checkout is."""
    with open(os.path.join(out, "manifest.txt"), "rb") as fh:
        data = fh.read()
    if tables is not None:
        with open(os.path.join(out, "load-report.txt"), "rb") as fh:
            report = fh.read()
        portable = report.replace(tables.encode(), b"<inputs>")
        data = data.replace(
            hashlib.sha256(report).hexdigest().encode(),
            hashlib.sha256(portable).hexdigest().encode(),
        )
    return hashlib.sha256(data).hexdigest()


def read_ids(path: str) -> set[str] | None:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return set(fh.read().split())


def check_outputs(w: Workload, out: str, inputs: Inputs) -> list[str]:
    """Problems with one finished run's output directory; empty means it
    passed.  Checks the manifest against the files and the planted groups
    against the synth output's `truth/`."""
    manifest = os.path.join(out, "manifest.txt")
    if not os.path.exists(manifest):
        return ["no manifest.txt"]
    problems = []
    listed = {}
    with open(manifest, encoding="utf-8") as fh:
        for line in fh:
            sha, rel = line.rstrip("\n").split("  ", 1)
            listed[rel] = sha
    on_disk = {
        os.path.relpath(os.path.join(root, name), out).replace(os.sep, "/")
        for root, _, files in os.walk(out)
        for name in files
    } - {"manifest.txt", "run.log"}
    if set(listed) != on_disk:
        problems.append(f"manifest lists {len(listed)} files, {len(on_disk)} on disk")
    problems += [
        f"{rel} does not match its manifest hash"
        for rel, sha in sorted(listed.items())
        if rel in on_disk and sha256_file(os.path.join(out, rel)) != sha
    ]
    truth = os.path.join(inputs.tables or os.path.join(out, "corpus"), "truth")
    for g in w.gated:
        got = read_ids(os.path.join(out, "groups", f"{g}.ids"))
        want = read_ids(os.path.join(truth, f"{g}.ids"))
        if got is None or want is None or got != want:
            problems.append(f"group {g} does not reproduce truth/{g}.ids")
    return problems


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    digests: set[str] = field(default_factory=set)


def timed_run(w: Workload, seed: int, inputs: Inputs, work: str, tally: Tally,
              compare_digest: bool, argv_of=None) -> Proc | None:
    """One checked run; returns None when it failed."""
    out = fresh_dir(os.path.join(work, f"run-{tally.attempted}"))
    args = ["run", "--config", inputs.run_config, "--out", out]
    if not w.synth_in_setup:
        args += ["--seed", str(seed)]
    argv = argv_of(args) if argv_of else patmetrics(*args)
    tally.attempted += 1
    proc = spawn(argv, os.path.join(work, "runs.log"))
    problems = [f"exit code {proc.exit_code}"] if proc.exit_code else check_outputs(w, out, inputs)
    if not problems:
        digest = manifest_digest(out, inputs.tables)
        tally.digests.add(digest)
        if compare_digest and digest != w.digest:
            problems.append(f"manifest digest {digest} is not the recorded {w.digest}")
    shutil.rmtree(out)
    if problems:
        tally.failed += 1
        print(f"{w.name}: run {tally.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        return None
    return proc


# ---------------------------------------------------------------------------
# measurement

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(w: Workload, seed: int, seconds: float, trace: bool, shrink: bool = False) -> dict:
    """One benchmark run of one workload; returns the result object."""
    work = os.path.join(WORK, w.name)
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    compare_digest = seed == DEFAULT_SEED and not shrink
    setup_trace = os.path.join(work, "setup.spans.json") if trace and w.synth_in_setup else None
    run_trace = os.path.join(work, "run.spans.json")
    inputs, setup_walls, setup_refs = set_up(
        w, seed, work, shrink, repeats=1 if trace else SETUP_REPEATS, spans_path=setup_trace
    )

    tally = Tally()
    runs: list[Proc] = []
    #: mean reference task wall just before and after each run in `runs`
    refs: list[float] = []
    start = time.perf_counter()
    before = reference_task(w, os.path.join(work, "runs.log"))
    while not tally.attempted or time.perf_counter() - start < seconds:
        proc = timed_run(w, seed, inputs, work, tally, compare_digest)
        after = reference_task(w, os.path.join(work, "runs.log"))
        if proc is not None:
            runs.append(proc)
            refs.append((before + after) / 2)
        before = after

    lines, metrics = [], {}
    if not trace:
        if runs:
            # (scaled samples, unscaled samples); memory is not scaled
            samples = {
                "wall_s": ([p.wall_s * w.reference_s / r for p, r in zip(runs, refs)],
                           [p.wall_s for p in runs]),
                "peak_rss_mb": ([p.peak_rss_mb for p in runs],) * 2,
                "setup_s": ([t * w.reference_s / r for t, r in zip(setup_walls, setup_refs)],
                            setup_walls),
            }
            for name, unit in END_TO_END:
                scaled, unscaled = samples[name]
                q1, med, q3 = quartiles(scaled)
                metrics[name] = {"value": med, "unit": unit}
                note = "" if scaled is unscaled else \
                    f", unscaled median {statistics.median(unscaled):.4f} {unit}"
                lines.append(f"{w.name} {name}: median {med:.4f} {unit} "
                             f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(scaled)}{note})")
            lines.append(f"{w.name} reference task: median {statistics.median(refs):.4f} s "
                         f"around runs, {statistics.median(setup_refs):.4f} s around set-ups; "
                         f"times scaled to {w.reference_s} s")
    else:
        traced_proc = timed_run(
            w, seed, inputs, work, tally, compare_digest,
            argv_of=lambda args: traced("run", run_trace, *args),
        )
        if setup_trace:
            metrics, lines = per_layer(w, [setup_trace, run_trace], setup_walls, traced_proc, runs,
                                       refs)
        else:
            metrics, lines = per_layer(w, [run_trace], [], traced_proc, runs, refs)

    lines.append(f"{w.name} failed_share: {tally.failed / tally.attempted:.4f} "
                 f"({tally.failed} failed of {tally.attempted} runs)")
    for digest in sorted(tally.digests):
        if not compare_digest:
            verdict = f"not compared (recorded digest is for seed {DEFAULT_SEED}, full size)"
        else:
            verdict = "matches" if digest == w.digest else "differs from"
            verdict += " the recorded digest"
        lines.append(f"{w.name} manifest digest {digest}: {verdict}")
    if len(tally.digests) > 1:
        # Not a failed run: each output passed its checks.  Metric values
        # summed over frozensets can differ in their last printed digit with
        # the interpreter's hash seed, which this reports rather than hides.
        print(f"{w.name}: {len(tally.digests)} different manifest digests from one input; "
              "the program's output depends on the hash seed", file=sys.stderr)
    correct = tally.failed == 0 and len(metrics) == (
        len(spans.PER_LAYER) if trace else len(END_TO_END)
    )
    if correct:
        shutil.rmtree(work)
    else:
        lines.append(f"{w.name}: not correct; logs kept in {work}")
    return {
        "lines": lines,
        "result": {"correct": correct, "attempted": tally.attempted,
                   "failed": tally.failed, "metrics": metrics},
    }


def loc_counts() -> dict[str, int]:
    """Non-blank source lines per module of src/patmetrics (informational)."""
    package = os.path.join(SRC, "patmetrics")
    counts = {name: 0 for name, unit in spans.PER_LAYER if unit == "lines"}
    for root, _, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    lines = sum(1 for line in fh if line.strip())
                counts["src.loc"] += lines
                module = f"{name[:-3].strip('_')}.loc"
                if root == package and module in counts:
                    counts[module] = lines
    return counts


def per_layer(w, spans_paths, traced_setup_walls, traced_proc, runs, refs):
    """Per-layer metrics from the traced processes (set-up synth, if any,
    and the run), beside the untraced runs of the same benchmark run.
    Times here are unscaled."""
    if traced_proc is None or not runs:
        return {}, [f"{w.name}: no per-layer metrics, a run failed"]
    recorded = []
    for path in spans_paths:
        with open(path, encoding="utf-8") as fh:
            recorded += json.load(fh)
    traced_wall = traced_proc.wall_s + sum(traced_setup_walls)
    values = spans.layer_metrics(recorded, traced_wall)
    values["cli.cpu_s"] = statistics.median(p.cpu_s for p in runs)
    values["unscaled.wall_s"] = statistics.median(p.wall_s for p in runs)
    values["trace.overhead_s"] = traced_proc.wall_s - values["unscaled.wall_s"]
    values["host.reference_s"] = statistics.median(refs)
    values.update(loc_counts())
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}
    lines = [f"{w.name} {name}: {values[name]:.6g} {unit}" for name, unit in spans.PER_LAYER]
    shares = ", ".join(
        f"{layer} {values[f'{layer}_s'] / traced_wall:.0%}" for layer in spans.LAYERS
    )
    lines.append(f"{w.name} share of traced wall {traced_wall:.2f} s: {shares}, "
                 f"cli {values['cli.self_s'] / traced_wall:.0%}")
    return metrics, lines


# ---------------------------------------------------------------------------
# self-check

def self_check() -> int:
    """Every workload on a shrunken corpus, untraced and traced; asserts the
    checks pass, the metric names match BENCHMARK.json, and the layer self
    times plus `cli.self_s` add up to the traced wall."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    if [(m["name"], m["unit"]) for m in declared["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if [(m["name"], m["unit"]) for m in declared["per_layer"]] != list(spans.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    if sorted(m["name"] for m in declared["workloads"]) != sorted(
        name for name, w in WORKLOADS.items() if w.declared
    ):
        problems.append("BENCHMARK.json workloads differ from the declared WORKLOADS")
    for w in WORKLOADS.values():
        for trace in (False, True):
            res = measure(w, DEFAULT_SEED, 0, trace, shrink=True)
            print("\n".join(res["lines"]))
            result, metrics = res["result"], res["result"]["metrics"]
            if not result["correct"]:
                problems.append(f"{w.name} trace={int(trace)}: not correct: {result}")
                continue
            if trace:
                v = {name: m["value"] for name, m in metrics.items()}
                covered = sum(v[f"{layer}_s"] for layer in spans.LAYERS) + v["cli.self_s"]
                if abs(covered - v["trace.wall_s"]) > 1e-6 or v["cli.self_s"] < 0:
                    problems.append(f"{w.name}: layer self times {covered} do not sum to "
                                    f"the traced wall {v['trace.wall_s']}")
                if any(v[name] < 0 for name, unit in spans.PER_LAYER
                       if unit == "s" and name != "trace.overhead_s"):
                    problems.append(f"{w.name}: negative self time")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    # a terminated benchmark stops its running child instead of orphaning it
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not os.path.exists(os.path.join(SRC, "patmetrics", "cli.py")) or not os.path.isdir(FIXTURES):
        print(f"bench: {ROOT} holds no patmetrics source tree (src/, fixtures/)", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        ok = True
        for name in names:
            res = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print("\n".join(res["lines"]))
            print(json.dumps(res["result"]), flush=True)
            ok = ok and res["result"]["correct"]
        return 0 if ok else 1
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("bench: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
