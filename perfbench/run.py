"""Benchmark of the ``qentropy`` CLI: fresh-process commands on named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, so nothing needs installing.  Closed loop: one
client runs one command at a time, each as a fresh process, and checks
its output against ``perfbench/reference`` before starting the next.

Workloads (README.md says why each was chosen and what was left out):

* ``figures-fixed``: ``fig1``, ``fig2``, ``fig3`` at their defaults
  (fixed cut at level 1000);
* ``figures-adaptive``: the same three with ``--m-trunc 0``;
* ``verify-suite``: ``qentropy verify --seed K`` with K drawn from
  ``--seed``.

A run discards one warm-up command, then repeats passes over the
workload's commands for about ``--seconds``.  With ``--trace 0`` it
reports the median pass, and as ``setup_s`` the median over every
command of the time from starting its process to the end of
``import qentropy.cli``.  With ``--trace 1`` set-up is profiled with
``-X importtime`` instead, and each pass runs with :mod:`spans` wrapping
the library's public functions; the per-layer metrics are the median
traced pass.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the machine
fingerprint, every metric with its unit and sample count, and
``error_rate``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import check
import spans

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
FIGURES = ("fig1", "fig2", "fig3")
WORKLOADS = ("figures-fixed", "figures-adaptive", "verify-suite")
IMPORTTIME_REPEATS = 3
#: Whole-run limit; a run must end within 180 s, so stop starting work here.
DEADLINE_S = 165.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclasses.dataclass(frozen=True)
class Command:
    """One ``qentropy`` invocation and the reference its output must match."""

    args: list[str]
    reference: Path
    csv: Path | None = None  # None: the reference lists verify checks


@dataclasses.dataclass
class Child:
    status: int
    started: float  # CLOCK_MONOTONIC just before the process was started
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


@dataclasses.dataclass
class Pass:
    wall_s: float = 0.0
    run_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    csv_bytes: int = 0
    setup_s: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    records: list = dataclasses.field(default_factory=list)


class Runner:
    """Starts fresh interpreters against ``root/src`` inside ``workdir``."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

    def child(self, argv: list[str]) -> Child:
        """Run one process to completion; its own rusage gives CPU and RSS.

        The parent blocks in ``wait4`` so it takes no CPU from the child;
        a timer kills a child still running at the deadline.
        """
        out = self.workdir / "child.out"
        err = self.workdir / "child.err"
        reaped = threading.Lock()
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            started = time.clock_gettime(time.CLOCK_MONOTONIC)
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.workdir,
                                    env=self.env, stdout=stdout, stderr=stderr)

            def kill():
                with reaped:
                    if proc.returncode is None:
                        proc.kill()

            timer = threading.Timer(max(self.deadline - start, 0.0), kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            with reaped:
                proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
        return Child(proc.returncode, started, wall,
                     usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss, out.read_text(errors="replace"),
                     err.read_text(errors="replace"))

    def import_profile(self) -> tuple[float, float]:
        """qentropy import time and time spent in scipy modules, -X importtime."""
        child = self.child(["-X", "importtime", "-c", "import qentropy.cli"])
        total = scipy = 0.0
        for line in child.stderr.splitlines():
            fields = line.split("|")
            if not line.startswith("import time:") or len(fields) != 3:
                continue
            try:
                self_us = int(fields[0].split(":")[1])
                cumulative_us = int(fields[1])
            except ValueError:
                continue  # the column-title line
            name = fields[2][1:]
            if name.strip().split(".")[0] == "scipy":
                scipy += self_us * 1e-6
            if not name.startswith(" ") and name.split(".")[0] == "qentropy":
                total += cumulative_us * 1e-6
        return total, scipy

    def run_pass(self, commands: list[Command], trace: bool) -> Pass:
        result = Pass()
        record_path = self.workdir / "record.json"
        for command in commands:
            child = self.child([str(HERE / "launch.py"), str(record_path),
                                "1" if trace else "0", "--", *command.args])
            record = {}
            if record_path.exists():
                record = json.loads(record_path.read_text(encoding="utf-8"))
                record_path.unlink()
            package = Path(record.get("package", "/")).resolve()
            ok = (child.status == 0
                  and package.is_relative_to(self.root / "src" / "qentropy"))
            if command.csv is None:
                attempted, failed = check.compare_checks(child.stdout,
                                                         command.reference)
            else:
                attempted, failed = check.compare_csv(command.csv,
                                                      command.reference)
                if command.csv.exists():
                    result.csv_bytes += command.csv.stat().st_size
                    command.csv.unlink()
            result.attempted += 1 + attempted
            result.failed += (0 if ok else 1) + failed
            if not ok:
                print(f"command failed: qentropy {' '.join(command.args)} "
                      f"(exit {child.status})\n{child.stderr[-2000:]}",
                      file=sys.stderr)
            result.wall_s += child.wall_s
            result.run_s += record.get("run_s", child.wall_s)
            if "imported_at" in record:
                result.setup_s.append(record["imported_at"] - child.started)
            result.cpu_s += child.cpu_s
            result.peak_rss_mb = max(result.peak_rss_mb,
                                     child.maxrss_kb * 1024 / 1e6)
            result.records.append(record)
        return result


def workload_commands(name: str, rng: random.Random, outdir: Path) -> list[Command]:
    """The commands of one pass; verify takes its seed from ``rng``."""
    if name == "verify-suite":
        seed = rng.randrange(1, 2**31)
        return [Command(["verify", "--seed", str(seed)],
                        REFERENCE / name / "checks.txt")]
    extra = ["--m-trunc", "0"] if name == "figures-adaptive" else []
    return [Command([figure, *extra, "--output", str(outdir / f"{figure}.csv")],
                    REFERENCE / name / f"{figure}.csv", outdir / f"{figure}.csv")
            for figure in FIGURES]


def layer_metrics(traced: Pass) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    A span's self time is its duration minus the durations of its direct
    child spans; ``cli.self_s`` is the command time outside every span.
    ``trace.overhead_frac`` estimates traced over untraced ``run_s``,
    minus 1, from the span count and the wrapper's cost per call that
    each command timed on an empty function.
    """
    m = dict.fromkeys(
        [f"{layer}.{kind}" for layer in spans.LAYERS for kind in ("calls", "self_s")]
        + ["cli.self_s", "quantum.point_evals", "quantum.rows",
           "quantum.row_entries", "quantum.worst_mass_deficit",
           "schrodinger.steps", "schrodinger.unitarity_defect",
           "verify.checks", "verify.checks_failed"], 0.0)
    rows_s = prop_s = prop_cpu_s = overhead_s = 0.0
    hits = lookups = 0
    for record in traced.records:
        span_list = record.get("spans", [])
        child_s = [0.0] * len(span_list)
        for span in span_list:
            if span is not None and span[2] >= 0:
                child_s[span[2]] += span[4] - span[3]
        top_s = 0.0
        for i, span in enumerate(span_list):
            if span is None:
                continue
            layer, name, parent, t0, t1, c0, c1, extra = span
            extra = extra or {}
            m[f"{layer}.calls"] += 1
            m[f"{layer}.self_s"] += (t1 - t0) - child_s[i]
            if parent < 0:
                top_s += t1 - t0
            if name == "transition_probability":
                m["quantum.point_evals"] += 1
            if "entries" in extra:
                m["quantum.rows"] += 1
                m["quantum.row_entries"] += extra["entries"]
                m["quantum.worst_mass_deficit"] = max(
                    m["quantum.worst_mass_deficit"], 1.0 - extra["mass"])
                rows_s += t1 - t0
            outer = parent < 0 or (span_list[parent] or [None])[0] != layer
            if layer == "schrodinger" and outer:
                prop_s += t1 - t0
                prop_cpu_s += c1 - c0
            if "steps" in extra:
                m["schrodinger.steps"] += extra["steps"]
                m["schrodinger.unitarity_defect"] = max(
                    m["schrodinger.unitarity_defect"], extra["defect"])
            if "passed" in extra:
                m["verify.checks"] += 1
                m["verify.checks_failed"] += not extra["passed"]
        m["cli.self_s"] += record.get("run_s", 0.0) - top_s
        overhead_s += len(span_list) * record.get("span_overhead_s", 0.0)
        cache = record.get("caches", {}).get("quadrature.tanh_sinh_rule")
        if cache:
            hits += cache["hits"]
            lookups += cache["hits"] + cache["misses"]
    if m["quantum.calls"] > m["quantum.point_evals"] and not m["quantum.rows"]:
        raise RuntimeError(
            "quantum functions ran but returned no TransitionRow: the row "
            "API changed, so spans._extra must learn to count rows again")
    m["cli.csv_bytes"] = traced.csv_bytes
    m["quadrature.rule_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    m["quantum.row_us"] = 1e6 * rows_s / m["quantum.rows"] if m["quantum.rows"] else 0.0
    m["schrodinger.step_us"] = (1e6 * prop_s / m["schrodinger.steps"]
                                if m["schrodinger.steps"] else 0.0)
    m["schrodinger.cpu_per_wall"] = prop_cpu_s / prop_s if prop_s else 0.0
    m["trace.overhead_frac"] = overhead_s / (traced.run_s - overhead_s)
    return m


def measure(runner: Runner, make_pass, seconds: float, trace: bool) -> dict:
    """Warm up, then run passes for about ``seconds``.

    The number of passes is the one whose total time comes nearest to
    ``seconds``, and at least one, so the run length stays close to
    ``seconds`` whatever a pass costs.  ``make_pass()`` returns the
    commands of one pass.
    """
    samples = defaultdict(list)
    attempted = failed = 0
    # warm-up, discarded: compiles bytecode and warms the page cache
    runner.run_pass(make_pass()[:1], trace=False)
    if trace:
        for _ in range(IMPORTTIME_REPEATS):
            import_s, scipy_s = runner.import_profile()
            samples["setup.import_s"].append(import_s)
            samples["setup.scipy_import_s"].append(scipy_s)
    start = time.perf_counter()
    passes = 0
    while True:
        done = runner.run_pass(make_pass(), trace)
        passes += 1
        attempted += done.attempted
        failed += done.failed
        if trace:
            for key, value in layer_metrics(done).items():
                samples[key].append(value)
        else:
            for key in ("wall_s", "run_s", "cpu_s", "peak_rss_mb"):
                samples[key].append(getattr(done, key))
            samples["setup_s"].extend(done.setup_s)
        now = time.perf_counter()
        per_pass = (now - start) / passes
        if now - start + per_pass / 2 >= seconds or now + per_pass > runner.deadline:
            break
    return {"samples": dict(samples), "passes": passes,
            "attempted": attempted, "failed": failed}


def fingerprint(root: Path) -> dict:
    import numpy

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qentropy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
    }


def metric_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summarize(result: dict, trace: bool) -> tuple[list[str], dict]:
    """Readable lines and the final JSON object for one run's samples."""
    lines, metrics = [], {}
    for name, unit in metric_units(trace).items():
        values = result["samples"][name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(f"  {name:34s} {metrics[name]['value']:14.6g} {unit:6s} "
                     f"median of {len(values)}: "
                     + " ".join(f"{value:.6g}" for value in values))
    error_rate = result["failed"] / max(result["attempted"], 1)
    lines.append(f"  {'error_rate':34s} {error_rate:14.6g} {'ratio':6s} "
                 f"{result['failed']} of {result['attempted']} operations failed")
    return lines, {"correct": result["failed"] == 0,
                   "attempted": result["attempted"],
                   "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = HERE.parent
    if not (root / "src" / "qentropy" / "cli.py").is_file():
        print(f"no qentropy sources under {root / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    workdir = root / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, workdir, started + DEADLINE_S)
        rng = random.Random(args.seed)
        result = measure(
            runner, lambda: workload_commands(args.workload, rng, workdir),
            args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("fingerprint " + json.dumps(fingerprint(root), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['passes']} passes after one discarded warm-up command")
    lines, summary = summarize(result, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
