"""Seeded benchmark of the sewtree command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository.  It generates the workload's
inputs from the seed under ``.perfbench/`` in the checkout, then runs child
processes one at a time, back to back, for S seconds, and checks every
output.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of traced runs with
``--trace 1``.  See perfbench/README.md for the workloads and metrics.

Host speed on small shared machines drifts by up to 1.8x, in phases from
about a second to minutes.  So right after every measured child the
benchmark runs ``reference.py``, a fixed job that imports only the standard
library, and scales the child's times by REF_NOMINAL_S over the reference
job's wall time: every reported time is in seconds on a host where the
reference job takes REF_NOMINAL_S.  Raw and reference times are printed
beside each sample.  The benchmark pins itself, and so every child, to one
CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
WORK = REPO / ".perfbench"
EXPECTED = BENCH / "expected.json"
PYCACHE = WORK / "pycache"
CHILD_TIMEOUT_S = 45
SETUP_RUNS = 4
REF_NOMINAL_S = 0.5
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}
IMPORT_MODULES = {"sewtree.cli": "import.sewtree_cli_s",
                  "scipy.special": "import.scipy_special_s",
                  "requests": "import.requests_s"}


@dataclass
class Sample:
    wall_s: float
    code: int
    rss_mb: float


def run_child(argv: list[str], env: dict, log: Path) -> Sample:
    """Run one child to completion; wall time, exit code and max RSS."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=WORK, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, proc.returncode, usage.ru_maxrss / 1024)


def child_env() -> dict:
    """A pinned environment: sources from the checkout, bytecode cached under
    the benchmark's own directory, fixed hashing, no proxies."""
    env = {k: os.environ[k] for k in ("PATH", "LANG", "LC_ALL") if k in os.environ}
    env.update(
        PYTHONPATH=str(REPO / "src"),
        PYTHONPYCACHEPREFIX=str(PYCACHE),
        PYTHONHASHSEED="0",
        NO_PROXY="127.0.0.1,localhost",
    )
    return env


def environment(workload) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    sha = "unknown"
    if (REPO / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {"git_sha": sha, "python": platform.python_version(), "scipy": version("scipy"),
            "requests": version("requests"), "nproc": os.cpu_count(), "workload": workload.name,
            "seed": workload.seed, "inputs_sha256": workload.digest}


def cli_args(workload, inputs: Path, out: Path, adapter_url: str | None) -> list[str]:
    """Only interfaces the roadmap keeps: no --workers, --seed or --cap."""
    if workload.name == "gold-export":
        return ["gen-gold", str(inputs / "gold.grammar"), "--out", str(out / "gold.json")]
    args = ["score", "--corpus", str(inputs / "corpus"), "--grammars", str(inputs / "grammars"),
            "--specs", str(inputs / "specs"), "--out", str(out)]
    if workload.refs:
        args += ["--refs", str(inputs / "refs")]
    if adapter_url:
        args += ["--extractor", "adapter", "--adapter-url", adapter_url]
    return args


def importtime(log: Path) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime``."""
    found = {}
    for line in log.read_text(encoding="utf-8", errors="replace").splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in IMPORT_MODULES:
            found[IMPORT_MODULES[parts[2].strip()]] = int(parts[1]) * 1e-6
    return {name: found.get(name, 0.0) for name in IMPORT_MODULES.values()}


def median(values):
    return statistics.median(values) if values else None


class Bench:
    """One benchmark run: children one at a time, each followed by the
    reference job, and the checks on every output."""

    def __init__(self, args, workload, checks, recorded):
        self.args = args
        self.workload = workload
        self.checks = checks
        self.recorded = recorded
        self.tree_oracle = None
        self.env = child_env()
        self.inputs = WORK / "inputs" / workload.name
        self.ref_s: list[float] = []
        self.stub = None
        self.attempted = 0
        self.failed = 0
        self.first_output = None

    def child(self, argv: list[str], label: str) -> tuple[Sample, float, Path]:
        """Run one child, then the reference job; the child's sample, the
        factor that scales its times to the reference host, and its log."""
        self.attempted += 1
        log = WORK / "child.log"
        if self.stub is not None:
            self.stub.reset()
        sample = run_child(argv, self.env, log)
        ref = run_child([sys.executable, str(BENCH / "reference.py")], self.env, WORK / "reference.log")
        if ref.code != 0:
            raise RuntimeError(f"reference job failed: {(WORK / 'reference.log').read_text()[-500:]}")
        self.ref_s.append(ref.wall_s)
        if sample.code != 0:
            self.fail(f"{label}: exit {sample.code}: {log.read_text(errors='replace')[-500:]}")
        return sample, REF_NOMINAL_S / ref.wall_s, log

    def warm(self) -> None:
        """Untimed: fill the bytecode cache for the sources as they are now
        and for the reference job's standard-library imports."""
        for argv in ([sys.executable, "-c", "import sewtree.cli"],
                     [sys.executable, str(BENCH / "reference.py")]):
            run_child(argv, self.env, WORK / "child.log")

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)

    def cli(self, prefix: list[str], label: str) -> tuple[Sample, float, bool, Path]:
        """One CLI run into a fresh output directory: the sample, its scale,
        whether the outputs passed every check, and the output directory."""
        out = WORK / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        url = self.stub.url if self.stub is not None else None
        sample, scale, _ = self.child(prefix + cli_args(self.workload, self.inputs, out, url), label)
        if sample.code != 0:
            return sample, scale, False, out
        try:
            problems, summary = self.check_output(out)
        except (OSError, KeyError, ValueError) as exc:
            problems, summary = [f"unreadable output: {exc!r}"], None
        if problems:
            self.fail(f"{label}: " + "; ".join(problems[:5]))
        elif self.first_output is None:
            self.first_output = summary
        print(f"{label}: {sample.wall_s * scale:.4f} s (raw {sample.wall_s:.4f} s, reference "
              f"{self.ref_s[-1]:.4f} s), rss {sample.rss_mb:.1f} MB, {'FAILED' if problems else 'ok'}")
        return sample, scale, not problems, out

    def check_output(self, out: Path):
        if self.workload.name == "gold-export":
            trees = json.loads((out / "gold.json").read_text(encoding="utf-8"))["trees"]
            return self.checks.check_gold(self.workload, trees, self.recorded), self.checks.gold_summary(trees)
        rows = self.checks.read_scores(out / "scores.csv")
        return self.checks.check_scores(self.workload, rows, self.recorded, self.tree_oracle), rows

    def measure(self, step, deadline: float) -> None:
        """Run ``step`` back to back: at least once, then again only while
        a step as long as the last one would end before ``deadline``."""
        while True:
            start = time.perf_counter()
            step()
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break

    def end_to_end(self) -> dict:
        py = sys.executable
        setup, wall, rss = [], [], []
        deadline = time.perf_counter() + self.args.seconds
        for _ in range(SETUP_RUNS):
            sample, scale, _ = self.child([py, str(BENCH / "setup_child.py"), str(self.inputs)], "setup")
            if sample.code == 0:
                setup.append(sample.wall_s * scale)

        def step():
            sample, scale, ok, _ = self.cli([py, "-m", "sewtree.cli"], "cli")
            if ok:
                wall.append(sample.wall_s * scale)
                rss.append(sample.rss_mb)

        self.measure(step, deadline)
        print(f"{len(wall)} cli runs passed; reference job median {median(self.ref_s):.4f} s")
        best = median(wall)
        items = len(self.workload.docs) or self.workload.derivations
        return {"wall_s": best, "setup_s": median(setup),
                "items_per_s": items / best if best else None, "peak_rss_mb": median(rss),
                "ok_frac": 1 - self.failed / self.attempted}

    def per_layer(self) -> dict:
        """Imports of the median ``-X importtime`` run, layers of the traced
        run with the median ``main()``, and the tracing overhead against the
        median untraced ``main()``."""
        py = sys.executable
        traced = str(BENCH / "traced.py")
        report = WORK / "trace.json"
        imports, untraced, runs = [], [], []
        absent: set[str] = set()

        def scaled(values: dict, scale: float) -> dict:
            return {k: v * scale if unit_of(k) in ("s", "ms", "us") else v for k, v in values.items()}

        def step():
            sample, scale, log = self.child([py, "-X", "importtime", "-c", "import sewtree.cli"],
                                            "importtime")
            if sample.code == 0:
                imports.append(scaled(importtime(log), scale))
            sample, scale, ok, _ = self.cli([py, traced, "--trace", "0", "--report", str(report), "--"],
                                            "untraced main")
            if ok:
                untraced.append(json.loads(report.read_text())["main_s"] * scale)
            sample, scale, ok, out = self.cli([py, traced, "--trace", "1", "--report", str(report), "--"],
                                              "traced main")
            if not ok:
                return
            data = json.loads(report.read_text())
            absent.update(data["absent"])
            layers = dict(data["layers"], **{"trace.main_s": data["main_s"]})
            files = [p for p in out.rglob("*") if p.is_file()]
            layers["cli.files_written"] = len(files)
            layers["cli.bytes_written"] = sum(p.stat().st_size for p in files)
            stub = self.stub
            layers["adapter.calls"] = stub.calls if stub else 0
            layers["adapter.retries"] = stub.rejected if stub else 0
            layers["adapter.server_busy_s"] = stub.busy_s if stub else 0.0
            runs.append(scaled(layers, scale))

        self.measure(step, time.perf_counter() + self.args.seconds)
        if absent:
            print(f"absent wrap targets: {sorted(absent)}")
        if not (runs and imports and untraced):
            return {}
        metrics = _median_by(imports, "import.sewtree_cli_s")
        metrics.update(_median_by(runs, "trace.main_s"))
        metrics["trace.overhead_s"] = metrics["trace.main_s"] - median(untraced)
        metrics["trace.absent_targets"] = len(absent)
        metrics["host.reference_s"] = median(self.ref_s)
        return metrics


def _median_by(rows: list[dict], key: str) -> dict:
    """The row whose ``key`` is the (lower) median."""
    return sorted(rows, key=lambda row: row[key])[(len(rows) - 1) // 2]


def load_recorded(workload, problems: list[str]):
    """Values recorded for this workload's inputs, when the seed is the
    recorded one; a changed input digest at that seed is added to
    ``problems``."""
    if not EXPECTED.is_file():
        return None
    data = json.loads(EXPECTED.read_text(encoding="utf-8"))
    entry = data["workloads"].get(workload.name)
    if data["seed"] != workload.seed or entry is None:
        return None
    if entry["inputs_sha256"] != workload.digest:
        problems.append("inputs differ from the recorded ones at the recorded seed")
        return None
    return entry["outputs"]


def record(workload, outputs) -> None:
    data = {"seed": workload.seed, "workloads": {}}
    if EXPECTED.is_file():
        data = json.loads(EXPECTED.read_text(encoding="utf-8"))
        if data["seed"] != workload.seed:
            raise SystemExit(f"{EXPECTED} holds seed {data['seed']}, not {workload.seed}")
    data["workloads"][workload.name] = {"inputs_sha256": workload.digest, "outputs": outputs}
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_gold"):
        return "us"
    if name == "grammar.gold_per_derivation":
        return "ratio"
    return "bytes" if name.endswith("bytes_written") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the sewtree CLI.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's checked outputs as the recorded values for its seed")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "sewtree" / "cli.py").is_file():
        print(f"error: no sewtree sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # One CPU for the benchmark and every child it starts: the adapter
    # stub's request/reply ping-pong then never crosses CPUs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(1, str(REPO / "src"))
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    import checks
    import workloads
    from stub import StubBackend, answers_for

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.generate(args.workload, args.seed)
    generator_problems = workloads.self_check(workload)
    recorded = None if args.record else load_recorded(workload, generator_problems)

    shutil.rmtree(WORK / "inputs", ignore_errors=True)
    inputs = WORK / "inputs" / workload.name
    for rel, data in workload.files.items():
        (inputs / rel).parent.mkdir(parents=True, exist_ok=True)
        (inputs / rel).write_bytes(data)

    bench = Bench(args, workload, checks, recorded)
    for problem in generator_problems:
        bench.attempted += 1
        bench.fail(f"generator: {problem}")
    print("env " + json.dumps(environment(workload), sort_keys=True))
    bench.warm()

    measure = bench.per_layer if args.trace else bench.end_to_end
    if workload.name == "adapter-extract":
        bench.tree_oracle = checks.rule_based_tree_columns(workload)
        with StubBackend(answers_for(workload)) as bench.stub:
            metrics = measure()
    else:
        metrics = measure()

    if args.record:
        if bench.failed or bench.first_output is None:
            print("error: not recording, a check failed", file=sys.stderr)
            return 1
        record(workload, bench.first_output)

    shutil.rmtree(WORK / "out", ignore_errors=True)
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{workload.name} {name} {shown} {unit_of(name)}")
    correct = bench.failed == 0 and all(v is not None for v in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
