"""Benchmark of the exact pipeline: certify, facets and cli workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Every workload is one client in a closed loop, in one worker
process started fresh by this script; the library sees only the generated
inputs.  With --trace 0 the last stdout line holds the end-to-end metrics,
with --trace 1 the per-layer metrics (see BENCHMARK.json for names and
units).  The line before it holds the run context: machine, versions,
source digest, seed, op counts, tail percentile, failure ratio, and, for
certify, the capability probe outcome.  Exit code 0 only when a result
was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "facets", "cli")

SETUP_SAMPLES_BEFORE = 2  # set-up-only launches before the measured run's own
SETUP_SAMPLES_MIN = 7
SAMPLE_EVERY_S = 6.0  # least time between set-up samples inside the loop

# Host speed.  On a shared 2-vCPU Intel Xeon virtual machine, other
# tenants' load changed the speed of the same Python code by up to 2x, in
# spells of a fraction of a second to minutes; run-to-run spread of raw
# wall times was 8-40% (quartile distance over median, five to ten seeds),
# the same for 20, 36 and 60 s runs.  So each op time is scaled to a
# reference speed: multiplied by REFERENCE_NOMINAL_S over the mean time of
# reference() run just before and just after that op.  This process runs
# the reference while the worker waits between ops, on the same CPU (this
# process and every process it starts are pinned to one), and never
# imports the library, so the scale follows the machine and not the code
# under test.  Set-up samples are scaled the same way, by references run
# just before and after each launch.  On that machine, per-op scaling cut
# the spread of five seeds from 27-39% to 6-12% on facets and from 8-9%
# to 2-6% on cli; one scale per run had left 7-11% and 15-20%.
REFERENCE_NOMINAL_S = 0.060
REFERENCE_SAMPLES_MIN = 15
IMPORT_SAMPLES = 5
READY_TIMEOUT_S = 60
PROBE_TIMEOUT_S = 60
PROBE_ADDRESS_SPACE = 4 << 30


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env.pop("CAUSAL_TRANSFER_CAP", None)  # the library's default cap only
    env["PYTHONHASHSEED"] = "0"
    return env


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise BenchError(f"no output from worker within {timeout} s")
    return proc.stdout.readline()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def launch(args, mode: str, workdir: Path, env: dict):
    """Start a worker and wait for its ready line; returns (proc, setup_s)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--workdir", str(workdir),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE
    )
    try:
        line = _read_line(proc, READY_TIMEOUT_S)
    except BaseException:
        _stop(proc)
        raise
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup_s


def drive(proc: subprocess.Popen, timeout: float, at_pause=None) -> dict:
    """Send go, answer each "pause", and return the worker's result."""
    deadline = time.monotonic() + timeout
    try:
        while True:
            proc.stdin.write("go\n")
            proc.stdin.flush()
            line = _read_line(proc, max(deadline - time.monotonic(), 0))
            if line.strip() != "pause":
                break
            if at_pause is not None:
                at_pause()
        proc.stdin.close()
        proc.wait(timeout=max(deadline - time.monotonic(), 1))
    except BaseException:
        _stop(proc)
        raise
    if proc.returncode != 0 or not line.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(line)


def setup_only(args, workdir: Path, env: dict) -> float:
    proc, setup_s = launch(args, "setup", workdir, env)
    try:
        proc.communicate(timeout=READY_TIMEOUT_S)
    except BaseException:
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"setup-only worker exited with {proc.returncode}")
    return setup_s


def reference() -> float:
    """Seconds taken by a fixed exact-arithmetic computation: a harmonic sum
    and a 24 x 24 Gauss-Jordan elimination over Fractions."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 2500):
        total += Fraction(1, k)
    n = 24
    m = [
        [Fraction((i * 7 + j * 3) % 11 + (i == j) * 5, 1 + (i + j) % 4) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = m[c][c]
        m[c] = [v / pivot for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                factor = m[r][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[c])]
    return time.perf_counter() - t0


def tail(durations: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten ops beyond it, and its
    nearest-rank value; the maximum when no such percentile reaches the
    median (fewer than 20 ops)."""
    n = len(durations)
    ordered = sorted(durations)
    if n < 20:
        return 100, ordered[-1]
    p = 100 * (n - 10) // n
    return p, ordered[max(math.ceil(p * n / 100), 1) - 1]


def probe(env: dict) -> dict:
    """Untimed 4-setting certification at the default cap, address space
    limited so a regression that enumerates cannot exhaust memory."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (PROBE_ADDRESS_SPACE, PROBE_ADDRESS_SPACE))

    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py")], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, preexec_fn=limit,
        )
    except subprocess.TimeoutExpired:
        return {"outcome": "timeout", "seconds": PROBE_TIMEOUT_S}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"outcome": "error", "exit": proc.returncode, "stderr": proc.stderr[-300:]}


def import_times(env: dict) -> dict:
    """Medians of `python -X importtime` cumulative times and of a bare
    interpreter start."""
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")
    per_module: dict[str, list[float]] = {"causal_transfer": [], "numpy": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import causal_transfer"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=READY_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError("import causal_transfer failed")
        for line in proc.stderr.splitlines():
            m = pattern.match(line)
            if m and m.group(2) in per_module:
                per_module[m.group(2)].append(int(m.group(1)) / 1e3)
    bare = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True,
                       timeout=READY_TIMEOUT_S)
        bare.append((time.perf_counter() - t0) * 1e3)
    return {
        "import.causal_transfer_ms": statistics.median(per_module["causal_transfer"]),
        # 0 once the library no longer imports numpy at all.
        "import.numpy_ms": statistics.median(per_module["numpy"] or [0.0]),
        "cli.interpreter_ms": statistics.median(bare),
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def package_version(name: str) -> str | None:
    """Installed version, read without importing the package."""
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_context(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "causal_transfer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def latency_metrics(durations: list[float], ok: list[bool]) -> tuple[dict, int]:
    """Throughput, median and tail of one loop's op times, and the tail's
    percentile."""
    percentile, tail_s = tail(durations)
    return {
        "ops_per_s": sum(ok) / sum(durations),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_tail_ms": tail_s * 1e3,
    }, percentile


def measure(args, workdir: Path, env: dict) -> tuple[dict, dict, int, int]:
    """End-to-end run: returns (metrics, extra context, attempted, failed)."""
    refs: list[float] = []

    def ref() -> float:
        refs.append(reference())
        return refs[-1]

    def scale(before: float, after: float) -> float:
        return REFERENCE_NOMINAL_S * 2 / (before + after)

    raw_setups: list[float] = []
    setups: list[float] = []
    # Reference times at each pause of the timed loop: (just after the
    # previous op, just before the next one).
    bounds: list[tuple[float, float]] = []
    last = time.monotonic()

    def record_setup(setup_s: float, before: float, after: float) -> None:
        nonlocal last
        raw_setups.append(setup_s)
        setups.append(setup_s * scale(before, after))
        last = time.monotonic()

    def sample() -> tuple[float, float]:
        before = ref()
        setup_s = setup_only(args, workdir, env)
        after = ref()
        record_setup(setup_s, before, after)
        return before, after

    def at_pause():
        if time.monotonic() - last >= SAMPLE_EVERY_S:
            bounds.append(sample())
        else:
            r = ref()
            bounds.append((r, r))

    setup_only(args, workdir, env)  # fills bytecode caches; not counted
    for _ in range(SETUP_SAMPLES_BEFORE):
        sample()
    before = ref()
    proc, setup_s = launch(args, "run", workdir, env)
    record_setup(setup_s, before, ref())
    # More set-up samples between ops of the timed loop, while the worker
    # is idle, so that their median covers the whole run.
    out = drive(proc, args.seconds * 3 + 60, at_pause)
    while len(setups) < SETUP_SAMPLES_MIN:
        sample()

    durations, ok = out["durations"], out["ok"]
    if len(bounds) != len(durations) + 1:
        raise BenchError(f"{len(bounds)} pauses around {len(durations)} ops")
    scales = [scale(b[1], a[0]) for b, a in zip(bounds, bounds[1:])]
    metrics, percentile = latency_metrics([d * k for d, k in zip(durations, scales)], ok)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = out["peak_rss_mb"]
    raw, _ = latency_metrics(durations, ok)
    raw["setup_s"] = statistics.median(raw_setups)

    # Warm-up ops are untimed but checked like the others.
    attempted = len(ok) + out["warmup"]["ops"]
    failed = len(ok) - sum(ok) + out["warmup"]["failed"]
    extra = {
        "ops": len(ok),
        "warmup_ops": out["warmup"]["ops"],
        "cycles": out["cycles"],
        "ops_per_cycle": out["cycle"],
        "loop_s": out["loop_s"],
        "tail_percentile": percentile,
        "tail_samples": len(ok),
        "fail_ratio": failed / attempted,
        "setup_samples_s": raw_setups,
        "unscaled": raw,
        "reference": {
            "median_s": statistics.median(refs),
            "samples": len(refs),
            "op_scale_median": statistics.median(scales),
        },
        "errors": out["errors"],
    }
    if "verdicts" in out:
        v = out["verdicts"]
        extra["verdicts"] = {
            "weak_signal": v.count("W"), "local": v.count("L"),
            "sha256": hashlib.sha256(v.encode()).hexdigest()[:16],
        }
    return metrics, extra, attempted, failed


def measure_traced(args, workdir: Path, env: dict) -> tuple[dict, dict, int, int]:
    """Traced run; times are scaled to the reference speed by one scale,
    from the reference sampled before and after the worker runs."""
    half = REFERENCE_SAMPLES_MIN // 2 + 1
    refs = [reference() for _ in range(half)]
    proc, _ = launch(args, "trace", workdir, env)
    out = drive(proc, args.seconds * 2 + 60)
    metrics = dict(out["metrics"])
    metrics.update(import_times(env))
    refs += [reference() for _ in range(half)]
    scale = REFERENCE_NOMINAL_S / statistics.median(refs)
    for name in metrics:
        if name.endswith("_ms"):
            metrics[name] *= scale
    extra = {
        "ops": out["ops"],
        "reference": {"samples": len(refs), "scale": scale},
        "errors": out["errors"],
    }
    return metrics, extra, out["attempted"], out["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec_path = ROOT / "BENCHMARK.json"
    for needed in (SRC / "causal_transfer" / "__init__.py", spec_path):
        if not needed.is_file():
            print(f"error: {needed} is missing", file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    # Turn a termination request into an exception, so that every worker
    # is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    # One CPU for this process and every process it starts, so that the
    # reference runs at the speed the ops ran at.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        run = measure_traced if args.trace else measure
        metrics, extra, attempted, failed = run(args, workdir, env)
        if args.workload == "certify":
            extra["probe"] = probe(env)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    correct = failed == 0 and attempted > 0
    if args.trace and args.workload in ("certify", "facets"):
        # Trace coverage: the wrapped layers must account for the op time.
        correct = correct and metrics["trace.coverage"] >= 0.9
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    context = run_context(args)
    print(json.dumps({"context": context, **extra}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
