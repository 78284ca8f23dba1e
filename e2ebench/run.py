"""End-to-end benchmark of ergokit; see README.md beside this file.

    python3 e2ebench/run.py --workload analyze-mix --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src`` with no
install step.  With ``--trace 0`` the last line of stdout is a JSON object
holding every end-to-end metric of BENCHMARK.json, with every time scaled
to reference speed (reference.py); with ``--trace 1`` the run spends half
its time untraced and half traced, and the object holds every per-layer
metric plus the tracing overhead.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before NumPy loads, so verify's two pool workers
# are the only parallelism and never exceed a 2-CPU host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from reference import reference, reference_burst, scaled  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".e2ebench_work")
# import probes per run, spread over the measured time so that their median
# sees the same phases of the host as the ops do
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ergokit; "
    "print(time.perf_counter() - t)"
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Seconds to ``import ergokit`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    import ergokit

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # the checkout may not be a git repository
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "ergokit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": ergokit.BACKEND,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": commit,
        "source_sha256": src.hexdigest(),  # names the code where there is no commit
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Run:
    """What the ops of one mode (untraced or traced) gave.

    Times are kept as measured on the wall clock and, for the metrics,
    scaled to reference speed (see reference.py).
    """

    def __init__(self, workload):
        self.labels = [label for label, _ in workload.cases]
        self.ops: list[tuple[str, float]] = []  # (case, wall seconds), in run order
        # bursts of reference times; refs[j] ran just before op j
        self.refs: list[list[float]] = []
        self.first: dict[str, object] = {}  # each case's first Outcome
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[tuple[float, float]] = []  # (wall, scaled) import seconds

    def by_case(self, scale: bool = True) -> dict[str, list[float]]:
        """Each case's op times.  Op ``j`` is scaled by the median of the two
        bursts of reference times before it and the two after it."""
        out: dict[str, list[float]] = {label: [] for label in self.labels}
        for j, (label, dt) in enumerate(self.ops):
            refs = [r for burst in self.refs[max(j - 1, 0):j + 3] for r in burst]
            out[label].append(scaled(dt, refs) if scale else dt)
        return out

    def latencies(self, scale: bool = True) -> list[float]:
        return [dt for v in self.by_case(scale).values() for dt in v]

    def ops_per_s(self, scale: bool = True) -> float:
        """Ops per second at a mix of one op per case, from each case's mean
        time: the mix stays exact wherever the clock ran out."""
        return len(self.labels) / sum(statistics.fmean(v) for v in self.by_case(scale).values())

    def op_p50_ms(self, scale: bool = True) -> float:
        """The median op time.  Each workload's mix is built so that the
        middle of its op times holds many ops of similar time, not a gap
        between two cases."""
        return 1e3 * statistics.median(self.latencies(scale))

    def setup_s(self, scale: bool = True) -> float:
        return statistics.median(p[1] if scale else p[0] for p in self.setup)

    def share(self, field: str) -> float:
        """A share over one op per case; a workload whose outputs carry no value
        of the kind has nothing inexact or slack to report (see README.md)."""
        a, b = self.count(field)
        return a / b if b else 1.0

    def count(self, field: str) -> tuple[int, int]:
        pairs = [getattr(self.first[c], field) for c in self.labels]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)

    @property
    def digest(self) -> str:
        """sha256 over every case's structured output, in case order."""
        h = hashlib.sha256()
        for label in self.labels:
            h.update(f"{label}\n{self.first[label].text}\n".encode())
        return h.hexdigest()


def probe_setup() -> tuple[float, float]:
    """One import probe, wall and scaled by three reference times on each side."""
    before = [reference() for _ in range(3)]
    wall = measure_setup()
    return wall, scaled(wall, before + [reference() for _ in range(3)])


def measure(workload, seconds: float, tracer=None, setup_probes: int = 0) -> Run:
    """Passes over the workload's cases until ``seconds`` of ops are spent.

    At least one whole pass runs, so every case has a time.  A burst of
    reference times is taken before each op and after the last.
    ``setup_probes`` import probes are spread over the ops; their time is
    not counted in ``seconds``.
    """
    from workloads import run_op

    clock = time.perf_counter
    cases = workload.cases
    run = Run(workload)
    start = clock()
    paused = 0.0
    done = 0
    while True:
        busy = clock() - start - paused
        if done >= len(cases) and busy >= seconds:
            break
        if len(run.setup) < setup_probes and busy >= len(run.setup) * seconds / setup_probes:
            t0 = clock()
            run.setup.append(probe_setup())
            paused += clock() - t0
        label, payload = cases[done % len(cases)]
        done += 1
        run.refs.append(reference_burst(run.ops[-1][1] if run.ops else 0.0))
        dt, out = run_op(workload, label, payload, clock)
        if tracer is not None:
            tracer.end_op()
        run.ops.append((label, dt))
        run.attempted += out.attempted
        run.failed += out.failed
        run.problems += [f"{label}: {p}" for p in out.problems]
        if label not in run.first:
            run.first[label] = out
        elif out.text != run.first[label].text:
            run.problems.append(f"{label}: structured output differs between its ops")
            run.failed += 1
    run.refs.append(reference_burst(run.ops[-1][1]))
    while len(run.setup) < setup_probes:
        run.setup.append(probe_setup())
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few small cases (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ergokit", "__init__.py")):
        print(f"error: no ergokit package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from tracer import Tracer, layer_metrics
    from workloads import SLACK_CHECK, WORKLOADS, run_op

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()

    from ergokit.verification import CHECK_NAMES

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
        for label, payload in workload.warmup:  # lazy imports, first-call set-up
            run_op(workload, label, payload, time.perf_counter)
            reference()
        if args.trace:
            plain = measure(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            runs = [plain, traced]
        else:
            plain = measure(workload, args.seconds, setup_probes=SETUP_REPEATS)
            runs = [plain]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it

    problems = [p for r in runs for p in r.problems]
    failed = sum(r.failed for r in runs)
    if len({r.digest for r in runs}) > 1:
        problems.append("structured output differs between the untraced and traced ops")
        failed += 1
    for p in problems[:10]:
        print(f"problem {p}")
    print(f"digest {args.workload} {runs[0].digest}")
    lat = sorted(plain.latencies())
    print(f"ops {len(lat)} over {len(plain.labels)} cases (op_p50_ms is their median)")
    if len(lat) >= 100:
        print(f"op_p90_ms {1e3 * statistics.quantiles(lat, n=10)[-1]:.4f}")
    wall = f"wall clock, unscaled: ops_per_s {plain.ops_per_s(False):.4f} " \
        f"op_p50_ms {plain.op_p50_ms(False):.4f}"
    if plain.setup:
        wall += f" setup_s {plain.setup_s(False):.4f}"
    refs = [r for burst in plain.refs for r in burst]
    print(wall + f"; reference median {1e3 * statistics.median(refs):.4f} ms")
    if args.workload == "verify-corpus":
        a, b = plain.count("tight")
        print(f"known defect: {SLACK_CHECK} slack beyond 1e-4 in {b - a} of {b} cases "
              f"over {len(plain.labels)} corpora, counted in tight_share")

    if args.trace:
        overhead = {
            "trace.untraced_ops_per_s": plain.ops_per_s(),
            "trace.traced_ops_per_s": traced.ops_per_s(),
            "trace.overhead_share": 1.0 - traced.ops_per_s() / plain.ops_per_s(),
        }
        metrics = layer_metrics(tracer, len(traced.ops), CHECK_NAMES,
                                spec["per_layer"], overhead)
    else:
        values = {
            "setup_s": plain.setup_s(),
            "ops_per_s": plain.ops_per_s(),
            "op_p50_ms": plain.op_p50_ms(),
            "exact_share": plain.share("exact"),
            "tight_share": plain.share("tight"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
