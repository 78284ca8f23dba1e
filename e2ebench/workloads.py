"""The three workloads: their inputs, one op each, and the checks on its output.

Each workload is a closed loop with one client: the next op starts when the
previous one returned.  ``call`` is the timed part and goes through the
package's public API or ``ergokit.cli.main`` in-process; ``check`` is
untimed and turns the raw output into an ``Outcome``.

Why each workload, and which layers it should load:

analyze-mix
    ``analyze --format structured`` over the fixtures, Dirichlet rank-one
    chains (n = 10, 30, 100), block chains, a block projection written as a
    matrix under (n = 10) and past (n = 13) the enumeration cap, and
    embedded linf (m = 6..12) and l1 (m = 20) spaces.  Loads parsing,
    operator norms, kernel-vertex enumeration, eigenvalues, the power trail
    and the theorem scoreboard; the Monte-Carlo kernel runs only on the
    13-state matrix case, and the certificate search never runs.
oracle-mc
    The acceptance gate's oracle loop widened to dims 2..10: the exact
    coefficient and a 100 000-sample Monte-Carlo lower bound per op.  Loads
    the sampling kernel and the LP polish; enumeration is closed form here.
verify-corpus
    ``verify --dims 2..10 --count 2`` on 12 corpora: the only concurrent
    path (the two-worker pool of three checks), the only caller of
    ``tensor_rate_bound``, and many tiny instances, so per-call overhead
    weighs more than in analyze-mix.  It also carries the doeblin layer: the
    certificate search on non-mixing chains, and certificates built from
    convergence and audited.

A fourth workload, ``doeblin`` at the default cap of 200 powers, was
measured and left out: on a 2-CPU host the quartile distance of its ops/s
and median latency across runs often exceeded a quarter of the median, the
largest bound a metric may have (see README.md).
"""

from __future__ import annotations

import io
import json
import os
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import ergokit
import inputs
from ergokit import cli
from ergokit.verification import CHECK_NAMES

ORACLE_TOL = 1e-4  # the acceptance gate's slack tolerance
ORDER_EPS = 1e-12  # a lower bound may exceed the exact value by rounding only
ORACLE_SAMPLES = 100_000
# The one verify check whose slack beyond ORACLE_TOL is a known defect of the
# oracle, not of the program: it is counted in tight_share, while a bound
# above the exact value still fails the op.
SLACK_CHECK = "mc-lower-bound"
# verify-corpus cycles through this many corpora, seeded from the run's seed,
# so that its time does not hang on one draw
CORPORA = 12


@dataclass
class Outcome:
    """What one op produced, after its checks."""

    text: str
    problems: list[str] = field(default_factory=list)
    attempted: int = 1
    exact: tuple[int, int] = (0, 0)  # (certified exact, coefficients reported)
    tight: tuple[int, int] = (0, 0)  # (within ORACLE_TOL, lower bounds reported)

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.problems))


def invoke(argv: list[str]) -> tuple[int, str, str]:
    """``ergokit.cli.main`` in-process, looked up at call time (so traced)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _parse(rc: int, out: str, err: str, want_rc=(0,)):
    if rc not in want_rc:
        return None, [f"exit code {rc}: {err.strip()[:200]}"]
    try:
        return json.loads(out), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


class FileWorkload:
    """A workload whose inputs are instance files written to ``workdir``."""

    command = ""

    def __init__(self, docs: list[tuple[str, dict]], workdir: str, warmup: int):
        self.cases = []
        for label, doc in docs:
            path = os.path.join(workdir, f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.cases.append((label, path))
        self.warmup = self.cases[:warmup]

    def call(self, path):
        return invoke([self.command, "--format", "structured", path])


class AnalyzeMix(FileWorkload):
    name = "analyze-mix"
    command = "analyze"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        docs = inputs.analyze_mix(seed)
        if tiny:
            keep = {"two-state", "embedded-half", "dirichlet-10", "block-4+4+4", "linf-6"}
            docs = [d for d in docs if d[0].split(".")[0] in keep]
        super().__init__(docs, workdir, warmup=4)
        self.expect_uniform = True  # every generated chain is uniformly ergodic

    def check(self, label, raw) -> Outcome:
        doc, problems = _parse(*raw)
        if doc is None:
            return Outcome(raw[1], problems)
        verdict = doc["verdict"]
        if verdict["consistent"] is not True:
            problems.append("verdict clauses disagree")
        if verdict["uniform"] is not self.expect_uniform:
            problems.append(f"uniform = {verdict['uniform']}, expected {self.expect_uniform}")
        problems += [f"theorem {t['name']} failed" for t in doc["theorems"] if not t["ok"]]
        cert = doc["certificate"]
        if "audit_ok" in cert and cert["audit_ok"] is not True:
            problems.append(f"certificate audit failed: {cert['audit_violations']}")
        coefs = doc["coefficients"].values()
        exact = sum(1 for c in coefs if c["certified_exact"] is True)
        return Outcome(raw[1], problems, exact=(exact, len(doc["coefficients"])))


class OracleMC:
    name = "oracle-mc"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        docs = inputs.oracle_mc(seed, dims=range(2, 5), per_dim=3) if tiny else inputs.oracle_mc(seed)
        # parsing is set-up here: this workload isolates the oracle layers
        self.cases = [(label, (k, ergokit.parse_instance(json.dumps(doc))))
                      for k, (label, doc) in enumerate(docs)]
        self.warmup = self.cases[:3]

    def call(self, payload):
        k, inst = payload
        exact = ergokit.ergodicity_coefficient(inst.operator, inst.projection)
        low = ergokit.coefficient_lower_bound(
            inst.operator, inst.projection, samples=ORACLE_SAMPLES, seed=k
        )
        return exact, low

    def check(self, label, raw) -> Outcome:
        exact, low = raw
        text = f"{exact.value!r} {exact.method} {low.value!r}\n"
        problems = []
        if not exact.certified_exact:
            problems.append(f"exact route gave a bracket ({exact.method})")
        if low.value > exact.value + ORDER_EPS:
            problems.append(f"lower bound {low.value!r} above exact {exact.value!r}")
        tight = int(exact.value - low.value <= ORACLE_TOL)
        return Outcome(text, problems, exact=(int(exact.certified_exact), 1), tight=(tight, 1))


class VerifyCorpus:
    name = "verify-corpus"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        dims, count = ("2..4", "2") if tiny else ("2..10", "2")
        self.cases = [
            (f"verify.{k}", ["verify", "--format", "structured", "--seed", str(CORPORA * seed + k),
                             "--dims", dims, "--count", count])
            for k in range(CORPORA)
        ]
        self.warmup = [("verify-warmup", ["verify", "--format", "structured", "--seed",
                                          str(seed), "--dims", "2..3", "--count", "1"])]

    def call(self, argv):
        return invoke(argv)

    def check(self, label, raw) -> Outcome:
        doc, problems = _parse(*raw, want_rc=(0, 1))
        if doc is None:
            return Outcome(raw[1], problems, attempted=len(CHECK_NAMES))
        checks = doc["checks"]
        if [c["name"] for c in checks] != list(CHECK_NAMES):
            problems.append("checks missing or out of order")
        if raw[0] != (0 if doc["all_ok"] else 1) or doc["all_ok"] != all(c["ok"] for c in checks):
            problems.append(f"exit code {raw[0]} disagrees with all_ok = {doc['all_ok']}")
        tight = (0, 0)
        for c in checks:
            if c["name"] == SLACK_CHECK:
                tight = (c["passed"], c["passed"] + c["failed"])
                unsound = [m for m in c["messages"] if "slack" not in m]
                problems += [f"{SLACK_CHECK}: {m}" for m in unsound]
                if c["passed"] == 0:
                    problems.append(f"{SLACK_CHECK}: no case passed")
            elif not c["ok"]:
                problems.append(f"{c['name']}: {c['messages'][:2]}")
        return Outcome(raw[1], problems, attempted=len(checks), tight=tight)


WORKLOADS = {w.name: w for w in (AnalyzeMix, OracleMC, VerifyCorpus)}


def run_op(workload, label, payload, clock) -> tuple[float, Outcome]:
    """Time one call; exceptions and failed checks become problems."""
    t0 = clock()
    try:
        raw = workload.call(payload)
    except Exception:  # an op that raises is a failed op, not a dead run
        dt = clock() - t0
        return dt, Outcome("", [traceback.format_exc(limit=3)])
    dt = clock() - t0
    try:
        return dt, workload.check(label, raw)
    except (KeyError, TypeError) as exc:
        return dt, Outcome("", [f"malformed output: {exc!r}"])
