"""Span tracer that wraps the package's functions from outside the package.

``Tracer.install()`` replaces every binding of each traced function: the
defining module's attribute, every ``from x import f`` copy in the other
package modules, and module attributes such as ``_backend.mc_max_ratio``
and ``coefficients.linprog``.  Calls through any of them record a span.

Span stacks are per thread, because ``ThreadPoolExecutor.map`` (used by
``verify``) does not carry context into its workers.  Spans are kept in
memory and reduced to per-layer metrics by ``layer_metrics`` when the run
ends.  A span's self time is its duration minus the time its child spans on
the same thread cover.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, span name).  Formatting helpers (fnum, jsonable,
# dumps_structured, ...) are left unwrapped on purpose: their time is the
# cli layer's self time, and wrapping per-element calls would swamp it.
TRACED = [
    ("instances", "load_instance", "instances.load_instance"),
    ("instances", "parse_instance", "instances.parse_instance"),
    ("operators", "validate_markov", "operators.validate_markov"),
    ("operators", "operator_norm", "operators.operator_norm"),
    ("operators", "commutes", "operators.membership"),
    ("operators", "fixes_projection", "operators.membership"),
    ("operators", "sub_projection", "operators.membership"),
    ("operators", "rank_one_projection", "operators.projection"),
    ("operators", "block_projection", "operators.projection"),
    ("operators", "explicit_projection", "operators.projection"),
    ("coefficients", "ergodicity_coefficient", "coefficients.ergodicity_coefficient"),
    ("coefficients", "kernel_ball_vertices", "coefficients.kernel_ball_vertices"),
    ("coefficients", "coefficient_lower_bound", "coefficients.coefficient_lower_bound"),
    ("coefficients", "coefficient_inequalities", "coefficients.coefficient_inequalities"),
    ("coefficients", "eigenvalue_bound_check", "coefficients.eigenvalue_bound_check"),
    ("coefficients", "_lp_polish", "coefficients.polish"),
    ("coefficients", "linprog", "coefficients.linprog"),
    ("_backend", "mc_max_ratio", "backend.mc_max_ratio"),
    ("_backend", "max_pair_half_l1", "backend.max_pair_half_l1"),
    ("spectral", "eigenvalues", "spectral.eigenvalues"),
    ("spectral", "spectral_report", "spectral.spectral_report"),
    ("spectral", "classify", "spectral.classify"),
    ("spectral", "best_rate", "spectral.best_rate"),
    ("spectral", "rate_profile", "spectral.rate_profile"),
    ("spectral", "gelfand_trail", "spectral.gelfand_trail"),
    ("spectral", "multiplicativity_test", "spectral.multiplicativity_test"),
    ("spectral", "spectrum_shift_check", "spectral.spectrum_shift_check"),
    ("spectral", "tensor_rate_bound", "spectral.tensor_rate_bound"),
    ("doeblin", "search_certificates", "doeblin.search_certificates"),
    ("doeblin", "certificate_from_convergence", "doeblin.certificate_from_convergence"),
    ("doeblin", "verify_certificate", "doeblin.verify_certificate"),
    ("doeblin", "overlap_certificate", "doeblin.overlap_certificate"),
    ("verification", "instance_theorems", "verification.instance_theorems"),
    ("verification", "run_verification", "verification.run_verification"),
    ("cli", "main", "cli"),
]

ROUTES = {
    "kernel-vertex-enumeration": "vertices",
    "pair-formula": "pairs",
    "monte-carlo-lower-bound": "mc",
    "identity-convention": "identity",
}

POWER_TRAIL = ("spectral.classify", "spectral.rate_profile",
               "spectral.gelfand_trail", "spectral.multiplicativity_test")


def _key(a) -> int:
    """Content key of an array, so equal matrices built twice count once."""
    return hash(np.ascontiguousarray(a, dtype=float).tobytes())


@dataclass
class Frame:
    name: str
    start: float
    child: float = 0.0
    note: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float, float]] = []
        self.counts: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self.distinct: dict[str, int] = {}
        self.pool_busy = 0.0
        self.pool_wall = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[Frame]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + value

    def _seen(self, layer: str, key) -> None:
        with self._lock:
            self.keys.setdefault(layer, set()).add(key)

    def end_op(self) -> None:
        """Close the per-op distinct-key sets used by the repeat ratios."""
        with self._lock:
            for layer, keys in self.keys.items():
                self.distinct[layer] = self.distinct.get(layer, 0) + len(keys)
            self.keys = {}

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = Frame(name, time.perf_counter())
            tracer._before(frame, stack, args, kwargs)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = time.perf_counter()
                dur = end - frame.start
                if stack:
                    stack[-1].child += dur
                tracer.spans.append(
                    (name, threading.get_ident(), frame.start, end, dur - frame.child)
                )
            tracer._after(frame, stack, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _before(self, frame, stack, args, kwargs) -> None:
        if frame.name == "coefficients.ergodicity_coefficient":
            if any(f.name == "doeblin.search_certificates" for f in stack):
                self._add("doeblin.search.coefficient_calls")

    def _after(self, frame, stack, args, kwargs, result) -> None:
        name = frame.name
        if name == "coefficients.ergodicity_coefficient":
            self._add(f"coefficients.route.{ROUTES.get(result.method, 'other')}.calls")
            if not result.certified_exact and result.upper_bound != float("inf"):
                width = float(result.upper_bound - result.value)
                with self._lock:
                    old = self.counts.get("coefficients.bracket_width.max", 0.0)
                    self.counts["coefficients.bracket_width.max"] = max(old, width)
        elif name == "coefficients.kernel_ball_vertices":
            P = args[0] if args else kwargs.get("P")
            space = args[1] if len(args) > 1 else kwargs.get("space")
            space = space if space is not None else P.space
            key = (space.kind, space.dim, space.inner_ball,
                   None if P is None else (P.variant, _key(P.matrix)))
            self._seen(name, key)
            self._add(f"{name}.rows", len(result))
        elif name == "coefficients.coefficient_lower_bound":
            mc = frame.note.get("mc")
            if mc is not None and kwargs.get("polish", True):
                self._add("coefficients.polish.bounds")
                if result.value > mc:
                    self._add("coefficients.polish.improved")
        elif name == "backend.mc_max_ratio":
            TK, Z = args[0], args[2]
            m, n = Z.shape
            self._add(f"{name}.samples", m)
            # computed, not counted by hardware: two (m x n)(n x n) products,
            # then |.| and row sums of both images
            self._add(f"{name}.computed_flop", 4.0 * m * n * n + 4.0 * m * n)
            for f in reversed(stack):
                if f.name == "coefficients.coefficient_lower_bound":
                    if result[1] >= 0:
                        f.note["mc"] = result[0]
                    break
        elif name == "backend.max_pair_half_l1":
            k = len(args[0])
            self._add(f"{name}.pairs", k * (k - 1) // 2)
        elif name == "spectral.eigenvalues":
            self._seen(name, _key(args[0]))

    def wrap_pool(self, fn):
        """Wrap ``verification._parallel_map`` to time busy against wall."""
        tracer = self

        def parallel_map(work, items):
            def timed(item):
                t0 = time.perf_counter()
                try:
                    return work(item)
                finally:
                    busy = time.perf_counter() - t0
                    with tracer._lock:
                        tracer.pool_busy += busy

            t0 = time.perf_counter()
            try:
                return fn(timed, items)
            finally:
                with tracer._lock:
                    tracer.pool_wall += time.perf_counter() - t0

        return parallel_map

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import ergokit.cli  # noqa: F401  (cli is not imported by the package)

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "ergokit" or name.startswith("ergokit.")}
        for modname, attr, span in TRACED:
            orig = getattr(mods[f"ergokit.{modname}"], attr)
            self._rebind(mods, orig, self.wrap(orig, span))
        verification = mods["ergokit.verification"]
        self._rebind(mods, verification._parallel_map,
                     self.wrap_pool(verification._parallel_map))
        checks = tuple((name, self.wrap(fn, f"verification.check.{name}"))
                       for name, fn in verification.CHECKS)
        self._patched.append((verification, "CHECKS", verification.CHECKS))
        verification.CHECKS = checks

    def _rebind(self, mods, orig, replacement) -> None:
        hits = 0
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patched.append((mod, name, orig))
                    setattr(mod, name, replacement)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no binding of {orig!r} found to trace")

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched = []


# ---------------------------------------------------------------------------
# reduction to per-layer metrics


def layer_metrics(tracer: Tracer, ops: int, check_names, spec: list[dict],
                  extra: dict) -> dict:
    """Per-layer metrics, per op where the unit says so, in ``spec`` order.

    ``extra`` holds values measured outside the spans (the tracing overhead).
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    for name, _tid, start, end, self_s in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_t[name] = self_t.get(name, 0.0) + self_s
    c = tracer.counts
    per = 1.0 / max(ops, 1)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    mc_s = total.get("backend.mc_max_ratio", 0.0)
    values = {
        "spectral.power_trail.self_ms": 1e3 * per * sum(self_t.get(n, 0.0) for n in POWER_TRAIL),
        "coefficients.kernel_ball_vertices.repeat_ratio": ratio(
            calls.get("coefficients.kernel_ball_vertices", 0),
            tracer.distinct.get("coefficients.kernel_ball_vertices", 0)),
        "spectral.eigenvalues.repeat_ratio": ratio(
            calls.get("spectral.eigenvalues", 0), tracer.distinct.get("spectral.eigenvalues", 0)),
        "coefficients.polish.improved_share": ratio(
            c.get("coefficients.polish.improved", 0.0), c.get("coefficients.polish.bounds", 0.0)),
        "backend.mc_max_ratio.computed_gflop_per_s": ratio(
            1e-9 * c.get("backend.mc_max_ratio.computed_flop", 0.0), mc_s),
        "verification.pool.effective_workers": ratio(tracer.pool_busy, tracer.pool_wall),
        "coefficients.bracket_width.max": c.get("coefficients.bracket_width.max", 0.0),
        **extra,
    }
    for check in check_names:
        values[f"verification.check.{check}.ms"] = 1e3 * per * total.get(
            f"verification.check.{check}", 0.0)
    out = {}
    for m in spec:
        name = m["name"]
        if name in values:
            v = values[name]
        elif name in c:
            v = per * c[name]
        else:
            layer, stat = name.rsplit(".", 1)
            if stat == "calls":
                v = per * calls.get(layer, 0)
            elif stat == "ms":
                v = 1e3 * per * total.get(layer, 0.0)
            elif stat == "self_ms":
                v = 1e3 * per * self_t.get(layer, 0.0)
            else:
                v = 0.0  # a count that never fired in this run
        out[name] = {"value": float(v), "unit": m["unit"]}
    return out
