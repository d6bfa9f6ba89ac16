"""In-memory spans around calls into fiberquant's layers, patched from outside.

Each traced entry point is replaced, in the module where its caller looks
the name up, by a wrapper that records a span (name, start, end, parent,
run id).  Nothing inside the package changes.  Self time of a span is its
duration minus the time its direct child spans cover; calls run on one
thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name).  The same function is patched at every
# lookup site that a caller uses; "fiberquant.transport" must be reached
# as a module because the package attribute of that name is the function.
SPAN_SITES = [
    ("fiberquant.scenario", "Scenario.build_context", "scenario.build_context"),
    ("fiberquant.cli", "run_command", "cli.run_command"),
    *[("fiberquant.verify", f"suite_{s}", f"verify.suite_{s}")
      for s in ("orbit", "fiber", "gauge", "transport")],
    *[(m, f, "gauge.model_build")
      for m in ("fiberquant.scenario", "fiberquant.verify")
      for f in ("trivial_model", "constant_model", "monopole_model", "pure_gauge_model")],
    *[(m, "build_basis", "fiberq.build_basis")
      for m in ("fiberquant.scenario", "fiberquant.gauge", "fiberquant.verify", "fiberquant.cli")],
    *[(m, "build_rep", "gauge.build_rep")
      for m in ("fiberquant.scenario", "fiberquant.gauge", "fiberquant.verify")],
    *[(m, "polarization_residual", "fiberq.polarization_residual")
      for m in ("fiberquant.gauge", "fiberquant.verify")],
    *[(m, "prequant_matrix", "fiberq.prequant_matrix")
      for m in ("fiberquant.gauge", "fiberquant.verify", "fiberquant.cli")],
    *[(m, "quantize_transition", "fiberq.quantize_transition")
      for m in ("fiberquant.gauge", "fiberquant.transport", "fiberquant.verify", "fiberquant.cli")],
    *[(m, "connection_quadrature", "gauge.connection_quadrature")
      for m in ("fiberquant.gauge", "fiberquant.transport", "fiberquant.verify", "fiberquant.cli")],
    ("fiberquant.transport", "connection_rep_batch", "gauge.connection_rep_batch"),
    ("fiberquant.verify", "gauge_residual", "gauge.gauge_residual"),
    *[(m, "transport", "transport.transport")
      for m in ("fiberquant.transport", "fiberquant.verify", "fiberquant.cli")],
    ("fiberquant.verify", "covariant_residual_total_space",
     "transport.covariant_residual_total_space"),
]

# Per-node orbit kernels called from the quadrature loops: counted, not
# spanned, because there are hundreds of thousands of calls per run.
COUNT_SITES = [
    ("fiberquant.fiberq", "hamiltonian_field_complex", "orbit.pointwise_calls"),
    ("fiberquant.fiberq", "theta_dz", "orbit.pointwise_calls"),
]


def flops_per_step(n: int) -> int:
    """Computed flops of one rep-route RK4 step on n x n complex matrices.

    Four complex matmuls (three stage products, one ordered-product
    factor) at 8 n^3 real flops each; 26 n^2 for the stage and step-map
    combinations; 24 n^2 for contracting two connection nodes with the
    three generator matrices.
    """
    return 32 * n**3 + 50 * n**2


def bytes_per_step(n: int) -> int:
    """Computed bytes moved by one RK4 step, ignoring caches.

    47 complex128 matrix reads or writes: 24 in the three stages, 18 in the
    step-map combination, 3 in the ordered product and 2 connection nodes.
    """
    return 47 * 16 * n**2


def _rk4_tally(model, rep, chart, q, dq):
    """Steps, flops and bytes of one connection_rep_batch chunk."""
    steps = (len(q) - 1) // 2
    n = model.spec.dim
    return {
        "transport.rk4_steps": steps,
        "transport.flops": steps * flops_per_step(n),
        "transport.bytes": steps * bytes_per_step(n),
    }


# Extra counts taken at one lookup site: (module, attribute) -> tally(args).
TALLIES = {
    ("fiberquant.transport", "connection_rep_batch"): _rk4_tally,
    ("fiberquant.transport", "quantize_transition"):
        lambda *args, **kwargs: {"transport.chart_crossings": 1},
}


def _resolve(module_name: str, attr_path: str):
    """The object that holds the last name of ``attr_path`` and that name."""
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(sites, wrap):
    """Replace each site's name by ``wrap(*site, original)`` until exit.

    Yields the sites whose name does not exist; they are left alone.
    """
    saved, missing = [], []
    try:
        for site in sites:
            module_name, attr_path = site[0], site[1]
            try:
                owner, attr = _resolve(module_name, attr_path)
                original = getattr(owner, attr)
            except AttributeError:
                missing.append(f"{module_name}.{attr_path}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(*site, original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Spans and counts of one benchmark process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()  # (run id, name) -> count
        self.run = "setup"
        self.missing: list[str] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, tally=None):
        def traced(*args, **kwargs):
            if tally is not None:
                for key, amount in tally(*args, **kwargs).items():
                    self.counts[(self.run, key)] += amount
            rec = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, self.run]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[(self.run, name)] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def patched(self):
        """Install every wrapper; restore the original names on exit.

        A site whose name no longer exists is skipped and listed in
        ``missing``, so that its layer reads zero calls.
        """
        def wrap(module_name, attr_path, name, original):
            if (module_name, attr_path, name) in COUNT_SITES:
                return self.counter(name, original)
            return self.span(name, original, TALLIES.get((module_name, attr_path)))

        with patched(SPAN_SITES + COUNT_SITES, wrap) as missing:
            self.missing = missing
            yield self

    def layer_times(self, setup: bool) -> dict:
        """name -> {calls, total_s, self_s} over set-up or over the run phase."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for idx, (name, start, end, parent, run) in enumerate(self.spans):
            if (run == "setup") != setup:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return out

    def count(self, name: str, setup: bool) -> int:
        return sum(v for (run, key), v in self.counts.items()
                   if key == name and (run == "setup") == setup)

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "counts": [[run, key, v] for (run, key), v in sorted(self.counts.items())],
            "missing_sites": self.missing,
        }


def wrapper_costs(calls: int = 20000) -> tuple[float, float]:
    """Measured seconds added per span and per count by the wrappers."""
    def noop():
        return None

    tracer = Tracer()
    spanned = tracer.span("calibration", noop)
    counted = tracer.counter("calibration", noop)

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    base = loop(noop)
    per_span = max(loop(spanned) - base, 0.0) / calls
    per_count = max(loop(counted) - base, 0.0) / calls
    return per_span, per_count
