"""Per-layer tracing of gkmkit from outside the package.

``Tracer.install`` replaces public gkmkit functions by timing wrappers in
every gkmkit module that bound them (``from .weights import poly_mul``
binds ``poly_mul`` in ``localization`` as well as in ``weights``), and
``uninstall`` puts the originals back, so untraced sweeps run the
unmodified program.  Each wrapper counts calls and failures (calls that
raised), total time, and self time: total minus the time of wrapped
calls made inside it.  Calls to the coarse functions are also recorded
as spans (job, id, parent id, name, start, end, failed) and kept in
memory until the run writes them out; spans of one job share its name
and hang below its root span.

``LAYER_EFFECTS`` records, before any measurement, which end-to-end
metric each layer metric should move and on which workload.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, metric prefix, keep spans)
WRAPPED = (
    ("cli", "main", "cli.main", True),
    ("model", "load_path", "model.load_path", True),
    ("model", "serialize", "model.serialize", True),
    ("model", "validate_all", "model.validate_all", True),
    ("model", "build_multigraph", "model.build_multigraph", True),
    ("model", "check_describes", "model.check_describes", True),
    ("model", "check_edge_congruence", "model.check_edge_congruence", True),
    ("model", "residue_mod", "model.residue_mod", False),
    ("model", "congruent_mod", "model.congruent_mod", False),
    ("matching", "maximum_matching", "matching.maximum_matching", True),
    ("genus", "chi_y", "genus.chi_y", True),
    ("localization", "chern_report", "localization.chern_report", True),
    ("localization", "chern_number", "localization.chern_number", True),
    ("localization", "integrate", "localization.integrate", True),
    ("localization", "check_lower_degree_vanishing",
     "localization.check_lower_degree_vanishing", True),
    ("weights", "elem_sym_scalars", "weights.elem_sym_scalars", False),
    ("weights", "generic_points", "weights.generic_points", False),
    ("weights", "poly_mul", "weights.poly_mul", False),
    ("weights", "elem_sym_all", "weights.elem_sym_all", False),
    ("weights", "frac_add", "weights.frac_add", False),
    ("weights", "poly_div_linear", "weights.poly_div_linear", False),
    ("petrie", "petrie_verify", "petrie.petrie_verify", True),
    ("petrie", "triangle_identity", "petrie.triangle_identity", False),
    ("catalog", "cpn", "catalog.cpn", True),
)
# FixedPointData.point is a method; it is patched on the class.
POINT_LOOKUP = "model.point_lookup"
STATS = ("calls", "total_ms", "self_ms", "failures")
EXTRA = ("matching.adjacency_edges", "matching.matched", "matching.left_size",
         "weights.poly_div_linear.nonnull")
MAX_SPANS = 200_000

LAYER_EFFECTS = {
    "localization.* (chern_number, chern_report, integrate, "
    "check_lower_degree_vanishing), weights.elem_sym_scalars.calls, "
    "weights.generic_points.calls":
        "sweep_s_p50 and large_job_ms (chern top rung, Petrie match jobs) on "
        "invariants; nothing on graphs",
    "weights.poly_mul, weights.elem_sym_all.calls, weights.frac_add, "
    "weights.poly_div_linear.calls, weights.cancel_success_ratio":
        "sweep_s_p50 on invariants (expanded-mode jobs and lower-degree "
        "vanishing); nothing on graphs",
    "model.build_multigraph, model.check_describes, "
    "model.check_edge_congruence, model.validate_all.total_ms, "
    "model.residue_mod.calls, model.congruent_mod.calls, "
    "model.point_lookup.calls, matching.*":
        "sweep_s_p50 and large_job_ms on graphs; nothing on invariants",
    "petrie.petrie_verify.{total_ms,self_ms}, petrie.triangle_identity.calls":
        "large_job_ms (ambiguous top rung) and sweep_s_p50 on invariants; "
        "its chern_report child belongs to the localization row",
    "genus.chi_y.{calls,total_ms}": "small_job_ms on invariants",
    "model.load_path.total_ms, model.serialize.total_ms, cli.main.self_ms":
        "small_job_ms on every workload",
    "setup.cpn_ms, import_ms": "setup_s",
    "cli.cold_start_ms": "nothing gated",
}


def _matching_counts(extra: Counter, args, result) -> None:
    n_left, _n_right, adjacency = args
    extra["matching.adjacency_edges"] += sum(len(a) for a in adjacency)
    extra["matching.matched"] += len(result)
    extra["matching.left_size"] += n_left


def _division_counts(extra: Counter, args, result) -> None:
    extra["weights.poly_div_linear.nonnull"] += result is not None


POST = {"matching.maximum_matching": _matching_counts,
        "weights.poly_div_linear": _division_counts}


class Tracer:
    """Timing wrappers over one imported gkmkit package."""

    def __init__(self, gk):
        self.gk = gk
        self.patches: list[tuple[object, str, object, object]] = []
        self.reset(keep_spans=False)

    def reset(self, keep_spans: bool) -> None:
        self.stats: dict[str, list] = {}
        self.extra: Counter = Counter()
        self.spans: list[tuple] = []
        self.keep_spans = keep_spans
        self.stack: list[list] = []  # [span id, seconds spent in wrapped children]
        self.next_id = 0
        self.job = ""

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "gkmkit" or name.startswith("gkmkit.")]
        for mod_name, attr, metric, spans in WRAPPED:
            original = getattr(getattr(self.gk, mod_name), attr)
            wrapper = self._wrap(metric, original, spans)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self.patches.append((mod, attr, original, wrapper))
        cls = self.gk.model.FixedPointData
        self.patches.append((cls, "point", cls.point,
                             self._wrap(POINT_LOOKUP, cls.point, False)))
        for owner, attr, _original, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # -- recording ----------------------------------------------------------

    def _finish(self, name: str, frame: list, parent, t0: float, t1: float,
                failed: bool, keep: bool) -> None:
        dur = t1 - t0
        if self.stack:
            self.stack[-1][1] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        st[3] += failed
        if keep and self.keep_spans and len(self.spans) < MAX_SPANS:
            self.spans.append((self.job, frame[0], parent, name, t0, t1, failed))

    def _wrap(self, name: str, fn, keep: bool):
        tracer = self
        post = POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [tracer.next_id, 0.0]
            tracer.next_id += 1
            tracer.stack.append(frame)
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer._finish(name, frame, parent, t0, t1, failed, keep)
            if post is not None:
                post(tracer.extra, args, result)
            return result

        return wrapper

    def run_job(self, name: str, run):
        """Run one job under a root span named after it."""
        self.job = name
        frame = [self.next_id, 0.0]
        self.next_id += 1
        self.stack = [frame]
        t0 = perf_counter()
        try:
            return run()
        finally:
            t1 = perf_counter()
            self.stack = []
            if self.keep_spans and len(self.spans) < MAX_SPANS:
                self.spans.append((name, frame[0], None, "job", t0, t1, False))

    def snapshot(self) -> dict[str, float]:
        """Per-layer numbers of everything recorded since the last reset."""
        out: dict[str, float] = {}
        names = [w[2] for w in WRAPPED] + [POINT_LOOKUP]
        for name in names:
            calls, total, self_s, failures = self.stats.get(name, (0, 0.0, 0.0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.total_ms"] = total * 1000
            out[f"{name}.self_ms"] = self_s * 1000
            out[f"{name}.failures"] = failures
        for key in EXTRA:
            out[key] = self.extra[key]
        return out
