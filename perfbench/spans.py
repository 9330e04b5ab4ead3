"""Spans around the calls into each stormlet layer, recorded from outside.

Each traced function is replaced at the attribute its caller looks it up
by (``stormlet.cli.explore``, not ``stormlet.prism.explore.explore``), so
the program's code is untouched. A span is ``[name, start, end, parent,
count]``; spans stay in memory until the run ends. A span's self time is
its duration minus the durations of its direct children, so the self times
of one job add up to the duration of its root span.

``eval_expr`` is deliberately not traced: it runs about a million times
per job and a wrapper would cost more than the work it measures.
"""

import functools
import importlib
import time

# span name -> metric that its self time adds to
LAYER_OF = {}
# (module, attribute path, span name, counter(args, result) or None)
WRAPPED = []


def _n_states(args, result):
    return result[0].n_states


def _true_count(args, result):
    return int(result.sum())


def _pair_counts(args, result):
    return int(result[0].sum()), int(result[1].sum())


def _iterations(args, result):
    return result.iterations


def _right_end(args, result):
    return result[1]


def _nnz(args, result):
    return result.nnz


def _matrix_work(args, result):
    m = args[0]
    return m.nnz, m.rows


def _sweep_work(args, result):
    row_offsets, col_indices = args[0], args[1]
    return len(col_indices), len(row_offsets) - 1


def _add(module, names, layer, metric, counter=None):
    """Trace module.name for each name, as span ``layer.name``."""
    for name in names:
        span = f"{layer}.{name.rsplit('.', 1)[-1]}"
        WRAPPED.append((module, name, span, counter))
        LAYER_OF[span] = metric


_add("stormlet.cli", ["parse_program", "typecheck"], "prism", "prism.parse_s")
_add("stormlet.cli", ["explore"], "prism", "prism.explore_s", _n_states)
_add("stormlet.cli", ["format_result"], "cli", "cli.output_s")
_add("stormlet.prism.explore", ["build_label_bitsets"], "prism", "prism.labels_s")
_add("stormlet.prism.explore", ["build_reward_models"], "prism", "prism.rewards_s")
_add("stormlet.explicit", ["build_model"], "explicit", "explicit.load_s")
_add("stormlet.models", ["Model._validate"], "models", "models.validate_s")
_add("stormlet.sparse", ["build_sparse"], "sparse", "sparse.build_s", _nnz)
_add("stormlet.sparse", ["restrict"], "sparse", "sparse.restrict_s")
_add("stormlet.props", ["parse_property", "resolve_atoms"], "props", "props.s")
_add("stormlet.checkers", ["check"], "checkers", "checkers.self_s")
_add("stormlet.graph", ["prob0", "prob1"], "graph", "graph.self_s", _true_count)
_add("stormlet.graph", ["prob01_max", "prob01_min"], "graph", "graph.self_s", _pair_counts)
# checkers and solvers call these helpers directly, across the layer line
_add("stormlet.graph", ["prob1e_witness", "_per_row_all", "_backward_closure"], "graph", "graph.self_s")
_add("stormlet.solvers", ["solve_linear", "solve_minmax"], "solvers", "solvers.self_s", _iterations)
_add("stormlet.solvers", ["solve_linear_exact"], "solvers", "solvers.self_s")
_add("stormlet.solvers", ["fox_glynn"], "solvers", "solvers.self_s", _right_end)
_add("stormlet.kernels", ["matvec", "matvec_reduce", "matvec_rational"], "kernels", "kernels.self_s",
     _matrix_work)
_add("stormlet.kernels", ["gauss_seidel_sweep"], "kernels", "kernels.self_s", _sweep_work)
# one root span per job: the CLI's own time outside every traced call
ROOT = "cli.main"
LAYER_OF[ROOT] = "cli.self_s"

SELF_METRICS = sorted(set(LAYER_OF.values()))
# bytes a CSR kernel reads or writes, computed from sizes (cache misses ignored):
# per entry a float64 value, an int64 column and a float64 gather of x;
# per row an int64 offset and a float64 result
BYTES_PER_ENTRY = 24
BYTES_PER_ROW = 16


def _resolve(module, path):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Installs span-recording wrappers; ``install``/``uninstall`` toggle them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def install(self):
        for module, path, span, counter in WRAPPED:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def job(self, fn, *args):
        """Run fn(*args) inside a root span."""
        return self._wrap(fn, ROOT, None)(*args)

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, result)
            return result

        return traced

    def take(self):
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans):
    """Per-layer metrics of one pass from its spans."""
    own = self_times(spans)
    out = {m: 0.0 for m in SELF_METRICS}
    counts = {
        "graph.calls": 0, "graph.prob0_states": 0, "graph.prob1_states": 0,
        "sparse.entries": 0, "solvers.iterations": 0, "solvers.poisson_right": 0,
        "kernels.calls": 0, "kernels.nnz_visited": 0, "kernels.bytes_computed": 0,
    }
    states = 0
    for span, t in zip(spans, own):
        name, parent, count = span[0], span[3], span[4]
        out[LAYER_OF[name]] += t
        layer = name.split(".", 1)[0]
        outer = parent < 0 or spans[parent][0].split(".", 1)[0] != layer
        if name == "prism.explore":
            states += count
        elif name == "sparse.build_sparse":
            counts["sparse.entries"] += count
        elif layer == "graph" and outer:
            counts["graph.calls"] += 1
            if name in ("graph.prob0", "graph.prob01_max", "graph.prob01_min"):
                p0 = count if name == "graph.prob0" else count[0]
                counts["graph.prob0_states"] += p0
            if name in ("graph.prob1", "graph.prob01_max", "graph.prob01_min"):
                p1 = count if name == "graph.prob1" else count[1]
                counts["graph.prob1_states"] += p1
        elif name in ("solvers.solve_linear", "solvers.solve_minmax") and outer:
            counts["solvers.iterations"] += count
        elif name == "solvers.fox_glynn":
            counts["solvers.poisson_right"] += count
        elif layer == "kernels":
            nnz, rows = count
            counts["kernels.calls"] += 1
            counts["kernels.nnz_visited"] += nnz
            counts["kernels.bytes_computed"] += BYTES_PER_ENTRY * nnz + BYTES_PER_ROW * rows
    out.update(counts)
    explore_s = out["prism.explore_s"]
    out["prism.states_per_s"] = states / explore_s if explore_s > 0 else 0.0
    nnz = counts["kernels.nnz_visited"]
    out["kernels.ns_per_nnz"] = out["kernels.self_s"] * 1e9 / nnz if nnz else 0.0
    return out
