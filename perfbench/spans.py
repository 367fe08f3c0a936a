"""In-memory span recorder wrapped around the gyrostat modules.

Spans come only from wrappers installed here; the package itself is not
edited. :meth:`Recorder.install` replaces every public function of the
nine package modules at every module attribute that names it (so
``cli.run`` and ``integrate.run`` both record the span
``integrate.run``), wraps the closures held by :class:`ScalarField`
values and the matching control by wrapping the builders that return
them, and counts :class:`ReducedPoint` / :class:`ReducedTangent`
constructions. :meth:`Recorder.uninstall` puts every original back.

A span is ``(name, start, end, parent, command)``: the span name is
``<layer>.<function>``, the layer is the defining module, ``parent`` is
the index of the enclosing span (-1 at the root) and ``command`` is the
id shared by every span of one command.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import replace

LAYERS = ("lie", "poisson", "controlled", "integrate", "reduction",
          "systems", "hamilton_jacobi", "config", "cli")

# Private functions recorded as well: the CSV writer has no public name.
PRIVATE_ENTRIES = {"cli": ("_trajectory_csv",)}


def package_modules() -> dict:
    return {layer: importlib.import_module(f"gyrostat.{layer}")
            for layer in LAYERS}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, modules: dict, original, wrapper):
        """Point every module attribute that names ``original`` at
        ``wrapper``."""
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self.set(mod, attr, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Recorder:
    """Spans and counters of the traced commands, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.command = 0
        self._stack = []
        self._patches = Patches()

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call; ``hook(result, args,
        kwargs)``, when given, post-processes the result after the span
        has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.command)
            return out if hook is None else hook(out, args, kwargs)

        return traced

    def _count_calls(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- closures held by builder results ---------------------------------

    def _scalar_field(self, prefix: str, field):
        """Copy of a ScalarField whose closures record spans."""
        changes = {"eval": self.wrap(f"{prefix}_eval", field.eval)}
        if field.grad is not None:
            changes["grad"] = self.wrap(f"{prefix}_grad", field.grad)
        if field.eval_batch is not None:
            batch, counts = field.eval_batch, self.counts

            def rows(pts):
                counts["poisson.eval_batch.rows"] += len(pts)
                return batch(pts)

            changes["eval_batch"] = self.wrap("poisson.eval_batch", rows)
        return replace(field, **changes)

    def _hooks(self) -> dict:
        def hamiltonian(out, args, kwargs):
            return self._scalar_field("systems.h", out)

        def casimirs(out, args, kwargs):
            return [(name, self._scalar_field("poisson.casimir", f))
                    for name, f in out]

        def polynomial(out, args, kwargs):
            return self._scalar_field("poisson.field", out)

        def control(out, args, kwargs):
            return self.wrap("controlled.control", out)

        def invariants(out, args, kwargs):
            return {name: self._count_calls("integrate.invariant_evals", fn)
                    for name, fn in out.items()}

        def trajectory(out, args, kwargs):
            tracked = args[4] if len(args) > 4 else kwargs.get("invariants")
            if tracked:
                self.counts["integrate.tracked_state_values"] += \
                    len(out.states) * len(tracked)
            return out

        return {
            "systems.rigid_body_hamiltonian": hamiltonian,
            "systems.heavy_top_hamiltonian": hamiltonian,
            "systems.heavy_top_free_hamiltonian": hamiltonian,
            "poisson.casimir_fields": casimirs,
            "poisson.polynomial_field": polynomial,
            "poisson.field_product": polynomial,
            "controlled.matching_control": control,
            "integrate.standard_invariants": invariants,
            "integrate.run": trajectory,
        }

    # -- installation -----------------------------------------------------

    def install(self):
        modules = package_modules()
        hooks = self._hooks()
        for fn, layer in entry_points(modules).items():
            name = f"{layer}.{fn.__name__.lstrip('_')}"
            self._patches.replace_function(
                modules, fn, self.wrap(name, fn, hooks.get(name)))
        poisson = modules["poisson"]
        for cls, key in ((poisson.ReducedPoint, "poisson.points_built"),
                         (poisson.ReducedTangent, "poisson.tangents_built")):
            self._patches.set(cls, "__post_init__",
                              self._count_calls(key, cls.__post_init__))

    def uninstall(self):
        self._patches.restore()


def entry_points(modules: dict) -> dict:
    """Public package functions (plus ``PRIVATE_ENTRIES``), each mapped
    to the layer that defines it."""
    owner = {f"gyrostat.{layer}": layer for layer in modules}
    found = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ in owner
                    and (not attr.startswith("_")
                         or attr in PRIVATE_ENTRIES.get(layer, ()))):
                found[obj] = owner[obj.__module__]
    return found


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, counts: Counter) -> dict:
    """Layer figures of the recorded commands: calls and inclusive
    seconds per span name, self seconds per layer, calls per
    ``parent>child`` pair of span names, and the counters."""
    calls = Counter(name for name, *_ in spans)
    inclusive = defaultdict(float)
    layer_self = defaultdict(float)
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        inclusive[name] += end - start
        layer_self[name.split(".", 1)[0]] += own
    return {
        "wall_s": sum(end - start for _, start, end, parent, _ in spans
                      if parent < 0),
        "calls": calls,
        "inclusive_s": inclusive,
        "self_s": layer_self,
        "counts": counts,
        "children": Counter(spans[parent][0] + ">" + name
                            for name, _, _, parent, _ in spans
                            if parent >= 0),
    }


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent,command\n")
        for name, start, end, parent, command in spans:
            fh.write(f"{name},{start!r},{end!r},{parent},{command}\n")
