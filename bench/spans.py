"""Spans around the calls into each graphnorms layer, for the traced run.

The tracer replaces each boundary function at every binding the program
looks it up through (``profile_map`` in both ``homs`` and ``hessians``, the
re-exports in ``graphnorms``, ...), keeps spans (name, start, end, parent)
in memory and turns them into per-layer metrics when the run ends. A
boundary that no longer exists is reported as absent, so a program that
renames an internal function still runs.

Self time of a span is its duration minus the durations of its child spans.
"""

import contextlib
import json
import sys
import time

# (module, attribute or Class.method, layer)
BOUNDARIES = [
    *(
        ("graphnorms.graphs", name, "graphs")
        for name in (
            "cycle_graph",
            "path_graph",
            "complete_bipartite",
            "kpm_graph",
            "hypercube_graph",
            "bowtie_blowup",
            "cartesian_k2",
            "construct_family",
            "load_graph_text",
            "bipartition",
            "structural_report",
            "exterior_neighbourhood",
            "is_isomorphic",
            "verify_bowtie_structure",
        )
    ),
    ("graphnorms.homs", "profile_map", "homs.profile_map"),
    ("graphnorms.homs", "weighted_hom_count", "homs.post"),
    ("graphnorms.homs", "density", "homs.post"),
    ("graphnorms.homs", "symbolic_profile", "homs.post"),
    *(
        ("graphnorms.polys", f"SparsePoly.{name}", "polys")
        for name in ("coefficient_of", "restrict_min_degree", "section", "evaluate", "derivative")
    ),
    ("graphnorms.hessians", "hessian_matrix", "hessians.assemble"),
    ("graphnorms.hessians", "psd_certify", "hessians.psd"),
    *(
        ("graphnorms.certificates", name, "certificates")
        for name in (
            "certify_bowtie_cycle",
            "certify_kpm",
            "random_witness_search",
            "positivize_witness",
            "screen_necessary",
            "verify_certificate",
        )
    ),
    ("graphnorms.certificates", "Certificate.to_json", "certificates.json"),
    ("graphnorms.certificates", "Certificate.from_json", "certificates.json"),
    ("graphnorms.cli", "main", "cli"),
    *(
        ("graphnorms.rationals", name, "rationals")
        for name in ("format_rational", "parse_rational", "kth_root_interval", "integer_kth_root")
    ),
    ("graphnorms.matrices", "cut_norm", "matrices.cut_norm"),
]

# SparsePoly calls count only when certificates code makes them directly
POLYS_PARENT = "certificates"

# per-layer metric -> layer whose self time it sums
SELF_TIME_METRICS = {
    "graphs.s": "graphs",
    "homs.profile_map.s": "homs.profile_map",
    "homs.post.s": "homs.post",
    "polys.s": "polys",
    "hessians.assemble.s": "hessians.assemble",
    "hessians.psd.s": "hessians.psd",
    "certificates.self_s": "certificates",
    "certificates.json.s": "certificates.json",
    "cli.self_s": "cli",
    "rationals.s": "rationals",
    "matrices.cut_norm.s": "matrices.cut_norm",
}


def _graph_size(args, kwargs):
    """n ** v(H) for a profile_map(g, n, ...) call, 0 if the call has another shape."""
    g = kwargs.get("g", args[0] if args else None)
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    try:
        return n ** g.n
    except (AttributeError, TypeError):
        return 0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, extra]
        self.stack = []
        self.absent = []
        self._restore = []

    def span(self, name, layer, fn, *args, **kwargs):
        """Run fn inside a span; the benchmark opens one per operation."""
        spans, stack = self.spans, self.stack
        idx = len(spans)
        rec = [name, layer, time.perf_counter(), None, stack[-1] if stack else -1, None]
        spans.append(rec)
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            stack.pop()
        if name == "profile_map":
            counts = getattr(result, "counts", None)
            rec[5] = (len(counts) if counts is not None else 0, _graph_size(args, kwargs))
        elif name == "random_witness_search":
            rec[5] = result is not None
        return result

    def _wrap(self, name, layer, fn):
        tracer = self

        if layer == "polys":

            def wrapper(*args, **kwargs):
                stack = tracer.stack
                if not stack or tracer.spans[stack[-1]][1] != POLYS_PARENT:
                    return fn(*args, **kwargs)
                return tracer.span(name, layer, fn, *args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                return tracer.span(name, layer, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self):
        self.absent = []
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "graphnorms"]
        for module_name, attr, layer in BOUNDARIES:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(method) if owner is not None else None
            if raw is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if owner_name:
                self._patch_method(owner, method, raw, layer)
                continue
            wrapped = self._wrap(method, layer, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, raw))

    def _patch_method(self, cls, method, raw, layer):
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self._wrap(method, layer, raw.__func__))
        else:
            patched = self._wrap(method, layer, raw)
        setattr(cls, method, patched)
        self._restore.append((cls, method, raw))

    def uninstall(self):
        for owner, key, raw in reversed(self._restore):
            setattr(owner, key, raw)
        self._restore.clear()

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[3] - s[2]) - c for s, c in zip(self.spans, child)]

    def metrics(self) -> dict:
        own = self.self_times()
        by_layer = {}
        for s, t in zip(self.spans, own):
            by_layer[s[1]] = by_layer.get(s[1], 0.0) + t
        out = {m: (by_layer.get(layer, 0.0), "s") for m, layer in SELF_TIME_METRICS.items()}

        calls = {"profile_map": 0, "hessian_matrix": 0, "psd_certify": 0}
        profiles = maps = hits = trials = 0
        for s in self.spans:
            name = s[0]
            if name in calls:
                calls[name] += 1
            if name == "profile_map" and s[5] is not None:
                profiles += s[5][0]
                maps += s[5][1]
            elif name == "random_witness_search" and s[5]:
                hits += 1
            elif name == "hessian_matrix" and s[4] >= 0:
                trials += self.spans[s[4]][0] == "random_witness_search"
        out["homs.profile_map.calls"] = (calls["profile_map"], "count")
        out["homs.profile_map.profiles"] = (profiles, "count")
        out["homs.profile_map.maps"] = (maps, "count")
        out["hessians.assemble.calls"] = (calls["hessian_matrix"], "count")
        out["hessians.psd.calls"] = (calls["psd_certify"], "count")
        out["certificates.search.hits"] = (hits / trials if trials else 0.0, "1/trial")
        return out

    def per_operation(self) -> dict:
        """profile_map calls and total seconds per benchmark operation name."""
        out = {}
        for s in self.spans:
            if s[1] != "bench":
                continue
            row = out.setdefault(s[0], {"count": 0, "seconds": 0.0, "profile_map_calls": 0})
            row["count"] += 1
            row["seconds"] += s[3] - s[2]
        for s in self.spans:
            if s[0] != "profile_map":
                continue
            parent = s[4]
            while parent >= 0 and self.spans[parent][1] != "bench":
                parent = self.spans[parent][4]
            if parent >= 0:
                out[self.spans[parent][0]]["profile_map_calls"] += 1
        return out

    def write(self, path):
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for idx, (name, layer, start, end, parent, _) in enumerate(self.spans):
                row = [idx, name, layer, round(start - t0, 7), round(end - t0, 7), parent]
                fh.write(json.dumps(row) + "\n")
