"""Span recording from outside the library.

`Tracer.install()` replaces every public function of the cubicsums modules
(each module's `__all__`, plus `cli.cmd_*`) with a timing wrapper at every
binding that holds it: the defining module, the copies made by
`from .x import y`, the package namespace and the `exponents.SCENARIOS`
table.  `Tracer.restore()` puts every original object back.  Classes are not
wrapped.

A span is (name, start, end, parent, run id), kept in memory and written as
JSON lines when the run ends.  Counts that describe the work of a call are
taken at the same boundary, after the span's end time is read, so computing
them is not charged to the span.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

MODULES = ("fieldspec", "arith", "ideals", "sums", "exponents", "cli")


def _totient_sum(X: int) -> int:
    phi = list(range(X + 1))
    for p in range(2, X + 1):
        if phi[p] == p:
            for k in range(p, X + 1, p):
                phi[k] -= phi[k] // p
    return sum(phi[1:])


def _pairs(T: int) -> int:
    return T * (T - 1) // 2


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _table_bytes(t):
    return sum(a.nbytes for a in (t.aK, t.muK, t.b, t.A_prefix, t.M_prefix))


# Work counts per function: fn(args, kwargs, result, seen) -> {count: value}.
# `seen` is per-function state for counts that depend on earlier calls.
def _count_enumerate_ideals(args, kwargs, res, seen):
    key = (getattr(_arg(args, kwargs, 0, "field"), "name", None), _arg(args, kwargs, 1, "B"))
    repeat = key in seen
    seen.add(key)
    return {"ideals": len(res), "repeats": int(repeat)}


COUNTERS = {
    "fieldspec.splitting_codes": lambda a, k, r, s: {"primes": len(r[0])},
    "arith.build_tables": lambda a, k, r, s: {"entries": r.N, "table_bytes": _table_bytes(r)},
    "arith.write_tables": lambda a, k, r, s: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "arith.read_tables": lambda a, k, r, s: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "arith.tau4_cuberoot_pair_sum": lambda a, k, r, s: {"pairs": _pairs(int(_arg(a, k, 0, "T")))},
    "ideals.enumerate_ideals": _count_enumerate_ideals,
    "sums.compute_cX": lambda a, k, r, s: {"pairs": _totient_sum(int(_arg(a, k, 2, "X")))},
    "sums.meansquare_R": lambda a, k, r, s: {"samples": r.samples},
    "sums.voronoi_P1_values": lambda a, k, r, s: {
        "terms": len(_arg(a, k, 2, "ys")) * int(_arg(a, k, 3, "y_trunc"))
    },
}


def _modules():
    import importlib

    return {m: importlib.import_module(f"cubicsums.{m}") for m in MODULES}


def public_functions(mods=None):
    """{qualified name: original callable} for every wrapped function."""
    mods = mods or _modules()
    out = {}
    for short, mod in mods.items():
        names = list(getattr(mod, "__all__", ()))
        if short == "cli":
            names += [n for n in vars(mod) if n.startswith("cmd_")]
        for n in names:
            obj = getattr(mod, n)
            if callable(obj) and not isinstance(obj, type):
                out[f"{short}.{n}"] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, run_id)
        self.counts = {}  # span id -> {count name: value}
        self.run_id = None
        self._seen = defaultdict(set)
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() on it is atomic under the GIL
        self._patched = []  # (container, key, original)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, self.run_id))
            if counter is not None:
                self.counts[sid] = counter(args, kwargs, res, self._seen[name])
            return res

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import cubicsums

        mods = _modules()
        originals = public_functions(mods)
        # one wrapper per original object, named after its defining module
        by_id = {}
        for name, fn in originals.items():
            if id(fn) not in by_id:
                by_id[id(fn)] = (fn, self._wrap(name, fn))
        containers = [vars(m) for m in mods.values()] + [vars(cubicsums), mods["exponents"].SCENARIOS]
        for c in containers:
            for key, val in list(c.items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((c, key, val))
                    c[key] = hit[1]
        return self

    def restore(self):
        while self._patched:
            c, key, val = self._patched.pop()
            c[key] = val

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, run_id in self.spans:
                rec = {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "run": run_id}
                if sid in self.counts:
                    rec["counts"] = self.counts[sid]
                fh.write(json.dumps(rec) + "\n")


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _union_length(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """{span id: duration minus the part of it that its children cover}."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        a, b = s["start"], s["end"]
        kids = [(max(a, c["start"]), min(b, c["end"])) for c in children[s["id"]]]
        out[s["id"]] = (b - a) - _union_length([k for k in kids if k[1] > k[0]])
    return out


def aggregate(spans):
    """Per function: calls, total_s, self_s and summed work counts."""
    st = self_times(spans)
    agg = defaultdict(lambda: defaultdict(float))
    for s in spans:
        a = agg[s["name"]]
        a["calls"] += 1
        a["total_s"] += s["end"] - s["start"]
        a["self_s"] += st[s["id"]]
        for k, v in s.get("counts", {}).items():
            a[k] += v
    for name, a in agg.items():
        if "repeats" in a:
            a["repeat_frac"] = a.pop("repeats") / a["calls"]
    return {k: dict(v) for k, v in agg.items()}


def covered_seconds(spans, keep):
    """Wall time covered by the spans whose name satisfies `keep`."""
    return _union_length([(s["start"], s["end"]) for s in spans if keep(s["name"])])
