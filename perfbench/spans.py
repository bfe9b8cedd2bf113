"""Spans around the public functions of each affine_schur layer, from outside.

`Tracer.install()` replaces every traced function object with a wrapper
everywhere the package binds it: module globals (so `from .schur import
phi_e` in transfer is rebound too), class attributes for methods, and
module-level containers and default arguments.  A reference to an original
that survives the rebinding is an error, so the trace cannot miss calls
silently; the heavy-layer check in run.py catches calls that escape by any
other route.

Each call records one span: name, start, end, parent span and thread.
Spans are kept in per-thread columns in memory (the crystal suite runs on
pool threads, so each thread has its own span stack) and written out when
the run ends.  A span's self time is its duration minus the durations of
its wrapped child spans, accumulated as the spans close.
"""

import functools
import importlib
import pkgutil
import threading
import time
from array import array

PACKAGE = "affine_schur"

# module-relative dotted names; "transfer.MonomialSpan.grow" is a method
TARGETS = (
    "laurent.laurent_gcd",
    "laurent.divide_exact",
    "affine_weyl.double_coset_elements",
    "affine_weyl.young_subgroup_elements",
    "flag_comb.double_coset_min_rep",
    "flag_comb.enumerate_flag_symbols",
    "hecke.bar",
    "hecke.double_coset_sum",
    "hecke.mul_by_simple",
    "hecke.mul",
    "tmodule.tau",
    "tmodule.apply_e",
    "tmodule.apply_divided",
    "tmodule.angle_vector",
    "crystal.kashiwara_oracle",
    "crystal.string_decomposition",
    "crystal.bracket",
    "canonical.solve_canonical",
    "canonical.BarSystem.tau_expand",
    "schur.schur_mul",
    "schur.phi_monomial",
    "schur.tau_schur",
    "schur.act_on_module",
    "transfer.MonomialSpan.grow",
    "transfer.MonomialSpan.solve",
    "transfer.transfer_map",
    "transfer.transfer_route_b",
    "transfer.check_leading_term",
    "transfer.check_canonical_transfer",
    "cli.run_suite",
    "cli.report_to_text",
)


class _ThreadLog:
    """Span columns, the open-span stack and the per-name totals of one
    thread (so that pool threads never update shared counters)."""

    __slots__ = ("thread", "name", "start", "end", "parent", "stack",
                 "calls", "self_s")

    def __init__(self, thread: int, names: int):
        self.thread = thread
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = []   # [span index, start, child seconds]
        self.calls = [0] * names
        self.self_s = [0.0] * names


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()
        self._originals = {}
        # captured from the wrapped calls, for the derived counters; only
        # set.add runs on pool threads, and it is atomic
        self.tau_labels = set()
        self.spans_seen = []
        self.leading_attempted = 0
        self.leading_decided = 0

    # -- recording ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident(), len(self.names))
            self._local.log = log
            with self._logs_lock:
                self._logs.append(log)
        return log

    def _wrap(self, idx: int, fn):
        clock = time.perf_counter
        log_of = self._log

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = log_of()
            stack = log.stack
            span = len(log.name)
            log.name.append(idx)
            log.parent.append(stack[-1][0] if stack else -1)
            log.end.append(0.0)
            frame = [span, clock(), 0.0]
            log.start.append(frame[1])
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                log.end[span] = end
                dur = end - frame[1]
                log.calls[idx] += 1
                log.self_s[idx] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return traced

    def _observe(self, name: str, fn):
        """Wrappers that also read arguments or results for the counters."""
        if name == "canonical.BarSystem.tau_expand":
            labels = self.tau_labels

            def tau_expand(system, label):
                labels.add(label)
                return fn(system, label)
            return tau_expand
        if name in ("transfer.MonomialSpan.grow", "transfer.MonomialSpan.solve"):
            seen = self.spans_seen

            def span_method(span, *args, **kwargs):
                if not any(s is span for s in seen):
                    seen.append(span)
                return fn(span, *args, **kwargs)
            return span_method
        if name == "transfer.check_leading_term":
            def check_leading_term(*args, **kwargs):
                r = fn(*args, **kwargs)
                self.leading_attempted += 1
                self.leading_decided += r.get("ok") is not None
                return r
            return check_leading_term
        return fn

    # -- installation ------------------------------------------------------

    def install(self):
        modules = _package_modules()
        for idx, name in enumerate(self.names):
            mod_name, *attr = name.split(".")
            owner = modules[f"{PACKAGE}.{mod_name}"]
            for a in attr[:-1]:
                owner = getattr(owner, a)
            orig = (owner.__dict__[attr[-1]] if isinstance(owner, type)
                    else getattr(owner, attr[-1]))
            wrapper = self._wrap(idx, self._observe(name, orig))
            self._originals[id(orig)] = (name, orig, wrapper)
            if isinstance(owner, type):
                setattr(owner, attr[-1], wrapper)
        for mod in modules.values():
            for key, val in list(vars(mod).items()):
                hit = self._originals.get(id(val))
                if hit is not None and hit[1] is val:
                    setattr(mod, key, hit[2])
        stale = _stale_references(modules, self._originals)
        if stale:
            raise RuntimeError("traced functions still bound unwrapped: "
                               + "; ".join(stale))

    # -- results -----------------------------------------------------------

    def counts(self) -> dict:
        return {name: sum(log.calls[i] for log in self._logs)
                for i, name in enumerate(self.names)}

    def self_times(self) -> dict:
        return {name: sum(log.self_s[i] for log in self._logs)
                for i, name in enumerate(self.names)}

    def covered_seconds(self, name: str) -> float:
        """Wall time covered by at least one span of `name`, on any thread."""
        idx = self.names.index(name)
        spans = sorted((log.start[i], log.end[i]) for log in self._logs
                       for i in range(len(log.name)) if log.name[i] == idx)
        total, reach = 0.0, float("-inf")
        for start, end in spans:
            if end > reach:
                total += end - max(start, reach)
                reach = end
        return total

    def span_count(self) -> int:
        return sum(len(log.name) for log in self._logs)

    def write_spans(self, path: str):
        """One tab-separated line per span: thread, span, parent, name,
        start, end (perf_counter seconds)."""
        with open(path, "w") as f:
            f.write("thread\tspan\tparent\tname\tstart\tend\n")
            for log in self._logs:
                for span in range(len(log.name)):
                    f.write(f"{log.thread}\t{span}\t{log.parent[span]}\t"
                            f"{self.names[log.name[span]]}\t"
                            f"{log.start[span]:.9f}\t{log.end[span]:.9f}\n")


def _package_modules() -> dict:
    pkg = importlib.import_module(PACKAGE)
    out = {PACKAGE: pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        name = f"{PACKAGE}.{info.name}"
        out[name] = importlib.import_module(name)
    return out


def _stale_references(modules: dict, originals: dict) -> list:
    """Places in the package that still hold an unwrapped original."""

    def hit(val):
        got = originals.get(id(val))
        return got is not None and got[1] is val

    stale = []
    for mod_name, mod in modules.items():
        for key, val in vars(mod).items():
            where = f"{mod_name}.{key}"
            if hit(val):
                stale.append(where)
            elif isinstance(val, (dict, list, tuple, set, frozenset)):
                items = val.values() if isinstance(val, dict) else val
                if any(hit(x) for x in items):
                    stale.append(where)
            elif isinstance(val, type) and val.__module__ == mod_name:
                for ckey, cval in vars(val).items():
                    if hit(cval) or hit(getattr(cval, "__func__", None)):
                        stale.append(f"{where}.{ckey}")
            fn = getattr(val, "__wrapped__", val)
            defaults = (getattr(fn, "__defaults__", None) or ()) + tuple(
                (getattr(fn, "__kwdefaults__", None) or {}).values())
            if any(hit(d) for d in defaults):
                stale.append(f"{where} (default argument)")
    return stale
