"""In-memory span recorder that wraps oudiff functions from outside.

Each target is a function (or a method) of an oudiff module.  Wrapping
replaces the name in every oudiff module that binds the same object, so a
call is seen whether it goes through the home module or through a name
imported into another module (``oudiff.sampler.moments_ode`` as well as
``oudiff.moments.moments_ode``).  A target that no longer exists is
listed as absent instead of failing the run.

Spans are kept in memory as (name, start, end, parent) and written out
once the traced operation has finished.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (home module, attribute path, span name)
TARGETS = (
    ("oudiff.speciation", "speciation_time", "speciation.speciation_time"),
    ("oudiff.speciation", "_kappa_grid", "speciation.kappa_grid"),
    ("oudiff.speciation", "_kappa_scalar", "speciation.kappa_scalar"),
    ("oudiff.moments", "kernel_K", "moments.kernel_K"),
    ("oudiff.moments", "moments_ode", "moments.moments_ode"),
    ("oudiff.moments", "transition_cov", "moments.transition_cov"),
    ("oudiff.blockmat", "mat_exp", "blockmat.mat_exp"),
    ("oudiff.blockmat", "block_inverse", "blockmat.block_inverse"),
    ("oudiff.sampler", "conditional_reverse_sample", "sampler.conditional_reverse_sample"),
    ("oudiff.sampler", "conditional_score", "sampler.conditional_score"),
    ("oudiff.sampler", "empirical_score", "sampler.empirical_score"),
    ("oudiff.sampler", "reverse_sample", "sampler.reverse_sample"),
    ("oudiff.analysis", "_toy_run_cell", "analysis.toy_cell"),
    ("oudiff.analysis", "toy_metrics", "analysis.toy_metrics"),
    ("oudiff.analysis", "_clone_cell", "analysis.clone_cell"),
    ("oudiff.analysis", "_ModeChannels.reverse", "analysis.mode_reverse"),
    ("oudiff.analysis", "_ModeChannels.score", "analysis.mode_score"),
    ("oudiff.cli", "write_csv", "cli.write_csv"),
)


class Tracer:
    """Wraps the targets while active and records one span per call."""

    def __init__(self):
        self.spans: list = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return wrapper

    def __enter__(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "oudiff" or key.startswith("oudiff."))
        ]
        for home, path, name in TARGETS:
            owner = sys.modules.get(home)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{home}.{path}")
                continue
            wrapped = self._wrap(original, name)
            # a method is looked up on its class; a function wherever it is bound
            sites = [owner] if outer else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapped)
                        self._restore.append((site, key, original))
        return self

    def __exit__(self, *exc):
        for site, key, original in reversed(self._restore):
            setattr(site, key, original)
        self._restore.clear()
        return False

    def summary(self) -> dict:
        """Per span name: calls, busy and self time, and duration quantiles."""
        durations: dict[str, list[float]] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            durations.setdefault(name, []).append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_time[name] = self_time.get(name, 0.0) + (end - start - inner)
        out = {}
        for name, ds in durations.items():
            ds.sort()
            out[name] = {
                "calls": len(ds),
                "busy_s": sum(ds),
                "self_s": self_time[name],
                "p50_s": statistics.median(ds),
                "p99_s": ds[min(len(ds) - 1, int(0.99 * len(ds)))],
                "max_s": ds[-1],
            }
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "names": names,
                    "absent": self.absent,
                    "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
