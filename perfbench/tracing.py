"""Per-layer spans recorded from outside the twocenter package.

`traced_package` rebinds the public functions of each module, and a few
methods, to timing wrappers for the length of a `with` block.  Modules
import these functions by name (``from .geom import orientation``), so a
function is rebound in every module of the package that holds it, not
only in the module that defines it.  The package source is not changed.

Each wrapper opens a span (name, start, end, parent) when it is called
and folds it into per-name totals when it returns: the call count, the
self time (duration minus the time covered by child spans) and, for a
few layers, an outcome counter.  Folding as spans close keeps memory
flat although `orientation` opens millions of spans per pass.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

import twocenter  # noqa: F401  (loads every module of the package)
from twocenter.region import Region

# "module.function" or "module.Class.method" under the twocenter package.
# The span name is the module plus the function or method name.
TARGETS = (
    "geom.orientation",
    "polygon.triangulate",
    "polygon.point_in_polygon",
    "polygon.TriangulatedPolygon.locate",
    "region.Region.path",
    "region.Region.tree",
    "region.Region.spm_points",
    "hull.geodesic_hull",
    "hull.GeodesicHull.chain_radius",
    "disks.one_center",
    "disks.disks_intersection",
    "optimize.optimize_pair",
    "optimize.narrow_interval",
    "optimize.interval_candidates",
    "optimize.critical_radius_set",
    "decision.decide",
    "driver.candidate_pairs",
    "driver.assistant_interval",
)

# Span that the benchmark opens around each operation; its self time is
# the part of the operation that no wrapped layer covers.
ROOT_SPAN = "op"


def span_name(target: str) -> str:
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


def _region_of(space):
    """The Region whose one-center cache `one_center(space, ...)` uses,
    or None while it does not exist yet.  Never creates one."""
    return space if isinstance(space, Region) else getattr(space, "_region", None)


def _cache_size(region) -> int:
    cache = getattr(region, "_onecenter_cache", None) if region is not None else None
    return len(cache) if cache is not None else 0


class Tracer:
    """Span totals for one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        # duration including children; a recursive span counts once per level
        self.total_s: Dict[str, float] = defaultdict(float)
        self.events: Counter = Counter()
        # child time of each open span; the bottom frame catches spans
        # opened outside any operation
        self._stack: List[List[float]] = [[0.0]]

    def wrap(self, name: str, fn: Callable) -> Callable:
        probe = _PROBES.get(name)
        calls, self_s, total_s, stack = self.calls, self.self_s, self.total_s, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                return probe(self, fn, args, kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                self_s[name] += dt - frame[0]
                total_s[name] += dt
                calls[name] += 1

        traced.__wrapped_span__ = name
        return traced


# -- outcome counters --------------------------------------------------

def _probe_path(tr: Tracer, fn, args, kwargs):
    # a miss is a call that grew the polygon's path cache; the cache is
    # read, never modified
    cache = args[0].tp._path_cache
    before = len(cache)
    out = fn(*args, **kwargs)
    if len(cache) == before:
        tr.events["region.path.hits"] += 1
    return out


def _probe_one_center(tr: Tracer, fn, args, kwargs):
    space = args[0] if args else kwargs["space"]
    before = _cache_size(_region_of(space))
    out = fn(*args, **kwargs)
    if _cache_size(_region_of(space)) == before:
        tr.events["disks.one_center.hits"] += 1
    return out


def _probe_intersection(tr: Tracer, fn, args, kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception:
        tr.events["disks.disks_intersection.failed"] += 1
        raise


def _probe_decide(tr: Tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    if out.feasible:
        tr.events["decision.decide.feasible"] += 1
    return out


def _probe_candidates(tr: Tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tr.events["driver.candidate_pairs.count"] += len(out)
    return out


_PROBES = {
    "region.path": _probe_path,
    "disks.one_center": _probe_one_center,
    "disks.disks_intersection": _probe_intersection,
    "decision.decide": _probe_decide,
    "driver.candidate_pairs": _probe_candidates,
}


# -- installation ------------------------------------------------------

def package_modules() -> Dict[str, object]:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "twocenter" or name.startswith("twocenter."))}


def _resolve(target: str):
    """(owner, attribute, original) for a target; owner is a module or class."""
    parts = target.split(".")
    owner = sys.modules[f"twocenter.{parts[0]}"]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], vars(owner)[parts[-1]]


@contextmanager
def traced_package(tracer: Tracer) -> Iterator[List[Tuple[object, str, Callable]]]:
    """Rebind every target to a tracer wrapper; restore on exit.

    Yields the list of (owner, attribute, original) bindings replaced.
    """
    mods = package_modules()
    replaced: List[Tuple[object, str, Callable]] = []
    try:
        for target in TARGETS:
            owner, attr, orig = _resolve(target)
            wrapper = tracer.wrap(span_name(target), orig)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                replaced.append((owner, attr, orig))
                continue
            for mod in mods.values():
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, name, wrapper)
                        replaced.append((mod, name, orig))
        yield replaced
    finally:
        for owner, name, orig in reversed(replaced):
            setattr(owner, name, orig)
