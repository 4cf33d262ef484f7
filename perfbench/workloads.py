"""Benchmark workloads: inputs, operations and output checks.

Each workload is a fixed corpus built with `twocenter.instances.generate`,
so that every output can be frozen in `refs.json` and checked on every
run.  The seed of a run sets the order in which each pass visits the
corpus; it does not change the corpus.  A pass visits every operation
of the corpus once, so every run measures the same mix of instances.
"""
from __future__ import annotations

import functools
import hashlib
import json
import random
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from compare import close
from reference import in_reference_seconds
from twocenter.cli import make_record, verify_record
from twocenter.driver import two_center
from twocenter.instances import FAMILIES, Instance, generate
from twocenter.polygon import SimplePolygon, triangulate
from twocenter.region import geodesic_distance

REFS = Path(__file__).resolve().with_name("refs.json")

Op = Tuple[str, Callable[[], object]]


def fingerprint(inst: Instance) -> str:
    data = json.dumps([[[p.x, p.y] for p in inst.polygon],
                       [[p.x, p.y] for p in inst.points]])
    return hashlib.sha256(data.encode()).hexdigest()[:16]


class Workload:
    """A named corpus; `load` builds it and checks it against refs."""

    name: str
    why: str

    def load(self, refs: Optional[dict]) -> List[str]:
        """Generate the corpus.  Returns one message per input whose
        fingerprint differs from the frozen one (empty when refs is None)."""
        self.inputs = self._generate()
        self.refs = refs or {"fingerprints": {}, "outputs": {}}
        if refs is None:
            return []
        got, want = self.fingerprints(), refs["fingerprints"]
        return [f"{self.name} input {k}: fingerprint {got.get(k)} != frozen {want.get(k)}"
                for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]

    def fingerprints(self) -> Dict[str, str]:
        return {k: fingerprint(v) for k, v in self.inputs.items()}

    def setup_builds(self, repeats: int) -> List[float]:
        """Seconds per build of whatever each pass builds before its
        operations run, rescaled by reference.in_reference_seconds;
        empty when a pass builds nothing."""
        return []

    def _generate(self) -> Dict[str, Instance]:
        raise NotImplementedError

    def ops(self, rng: random.Random) -> List[Op]:
        raise NotImplementedError

    def judge(self, oid: str, out) -> Tuple[float, Optional[str]]:
        """(output value, failure tag or None) for a returned result."""
        raise NotImplementedError


class SolveWorkload(Workload):
    """`two_center` on the four generator families at one (n, m) cell."""

    kind = "solve"
    # a solve takes about a second and leaves cyclic garbage (polygon and
    # region caches point at each other); a collection costs milliseconds
    collect_each_op = True

    def __init__(self, name: str, n: int, m: int, seeds: Sequence[int], why: str):
        self.name, self.n, self.m, self.seeds, self.why = name, n, m, tuple(seeds), why

    def _generate(self) -> Dict[str, Instance]:
        return {f"{fam}/{self.n}x{self.m}/s{s}": generate(fam, self.n, self.m, s)
                for fam in FAMILIES for s in self.seeds}

    def ops(self, rng: random.Random) -> List[Op]:
        ids = sorted(self.inputs)
        rng.shuffle(ids)
        return [(oid, functools.partial(_solve, self.inputs[oid])) for oid in ids]

    def judge(self, oid: str, out) -> Tuple[float, Optional[str]]:
        inst = self.inputs[oid]
        try:
            verify_record(inst, make_record(out, inst.points, 0))
        except ValueError:
            return out.radius, "certificate"
        ref = self.refs["outputs"].get(oid)
        # an instance whose frozen outcome is an error has no reference
        # radius; a certified solve of it counts as a success
        if isinstance(ref, float) and not close(out.radius, ref):
            return out.radius, "reference"
        return out.radius, None


def _solve(inst: Instance):
    return two_center(SimplePolygon(inst.polygon), inst.points)


class DistanceWorkload(Workload):
    """One-off `geodesic_distance` queries between fixed point pairs.

    Each pass triangulates the polygons afresh, so every query of a pass
    meets a cold path cache and queries each pair once."""

    kind = "distance"
    # a query takes about a millisecond, no more than a full collection
    collect_each_op = False

    def __init__(self, name: str, n: int, families: Sequence[str], pairs: int, why: str):
        self.name, self.n, self.families, self.pairs, self.why = \
            name, n, tuple(families), pairs, why

    def _generate(self) -> Dict[str, Instance]:
        return {fam: generate(fam, self.n, 2 * self.pairs, 0) for fam in self.families}

    def _build(self):
        return {fam: triangulate(SimplePolygon(inst.polygon))
                for fam, inst in self.inputs.items()}

    def setup_builds(self, repeats: int) -> List[float]:
        out = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._build()
            out.append(in_reference_seconds(time.perf_counter() - t0))
        return out

    def ops(self, rng: random.Random) -> List[Op]:
        tps = self._build()
        ids = [(fam, i) for fam in sorted(self.inputs) for i in range(self.pairs)]
        rng.shuffle(ids)
        ops = []
        for fam, i in ids:
            pts = self.inputs[fam].points
            ops.append((f"{fam}/{i}", functools.partial(
                geodesic_distance, tps[fam], pts[2 * i], pts[2 * i + 1])))
        return ops

    def judge(self, oid: str, out) -> Tuple[float, Optional[str]]:
        ref = self.refs["outputs"].get(oid)
        if isinstance(ref, float) and close(out, ref):
            return out, None
        return out, "reference"


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    SolveWorkload(
        "solve-16x8", 16, 8, range(4),
        "ROADMAP corpus cell, all four families at n=16 m=8: candidate pairs, decide "
        "and one_center dominate; the three seeds that raise BoundaryAssemblyError stay in"),
    SolveWorkload(
        "solve-48x6", 48, 6, range(3),
        "large polygon, few sites: point location, funnels and disk intersections "
        "dominate, decide and one_center are a small share"),
    DistanceWorkload(
        "distance-128", 128, ("comb", "random"), 2048,
        "one-off geodesic_distance queries on 128-vertex comb and random polygons "
        "with a cold path cache; no hull, disk, decision or optimize code runs"),
)}


def load_refs() -> dict:
    with open(REFS, encoding="utf-8") as f:
        return json.load(f)
