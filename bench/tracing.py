"""Per-layer tracing of `monomial_lab` from outside the library.

`install` wraps library functions in every module that binds them by
name (``linearity`` and ``harness`` import ``_remap``,
``n2_verdict_masks`` and others from their defining modules, so patching
only the defining module would drop calls).  A few coarse calls become
spans with a parent; the hot ones, up to ~700k per campaign pass, only
add to per-name counters and timers.  Every wrapped call adds its time to
its caller's child time, so each name's self time excludes the wrapped
functions it calls.  Generator functions are timed per yielded item.
"""

from __future__ import annotations

import time


class Tracer:
    """Spans, per-name [calls, total_s, self_s] timers, and counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.spans: list[dict] = []
        self._stack: list[list] = []  # frames: [name, child_s]
        self._open: list[int] = []  # indices of open spans

    def reset(self) -> None:
        """Forget everything recorded; wrappers made earlier stay valid."""
        for store in (self.stats, self.counts, self.distinct, self.spans):
            store.clear()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def timed(self, name: str, fn, span: bool = False, flat: bool = False):
        """`fn` timed under `name`.  With `flat`, a call made while `name`
        is already the innermost frame is not counted again."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if flat and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            if span:
                rec = {
                    "id": len(self.spans),
                    "parent": self._open[-1] if self._open else None,
                    "name": name,
                }
                self.spans.append(rec)
                self._open.append(rec["id"])
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if span:
                    self._open.pop()
                    rec.update(start=start, end=end, self_s=dur - frame[1])

        return wrapper

    def timed_gen(self, name: str, fn):
        """Generator function `fn` with each step timed under `name` and the
        yielded items counted as `<name>.items`."""

        def wrapper(*args, **kwargs):
            step = self.timed(name, fn(*args, **kwargs).__next__)
            items = 0
            try:
                while True:
                    try:
                        item = step()
                    except StopIteration:
                        return
                    items += 1
                    yield item
            finally:
                self.add(name + ".items", items)

        return wrapper


def install(tracer: Tracer, lib):
    """Wrap the library's layer functions at every binding site; return a
    callable that restores the originals."""
    mods = [lib.package, lib.core, lib.exact_rank, lib.transversals, lib.complexes,
            lib.betti, lib.linearity, lib.duality, lib.harness]
    undo = []

    def patch(module, attr, make):
        orig = getattr(module, attr)
        new = make(orig)
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, new)
                    undo.append((m, key, orig))

    def timed(name, **kw):
        return lambda fn: tracer.timed(name, fn, **kw)

    def counted(name, fn, note):
        """`fn` timed under `name`, with `note(result)` adding counts."""
        def inner(*args):
            result = fn(*args)
            note(result)
            return result
        return tracer.timed(name, inner)

    c = lib.complexes

    def profile(fn):
        def inner(*args):
            before = len(c._PROFILES)
            result = fn(*args)
            tracer.add("complexes.profile_cache.hits", len(c._PROFILES) == before)
            return result
        return tracer.timed("complexes.homology_profile", inner)

    def exact_rank_q(fn):
        def inner(*args):
            tracer.add("complexes.qrank.misses", args not in c._QRANKS)
            return fn(*args)
        return inner

    def bareiss(fn):
        def inner(rows):
            cells = len(rows) * len(rows[0]) if rows else 0
            tracer.counts["exact_rank.bareiss.max_cells"] = max(
                cells, tracer.counts.get("exact_rank.bareiss.max_cells", 0))
            return fn(rows)
        return tracer.timed("exact_rank.bareiss", inner)

    def mod_p(fn):
        def inner(rows, p):
            tracer.add("exact_rank.mod_p.cells", len(rows) * len(rows[0]) if rows else 0)
            return fn(rows, p)
        return tracer.timed("exact_rank.mod_p", inner)

    patch(lib.betti, "_saturated_sigmas", lambda fn: tracer.timed_gen("betti.saturated_walk", fn))
    patch(lib.betti, "_remap", lambda fn: counted(
        "betti.remap", fn, lambda r: tracer.distinct.setdefault("betti.remap", set()).add(r)))
    patch(lib.betti, "regularity_masks", timed("betti.regularity_masks"))
    patch(lib.betti, "projective_dimension_masks", timed("betti.projective_dimension_masks"))
    patch(lib.betti, "regularity", timed("betti.regularity", span=True))
    patch(lib.betti, "projective_dimension", timed("betti.projective_dimension", span=True))
    patch(c, "homology_profile", profile)
    patch(c, "exact_rational_hq", timed("complexes.exact_hq"))
    patch(c, "_exact_rank_q", exact_rank_q)
    patch(c, "_face_bitmap_from_nonfaces", timed("complexes.face_bitmap"))
    patch(c, "_face_bitmap_from_facets", timed("complexes.face_bitmap"))
    patch(c, "_faces_by_size", lambda fn: counted(
        "complexes.faces_by_size", fn,
        lambda r: tracer.add("complexes.faces", sum(len(g) for g in r))))
    patch(c, "_boundary_columns_f2", timed("complexes.boundary_build"))
    patch(c, "_boundary_rows_signed", timed("complexes.boundary_build"))
    patch(lib.exact_rank, "rank_f2_columns", timed("exact_rank.f2"))
    patch(lib.exact_rank, "rank_mod_p", mod_p)
    patch(lib.exact_rank, "rank_bareiss", bareiss)
    patch(lib.transversals, "minimal_transversals", lambda fn: counted(
        "transversals", fn, lambda r: tracer.add("transversals.out", len(r))))
    patch(lib.linearity, "n2_verdict_masks", lambda fn: counted(
        "linearity.n2_verdict", fn, lambda r: tracer.add("linearity.n2_verdict.passes", r[0])))
    patch(lib.duality, "height_profile", timed("duality.height_profile", span=True))
    patch(lib.duality, "is_S2", timed("duality.is_S2", span=True))
    patch(lib.duality, "cohomological_dimension", timed("duality.cohomological_dimension", span=True))
    patch(lib.harness, "verify_range", timed("harness.verify_range", span=True))
    patch(lib.harness, "_verify_chunk", timed("harness.verify_chunk", span=True))
    patch(lib.harness, "_write_checkpoint", timed("harness.checkpoint_write"))

    ideal = lib.core.Ideal
    init = ideal.__dict__["__init__"]
    from_masks = ideal.__dict__["from_masks"]
    ideal.__init__ = tracer.timed("core.ideal_build", init, flat=True)
    ideal.from_masks = classmethod(tracer.timed("core.ideal_build", from_masks.__func__, flat=True))
    undo.append((ideal, "__init__", init))
    undo.append((ideal, "from_masks", from_masks))

    def restore():
        for m, key, orig in reversed(undo):
            setattr(m, key, orig)

    return restore


# name -> (unit, better); the per-layer metrics of the traced run
PER_LAYER = {
    "betti.remap.calls": ("count", "lower"),
    "betti.remap.s": ("s", "lower"),
    "betti.remap.distinct_ratio": ("ratio", "higher"),
    "betti.saturated_walk.sigmas": ("count", "lower"),
    "betti.saturated_walk.s": ("s", "lower"),
    "betti.regularity.self_s": ("s", "lower"),
    "betti.projective_dimension.self_s": ("s", "lower"),
    "linearity.n2_verdict.calls": ("count", "lower"),
    "linearity.n2_verdict.s": ("s", "lower"),
    "linearity.n2_pass_ratio": ("ratio", "higher"),
    "complexes.homology_profile.calls": ("count", "lower"),
    "complexes.profile_cache.hit_ratio": ("ratio", "higher"),
    "complexes.face_bitmap.s": ("s", "lower"),
    "complexes.faces": ("count", "lower"),
    "complexes.boundary_build.s": ("s", "lower"),
    "complexes.exact_hq.calls": ("count", "lower"),
    "complexes.gf2_certified_ratio": ("ratio", "higher"),
    "complexes.cache_entries": ("count", "lower"),
    "exact_rank.f2.calls": ("count", "lower"),
    "exact_rank.f2.s": ("s", "lower"),
    "exact_rank.mod_p.calls": ("count", "lower"),
    "exact_rank.mod_p.s": ("s", "lower"),
    "exact_rank.mod_p.cells": ("count", "lower"),
    "exact_rank.bareiss.calls": ("count", "lower"),
    "exact_rank.bareiss.s": ("s", "lower"),
    "exact_rank.bareiss.max_cells": ("count", "lower"),
    "transversals.calls": ("count", "lower"),
    "transversals.s": ("s", "lower"),
    "transversals.out": ("count", "lower"),
    "core.ideal_build.calls": ("count", "lower"),
    "core.ideal_build.s": ("s", "lower"),
    "harness.verify_chunk.s": ("s", "lower"),
    "harness.merge_io.s": ("s", "lower"),
    "harness.checkpoint_write.calls": ("count", "lower"),
    "harness.checkpoint_write.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer, cache_entries: int) -> dict[str, float]:
    """Per-layer values of one traced round (all but `trace.overhead_s`)."""

    def stat(name, i):
        return tracer.stats.get(name, (0, 0.0, 0.0))[i]

    def calls(name):
        return stat(name, 0)

    def total(name):
        return stat(name, 1)

    def count(name):
        return tracer.counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    qrank_misses = count("complexes.qrank.misses")
    return {
        "betti.remap.calls": calls("betti.remap"),
        "betti.remap.s": total("betti.remap"),
        "betti.remap.distinct_ratio": ratio(
            len(tracer.distinct.get("betti.remap", ())), calls("betti.remap")),
        "betti.saturated_walk.sigmas": count("betti.saturated_walk.items"),
        "betti.saturated_walk.s": total("betti.saturated_walk"),
        "betti.regularity.self_s": stat("betti.regularity", 2) + stat("betti.regularity_masks", 2),
        "betti.projective_dimension.self_s": (
            stat("betti.projective_dimension", 2) + stat("betti.projective_dimension_masks", 2)),
        "linearity.n2_verdict.calls": calls("linearity.n2_verdict"),
        "linearity.n2_verdict.s": total("linearity.n2_verdict"),
        "linearity.n2_pass_ratio": ratio(
            count("linearity.n2_verdict.passes"), calls("linearity.n2_verdict")),
        "complexes.homology_profile.calls": calls("complexes.homology_profile"),
        "complexes.profile_cache.hit_ratio": ratio(
            count("complexes.profile_cache.hits"), calls("complexes.homology_profile")),
        "complexes.face_bitmap.s": total("complexes.face_bitmap") + total("complexes.faces_by_size"),
        "complexes.faces": count("complexes.faces"),
        "complexes.boundary_build.s": total("complexes.boundary_build"),
        "complexes.exact_hq.calls": calls("complexes.exact_hq"),
        "complexes.gf2_certified_ratio": ratio(
            qrank_misses - calls("exact_rank.bareiss"), qrank_misses),
        "complexes.cache_entries": cache_entries,
        "exact_rank.f2.calls": calls("exact_rank.f2"),
        "exact_rank.f2.s": total("exact_rank.f2"),
        "exact_rank.mod_p.calls": calls("exact_rank.mod_p"),
        "exact_rank.mod_p.s": total("exact_rank.mod_p"),
        "exact_rank.mod_p.cells": count("exact_rank.mod_p.cells"),
        "exact_rank.bareiss.calls": calls("exact_rank.bareiss"),
        "exact_rank.bareiss.s": total("exact_rank.bareiss"),
        "exact_rank.bareiss.max_cells": count("exact_rank.bareiss.max_cells"),
        "transversals.calls": calls("transversals"),
        "transversals.s": total("transversals"),
        "transversals.out": count("transversals.out"),
        "core.ideal_build.calls": calls("core.ideal_build"),
        "core.ideal_build.s": total("core.ideal_build"),
        "harness.verify_chunk.s": total("harness.verify_chunk"),
        "harness.merge_io.s": stat("harness.verify_range", 2),
        "harness.checkpoint_write.calls": calls("harness.checkpoint_write"),
        "harness.checkpoint_write.s": total("harness.checkpoint_write"),
    }
