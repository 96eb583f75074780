"""Span tracing of streamkc from outside the library.

``Tracer.install`` replaces the public functions and methods of each module
with wrappers, on the attributes that callers actually look up: a function
imported by name into another module is patched there too.  The metric
``dist`` is never wrapped, because ``GuessState`` takes its numpy path only
when the metric *is* ``dist``.

Every wrapped call records one span (name, ladder role, parent, start, end)
in flat arrays kept in memory; self time is a span's duration minus its
children's.  Counts that need a call's arguments or result (captures, kept
entries, rejections, grid changes, saturation causes) are taken by hooks in
the same wrappers.  A GuessLadder method sets the ladder's role for every
span below it, so the two effective-diameter ladders can be told apart.

A wrapper's own cost falls outside its span, into the caller's self time.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, alpha=None):
        self.alpha = alpha  # the estimator's alpha: tells mass_up from mass_low
        self.role_names = [""]  # role id -> name; 0 is the unnamed ladder
        self.roles: dict[int, int] = {}  # id(GuessLadder) -> role id
        self.role = 0
        self.paused = True
        self.names: list[str] = []  # name id -> span name
        self.name = array("i")
        self.span_role = array("b")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (role id, stat name) -> int
        self._grids: dict[int, frozenset] = {}
        self._undo: list[tuple[object, str, object]] = []

    def set_roles(self, ladders: dict) -> None:
        """ladders: role name -> GuessLadder (forgets earlier ladders)."""
        self.roles.clear()
        self._grids.clear()
        for role, ladder in ladders.items():
            if role not in self.role_names:
                self.role_names.append(role)
            self.roles[id(ladder)] = self.role_names.index(role)

    # -- wrappers --------------------------------------------------------------

    def _wrapper(self, name: str, original, sets_role: bool = False, after=None):
        nid = len(self.names)
        self.names.append(name)
        tracer = self
        names, roles, parents = self.name, self.span_role, self.parent
        starts, ends, stack = self.start, self.end, self.stack

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            outer = tracer.role
            if sets_role:
                tracer.role = tracer.roles.get(id(args[0]), 0)
            i = len(starts)
            names.append(nid)
            roles.append(tracer.role)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = _now()
            try:
                res = original(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
                tracer.role = outer
            if after is not None:
                after(roles[i], args, kwargs, res)
            return res

        return functools.wraps(original)(wrapper)

    def _patch(self, owners, attr: str, name: str, **hooks) -> None:
        wrapper = self._wrapper(name, getattr(owners[0], attr), **hooks)
        for owner in owners:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _patch_generator(self, module, attr: str, name: str) -> None:
        """Trace each next() on the iterator the generator function returns."""
        original = getattr(module, attr)
        pull = self._wrapper(name, lambda it: next(it))

        class Traced:
            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                return pull(self.it)

        def wrapper(*args, **kwargs):
            return Traced(original(*args, **kwargs))

        self._undo.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper))

    def install(self) -> None:
        """Wrap every traced name of streamkc.  Tracing starts paused."""
        from streamkc import core, coreset, effdiam, experiment, solver

        self._patch_generator(experiment, "ingest", "experiment.ingest")
        self._patch_generator(experiment, "inject_outliers", "experiment.inject_outliers")
        self._patch([core, solver], "radius_excluding", "core.radius_excluding")
        self._patch([coreset], "bump_and_trim", "histogram.bump_and_trim",
                    after=self._after_bump)

        L, S = [coreset.GuessLadder], [coreset.GuessState]
        grid = "coreset.GuessLadder.maintain_oblivious_ladder"
        self._patch(L, "process_point", "coreset.GuessLadder.process_point", sets_role=True)
        self._patch(L, "maintain_oblivious_ladder", grid, sets_role=True,
                    after=self._after_grid)
        self._patch(L, "qualifies", "coreset.GuessLadder.qualifies", sets_role=True,
                    after=self._after_qualifies)
        self._patch(L, "extract_coreset", "coreset.GuessLadder.extract_coreset",
                    sets_role=True)
        self._patch(S, "process_point", "coreset.GuessState.process_point",
                    after=self._after_capture)
        self._patch(S, "sweep", "coreset.GuessState.sweep")

        self._patch([solver], "compute_solution", "solver.compute_solution")
        self._patch([solver], "outliers_cluster", "solver.outliers_cluster")
        self._patch([solver], "charikar", "solver.charikar")

        F = [effdiam.FineCoresetState]
        self._patch(F, "process_point", "effdiam.FineCoresetState.process_point")
        self._patch(F, "estimate", "effdiam.FineCoresetState.estimate")
        self._patch(F, "fine_coreset", "effdiam.FineCoresetState.fine_coreset",
                    after=self._after_overflow)
        self._patch([effdiam], "coreset_effective_diameter",
                    "effdiam.coreset_effective_diameter", after=self._after_mass)
        self._patch([effdiam], "exact_effective_diameter",
                    "effdiam.exact_effective_diameter")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- counts taken at the boundaries --------------------------------------------

    def _after_bump(self, role, args, kwargs, res) -> None:
        self.counts[(role, "histogram.bump_and_trim.bumped")] += len(args[0]) + 1
        self.counts[(role, "histogram.bump_and_trim.kept")] += len(res)

    def _after_capture(self, role, args, kwargs, res) -> None:
        if res is not None:
            self.counts[(role, "coreset.GuessState.process_point.captures")] += 1

    def _after_qualifies(self, role, args, kwargs, res) -> None:
        if not res:
            self.counts[(role, "coreset.GuessLadder.qualifies.rejects")] += 1

    def _after_grid(self, role, args, kwargs, res) -> None:
        """Diff the ladder's exponents against those after its previous call."""
        ladder = args[0]
        now = frozenset(ladder.states)
        before = self._grids.get(id(ladder))
        self._grids[id(ladder)] = now
        if before is not None and before != now:
            stat = "coreset.GuessLadder.maintain_oblivious_ladder"
            self.counts[(role, f"{stat}.grid_changes")] += 1
            self.counts[(role, f"{stat}.guesses_added")] += len(now - before)
            self.counts[(role, f"{stat}.guesses_dropped")] += len(before - now)

    def _after_overflow(self, role, args, kwargs, res) -> None:
        if res[1]:
            self.counts[(role, "effdiam.saturation.overflow")] += 1

    def _after_mass(self, role, args, kwargs, res) -> None:
        if res[1]:
            alpha = args[1] if len(args) > 1 else kwargs["alpha"]
            cause = "mass_up" if alpha == self.alpha else "mass_low"
            self.counts[(role, f"effdiam.saturation.{cause}")] += 1

    # -- aggregation ---------------------------------------------------------------

    def span_totals(self) -> dict[tuple[str, str], tuple[int, int]]:
        """(role, span name) -> (calls, self time in ns) over all spans."""
        n = len(self.start)
        if n == 0:
            return {}
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        nroles = len(self.role_names)
        key = np.frombuffer(self.name, dtype=np.int32) * nroles + np.frombuffer(
            self.span_role, dtype=np.int8
        )
        size = len(self.names) * nroles
        calls = np.bincount(key, minlength=size)
        own = np.bincount(key, weights=dur - child, minlength=size)
        return {
            (self.role_names[k % nroles], self.names[k // nroles]): (
                int(calls[k]), int(own[k])
            )
            for k in np.flatnonzero(calls)
        }

    def role_counts(self) -> dict[tuple[str, str], int]:
        """(role, stat name) -> count."""
        return {(self.role_names[r], s): n for (r, s), n in self.counts.items()}

    def save(self, path) -> None:
        """Write the raw spans as .npz (ns timestamps, -1 parent = top level)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            roles=np.array(self.role_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            role=np.frombuffer(self.span_role, dtype=np.int8),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )
