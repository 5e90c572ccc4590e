"""A small reduced ordered BDD engine.

Nodes are integers; 0 and 1 are the terminals.  Each internal node is a
triple (level, low, high) hash-consed in a unique table.  The engine
provides the classical ite-based boolean operations plus existential
quantification, conjoin-and-quantify, monotone level renaming, and
satisfying-assignment extraction — exactly what a symbolic fixpoint model
checker needs, nothing more.
"""

from __future__ import annotations

import sys

_TERMINAL_LEVEL = 1 << 30


class Bdd:
    def __init__(self) -> None:
        # nodes[i] = (level, low, high); entries 0/1 are terminal sentinels
        self.nodes: list[tuple[int, int, int]] = [
            (_TERMINAL_LEVEL, 0, 0),
            (_TERMINAL_LEVEL, 1, 1),
        ]
        self.unique: dict[tuple[int, int, int], int] = {}
        self.cache: dict[tuple, int] = {}
        self._quant_ids: dict[frozenset[int], int] = {}
        self._rename_ids: dict[tuple[tuple[int, int], ...], int] = {}
        if sys.getrecursionlimit() < 20000:
            sys.setrecursionlimit(20000)

    # --- structure ---

    def level(self, f: int) -> int:
        return self.nodes[f][0]

    def mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        n = self.unique.get(key)
        if n is None:
            n = len(self.nodes)
            self.nodes.append(key)
            self.unique[key] = n
        return n

    def var(self, level: int) -> int:
        return self.mk(level, 0, 1)

    def nvar(self, level: int) -> int:
        return self.mk(level, 1, 0)

    def _cofactors(self, f: int, level: int) -> tuple[int, int]:
        fl, lo, hi = self.nodes[f]
        if fl == level:
            return lo, hi
        return f, f

    # --- boolean operations ---

    def ite(self, f: int, g: int, h: int) -> int:
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = ("i", f, g, h)
        r = self.cache.get(key)
        if r is not None:
            return r
        level = min(self.level(f), self.level(g), self.level(h))
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)
        r = self.mk(level, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self.cache[key] = r
        return r

    def not_(self, f: int) -> int:
        return self.ite(f, 0, 1)

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, 0)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, 1, g)

    def implies(self, f: int, g: int) -> int:
        return self.ite(f, g, 1)

    def iff_(self, f: int, g: int) -> int:
        return self.ite(f, g, self.not_(g))

    def conj(self, items) -> int:
        out = 1
        for f in items:
            out = self.and_(out, f)
            if out == 0:
                return 0
        return out

    # --- quantification ---

    def _qid(self, levels: frozenset[int]) -> int:
        qid = self._quant_ids.get(levels)
        if qid is None:
            qid = len(self._quant_ids)
            self._quant_ids[levels] = qid
        return qid

    def exist(self, f: int, levels: frozenset[int]) -> int:
        qid = self._qid(levels)

        def go(f: int) -> int:
            if f < 2:
                return f
            level, lo, hi = self.nodes[f]
            key = ("e", f, qid)
            r = self.cache.get(key)
            if r is not None:
                return r
            l, h = go(lo), go(hi)
            r = self.or_(l, h) if level in levels else self.mk(level, l, h)
            self.cache[key] = r
            return r

        try:
            return go(f)
        finally:
            # `go` reaches itself, and `self`, through its closure; unlinked,
            # a finished engine's tables are freed when its last user drops
            # it instead of at the next cyclic collection
            del go

    def and_exist(self, f: int, g: int, levels: frozenset[int]) -> int:
        """∃ levels. (f ∧ g), without building the full conjunction."""
        qid = self._qid(levels)

        def go(f: int, g: int) -> int:
            if f == 0 or g == 0:
                return 0
            if f == 1:
                return self.exist(g, levels)
            if g == 1:
                return self.exist(f, levels)
            if f > g:
                f, g = g, f
            key = ("ae", f, g, qid)
            r = self.cache.get(key)
            if r is not None:
                return r
            level = min(self.level(f), self.level(g))
            f0, f1 = self._cofactors(f, level)
            g0, g1 = self._cofactors(g, level)
            l, h = go(f0, g0), go(f1, g1)
            r = self.or_(l, h) if level in levels else self.mk(level, l, h)
            self.cache[key] = r
            return r

        try:
            return go(f, g)
        finally:
            del go  # unlinked, as in `exist`

    # --- renaming (mapping must be monotone on the support) ---

    def rename(self, f: int, mapping: dict[int, int]) -> int:
        rid = self._rename_ids.setdefault(tuple(sorted(mapping.items())), len(self._rename_ids))

        def go(f: int) -> int:
            if f < 2:
                return f
            key = ("r", f, rid)
            r = self.cache.get(key)
            if r is not None:
                return r
            level, lo, hi = self.nodes[f]
            r = self.mk(mapping.get(level, level), go(lo), go(hi))
            self.cache[key] = r
            return r

        try:
            return go(f)
        finally:
            del go  # unlinked, as in `exist`

    # --- witnesses ---

    def sat_one(self, f: int) -> dict[int, bool] | None:
        """One satisfying partial assignment (level -> bool), None if f = 0."""
        if f == 0:
            return None
        out: dict[int, bool] = {}
        while f != 1:
            level, lo, hi = self.nodes[f]
            if lo != 0:
                out[level] = False
                f = lo
            else:
                out[level] = True
                f = hi
        return out

    def cube(self, assignment: dict[int, bool]) -> int:
        out = 1
        for level in sorted(assignment, reverse=True):
            v = self.var(level) if assignment[level] else self.nvar(level)
            out = self.and_(v, out)
        return out

    def size(self, f: int) -> int:
        seen: set[int] = set()
        stack = [f]
        while stack:
            n = stack.pop()
            if n < 2 or n in seen:
                continue
            seen.add(n)
            _, lo, hi = self.nodes[n]
            stack.append(lo)
            stack.append(hi)
        return len(seen)
