"""A small reduced ordered BDD engine.

Nodes are integers; 0 and 1 are the terminals.  Each internal node is a
triple (level, low, high) hash-consed in a unique table.  The engine
provides the boolean operations, conjoin-and-quantify, monotone level
renaming, and satisfying-assignment extraction — exactly what a symbolic
fixpoint model checker needs, nothing more.

One memoized recursion per operation, each reading the operands' nodes
directly: `and_`, `or_`, `not_`, `_and_exist` and `_rename`.  `and_`,
`or_` and `_and_exist` order their operands first, so f∧g and g∧f share
one entry of the computed table, `cache`, which all operations share.
`implies` and `iff_` are compositions of `and_`, `or_` and `not_`.
Plain quantification is `and_exist` with truth: the terminal 1 is the
triple (_TERMINAL_LEVEL, 1, 1), below every level, so `_and_exist`
recurses through a true operand as through any other.
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

    # --- boolean operations ---

    def not_(self, f: int) -> int:
        if f < 2:
            return 1 - f
        key = ("n", f)
        r = self.cache.get(key)
        if r is not None:
            return r
        level, lo, hi = self.nodes[f]
        r = self.mk(level, self.not_(lo), self.not_(hi))
        self.cache[key] = r
        return r

    def and_(self, f: int, g: int) -> int:
        if f == g or g == 1:
            return f
        if f == 1:
            return g
        if f == 0 or g == 0:
            return 0
        if f > g:
            f, g = g, f
        key = ("a", f, g)
        r = self.cache.get(key)
        if r is not None:
            return r
        fl, f0, f1 = self.nodes[f]
        gl, g0, g1 = self.nodes[g]
        if fl == gl:
            r = self.mk(fl, self.and_(f0, g0), self.and_(f1, g1))
        elif fl < gl:
            r = self.mk(fl, self.and_(f0, g), self.and_(f1, g))
        else:
            r = self.mk(gl, self.and_(f, g0), self.and_(f, g1))
        self.cache[key] = r
        return r

    def or_(self, f: int, g: int) -> int:
        if f == g or g == 0:
            return f
        if f == 0:
            return g
        if f == 1 or g == 1:
            return 1
        if f > g:
            f, g = g, f
        key = ("o", f, g)
        r = self.cache.get(key)
        if r is not None:
            return r
        fl, f0, f1 = self.nodes[f]
        gl, g0, g1 = self.nodes[g]
        if fl == gl:
            r = self.mk(fl, self.or_(f0, g0), self.or_(f1, g1))
        elif fl < gl:
            r = self.mk(fl, self.or_(f0, g), self.or_(f1, g))
        else:
            r = self.mk(gl, self.or_(f, g0), self.or_(f, g1))
        self.cache[key] = r
        return r

    def implies(self, f: int, g: int) -> int:
        return self.or_(self.not_(f), g)

    def iff_(self, f: int, g: int) -> int:
        return self.or_(self.and_(f, g), self.and_(self.not_(f), self.not_(g)))

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

    def and_exist(self, f: int, g: int, levels: frozenset[int]) -> int:
        """∃ levels. (f ∧ g), without building the full conjunction."""
        return self._and_exist(f, g, levels, self._qid(levels))

    def _and_exist(self, f: int, g: int, levels: frozenset[int], qid: int) -> int:
        if f == 0 or g == 0:
            return 0
        if f == 1 and g == 1:
            return 1
        if f > g:
            f, g = g, f
        key = ("ae", f, g, qid)
        r = self.cache.get(key)
        if r is not None:
            return r
        fl, f0, f1 = self.nodes[f]
        gl, g0, g1 = self.nodes[g]
        if fl < gl:
            level, g0, g1 = fl, g, g
        elif gl < fl:
            level, f0, f1 = gl, f, f
        else:
            level = fl
        if level in levels:
            # a quantified level whose low branch is already true needs
            # no high branch
            r = self._and_exist(f0, g0, levels, qid)
            if r != 1:
                r = self.or_(r, self._and_exist(f1, g1, levels, qid))
        else:
            r = self.mk(level, self._and_exist(f0, g0, levels, qid),
                        self._and_exist(f1, g1, levels, qid))
        self.cache[key] = r
        return r

    # --- renaming (mapping must be monotone on the support) ---

    def rename(self, f: int, mapping: dict[int, int]) -> int:
        rid = self._rename_ids.setdefault(tuple(sorted(mapping.items())), len(self._rename_ids))
        return self._rename(f, mapping, rid)

    def _rename(self, f: int, mapping: dict[int, int], rid: int) -> int:
        if f < 2:
            return f
        key = ("r", f, rid)
        r = self.cache.get(key)
        if r is not None:
            return r
        level, lo, hi = self.nodes[f]
        r = self.mk(mapping.get(level, level),
                    self._rename(lo, mapping, rid), self._rename(hi, mapping, rid))
        self.cache[key] = r
        return r

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
        """The conjunction of the assigned literals: one path, built from
        the deepest level up."""
        out = 1
        for level in sorted(assignment, reverse=True):
            out = self.mk(level, 0, out) if assignment[level] else self.mk(level, out, 0)
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
