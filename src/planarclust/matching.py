"""Exact minimum-weight perfect matching on general graphs.

The solver is a primal-dual blossom algorithm with Edmonds' shrinking.  It
maximizes weight in max-cardinality mode on the negated weights, which
yields the minimum-weight perfect matching whenever one exists; missing
edges are padded with a strongly negative sentinel so that a "perfect"
matching through a sentinel edge is exactly the witness that no true
perfect matching exists.  The sentinel, -(1 + 2 n max|w|), outweighs any
difference in real weight; int64 inputs whose sentinel leaves no head-room
below the solver's infinity raise MatchingError.  An odd vertex count gets
one dummy vertex joined to all at weight 0, so the solver always seeks a
perfect matching.

Like Blossom V (Kolmogorov 2009), the solver does not start from an empty
matching with uniform duals.  Each vertex dual starts at half the largest
entry of its (negated, doubled) weight row, which makes every slack
nonnegative; then each free vertex in index order lowers its dual by its
minimum slack and is matched to the lowest-index free vertex on a now
tight edge.  Every slack stays nonnegative, every matched edge is tight and
there are no blossoms, so the primal-dual stages start from there.  On the
cut oracle's metric-closure matrices this greedy start leaves few vertices
free, and the augmentation count drops accordingly.

A stage grows an alternating forest from the free vertices.  It ends at an
augmentation, or when a dual update takes a T-blossom's dual to zero: that
blossom is expanded and the next stage grows a new forest, where the
classic algorithm relabels the forest in place.  So the classic O(V^3)
bound per stage no longer holds; between two positive dual updates a stage
may restart once per blossom.  Restarts are rare on the cut oracle's
matrices.  On the oracle inputs of the benchmark's seed-0 rounds, 30 of
312 grid-gpb solves restarted (74 restarts), 46 of 3876 planar-desk solves
(49) and none of 3326 decode-recursive solves.  The oracle inputs of one
bound run on a GPB grid (beta 0.27, seed 0) took 18 restarts at 50x50 and
22 at 70x70.

`match_dense(weights, mask)` is the one entry to the solver: a symmetric
weight matrix plus a boolean mask of real edges in, the mate array out.
The matrix's dtype selects the arithmetic: int64 is exact, float64 uses a
relative tie tolerance of 1e-12.  Negation, doubling and sentinel padding
happen inside the solver, so callers pass plain minimum-weight costs.
Choosing the dtype is the caller's job: the cut oracle scales short
decimal weights to int64 before it builds the matrix.

The implementation keeps a dense weight matrix and performs the hot
per-vertex scans (slack rows, best-edge tracking for dual updates) as
vectorized numpy operations; blossom bookkeeping stays in plain Python.
Duals follow the doubled convention: vertex duals are stored as 2*y so all
dual adjustments stay integral for integer weights.
"""

from __future__ import annotations

import numpy as np


class MatchingError(ValueError):
    pass


def match_dense(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Minimum-weight maximum-cardinality matching on a dense matrix.

    `weights` is a symmetric n x n matrix, read only where the symmetric
    boolean `mask` is True (the real edges).  An int64 matrix is solved in
    exact integer arithmetic, a float64 one with a relative tie tolerance.
    Returns the mate array: mate[v] is v's partner, or -1 for the one
    vertex left unmatched when n is odd.  A pair outside `mask` in the
    result means the real edges admit no perfect matching; the result
    has the most real edges possible, and among those the least weight.
    """
    return _DenseBlossom(weights, mask).solve()


class _DenseBlossom:
    """Max-weight matching in max-cardinality mode on a dense matrix.

    Vertex ids 0..n-1; blossom ids n..2n-1.  Missing edges hold a strongly
    negative sentinel weight, which max-cardinality mode will only match
    when no real perfect matching exists.
    """

    def __init__(self, weights: np.ndarray, mask: np.ndarray):
        weights = np.asarray(weights)
        mask = np.asarray(mask, dtype=bool)
        self.size = weights.shape[0]
        if self.size % 2:
            # a dummy vertex joined to all at weight 0 turns a maximum
            # matching of an odd vertex set into a perfect one
            weights = np.pad(weights, (0, 1))
            mask = np.pad(mask, (0, 1), constant_values=True)
        self.n = n = weights.shape[0]
        self.integer = np.issubdtype(weights.dtype, np.integer)
        self.dtype = np.int64 if self.integer else np.float64
        self.INF = 2**62 if self.integer else np.inf
        real = mask & ~np.eye(n, dtype=bool)
        maxabs = np.abs(weights[real]).max(initial=0)
        maxabs = int(maxabs) if self.integer else float(maxabs)
        self.tol = 0 if self.integer else 1e-12 * max(1.0, 2 * maxabs)
        # one missing edge must outweigh any difference in real weight, so
        # the sentinel is derived from the weights, never a fixed constant
        nonedge = -(1 + 2 * n * maxabs)
        if -16 * nonedge >= self.INF:
            # duals and slacks stay within a few multiples of |nonedge|
            raise MatchingError(f"weights up to {maxabs} leave no head-room for the sentinel")
        # W2 holds negated (the solver maximizes), doubled weights so slacks
        # stay integral.
        self.W2 = np.where(real, -2 * weights.astype(self.dtype), 2 * nonedge)

    # -- solver state ---------------------------------------------------

    def _init_state(self):
        n = self.n
        self.y = np.zeros(2 * n, dtype=self.dtype)
        self.mate = np.full(n, -1, dtype=np.int64)
        self.label = np.zeros(2 * n, dtype=np.int8)
        self.labeledge: list = [None] * (2 * n)
        self.inblossom = np.arange(n, dtype=np.int64)
        self.parent = np.full(2 * n, -1, dtype=np.int64)
        self.base = np.full(2 * n, -1, dtype=np.int64)
        self.base[:n] = np.arange(n)
        self.childs: list = [None] * (2 * n)
        self.cycedges: list = [None] * (2 * n)
        self.free_ids = list(range(2 * n - 1, n - 1, -1))
        self.active_blossoms: set[int] = set()
        self.vlabel = np.zeros(n, dtype=np.int8)
        self.s2val = np.full(n, self.INF, dtype=self.dtype)
        self.s2arg = np.full(n, -1, dtype=np.int64)
        self.queue: list[int] = []
        self.allowed: set[tuple[int, int]] = set()
        self._greedy_start()

    def _greedy_start(self):
        """Dual-feasible duals and a greedy matching on tight edges, as the
        module docstring describes."""
        n = self.n
        if n == 0:
            return
        # the diagonal holds the sentinel, the smallest entry of each row
        top = self.W2.max(axis=1)
        self.y[:n] = top // 2 if self.integer else top / 2
        for v in range(n):
            if self.mate[v] >= 0:
                continue
            slack = self._slack_row(v)
            slack[v] = self.INF
            s = slack.min()
            self.y[v] -= s
            tight = np.flatnonzero((slack - s <= self.tol) & (self.mate < 0))
            if tight.size:
                u = int(tight[0])
                self.mate[v] = u
                self.mate[u] = v

    def _leaves(self, b: int):
        if b < self.n:
            return [b]
        out = []
        stack = [b]
        while stack:
            t = stack.pop()
            if t < self.n:
                out.append(t)
            else:
                stack.extend(self.childs[t])
        return out

    def _slack_row(self, v: int):
        return self.y[v] + self.y[: self.n] - self.W2[v]

    def _slack(self, u: int, v: int):
        return self.y[u] + self.y[v] - self.W2[u, v]

    # -- labeling -------------------------------------------------------

    def _assign_label(self, w: int, t: int, edge):
        b = int(self.inblossom[w])
        if self.label[b]:
            raise MatchingError(f"vertex {w} is labeled twice in one stage")
        self.label[b] = t
        self.labeledge[b] = edge
        leaves = self._leaves(b)
        self.vlabel[leaves] = t
        if t == 1:
            self.queue.extend(leaves)
        else:
            bb = int(self.base[b])
            m = int(self.mate[bb])
            if m < 0:
                raise MatchingError(f"T-blossom base {bb} is unmatched")
            self._assign_label(m, 1, (bb, m))

    def _scan_blossom(self, v: int, w: int) -> int:
        """Common base of the trees of v and w, or -1 for distinct trees."""
        marked = []
        found = -1
        vv, ww = v, w
        while vv != -1 or ww != -1:
            if vv != -1:
                b = int(self.inblossom[vv])
                if self.label[b] & 4:
                    found = int(self.base[b])
                    break
                if self.label[b] & 3 != 1:
                    raise MatchingError(f"tree walk reached non-S blossom {b}")
                marked.append(b)
                self.label[b] |= 4
                if self.labeledge[b] is None:
                    vv = -1  # tree root
                else:
                    far = self.labeledge[b][0]
                    bt = int(self.inblossom[far])
                    if self.label[bt] & 3 != 2:
                        raise MatchingError(f"tree walk reached non-T blossom {bt}")
                    vv = self.labeledge[bt][0]
            if ww != -1:
                vv, ww = ww, vv
        for b in marked:
            self.label[b] &= ~4
        return found

    # -- blossom surgery ------------------------------------------------

    def _add_blossom(self, base_vertex: int, v: int, w: int):
        bb = int(self.inblossom[base_vertex])
        bv = int(self.inblossom[v])
        bw = int(self.inblossom[w])
        b = self.free_ids.pop()

        def chain_up(btop):
            out = []
            while btop != bb:
                edge = self.labeledge[btop]
                out.append((btop, edge))
                btop = int(self.inblossom[edge[0]])
            return out

        cv = chain_up(bv)
        cw = chain_up(bw)
        childs = [bb]
        cyc = []
        for bl, (far, near) in reversed(cv):
            childs.append(bl)
            cyc.append((far, near))
        cyc.append((v, w))
        for bl, (far, near) in cw:
            childs.append(bl)
            cyc.append((near, far))
        if len(childs) % 2 == 0:
            raise MatchingError(f"blossom at base {base_vertex} has an even cycle")

        self.base[b] = base_vertex
        self.parent[b] = -1
        self.childs[b] = childs
        self.cycedges[b] = cyc
        self.label[b] = 1
        self.labeledge[b] = self.labeledge[bb]
        self.y[b] = 0
        self.active_blossoms.add(b)
        for s in childs:
            self.parent[s] = b
        for leaf in self._leaves(b):
            if self.label[self.inblossom[leaf]] == 2:
                # former T-vertex becomes S; it must be scanned
                self.queue.append(leaf)
            self.inblossom[leaf] = b
            self.vlabel[leaf] = 1

    def _expand_blossom(self, b: int):
        """Dissolve zero-dual top-level blossom b and its zero-dual children.

        Children keep their inner matching; the stage then ends, so no tree
        label needs repair."""
        for s in self.childs[b]:
            self.parent[s] = -1
            if s < self.n:
                self.inblossom[s] = s
            elif self.y[s] == 0:
                self._expand_blossom(s)
            else:
                self.inblossom[self._leaves(s)] = s
        self.childs[b] = None
        self.cycedges[b] = None
        self.base[b] = -1
        self.active_blossoms.discard(b)
        self.free_ids.append(b)

    # -- augmenting -----------------------------------------------------

    def _augment_blossom(self, b: int, v: int):
        t = v
        while self.parent[t] != b:
            t = int(self.parent[t])
        if t >= self.n:
            self._augment_blossom(t, v)
        ch = self.childs[b]
        ce = self.cycedges[b]
        L = len(ch)
        i = ch.index(t)
        if i % 2 == 0:
            pairs = range(i - 2, -1, -2)
        else:
            pairs = range(i + 1, L, 2)
        for j in pairs:
            a, c = ce[j]
            if ch[j] >= self.n:
                self._augment_blossom(ch[j], a)
            nxt = ch[(j + 1) % L]
            if nxt >= self.n:
                self._augment_blossom(nxt, c)
            self.mate[a] = c
            self.mate[c] = a
        self.childs[b] = ch[i:] + ch[:i]
        self.cycedges[b] = ce[i:] + ce[:i]
        self.base[b] = v if t < self.n else self.base[t]

    def _augment_matching(self, v: int, w: int):
        for s, p in ((v, w), (w, v)):
            while True:
                bs = int(self.inblossom[s])
                if self.label[bs] != 1:
                    raise MatchingError(f"augmenting path leaves S-blossom {bs}")
                if bs >= self.n:
                    self._augment_blossom(bs, s)
                self.mate[s] = p
                if self.labeledge[bs] is None:
                    break
                t = self.labeledge[bs][0]
                bt = int(self.inblossom[t])
                if self.label[bt] != 2:
                    raise MatchingError(f"augmenting path leaves T-blossom {bt}")
                far, near = self.labeledge[bt]
                if bt >= self.n:
                    self._augment_blossom(bt, near)
                self.mate[near] = far
                s, p = far, near

    # -- dual machinery ---------------------------------------------------

    def _mark_allowed(self, u: int, v: int):
        self.allowed.add((u, v) if u < v else (v, u))

    def _scan_vertex(self, v: int) -> bool:
        """Process tight edges at S-vertex v. Returns True on augmentation."""
        n = self.n
        row = self._slack_row(v)
        s2row = self.y[v] - self.W2[v]
        improved = s2row < self.s2val
        if improved.any():
            self.s2val[improved] = s2row[improved]
            self.s2arg[improved] = v
        tight = np.flatnonzero(row <= self.tol)
        cand = list(tight)
        if self.allowed:
            for (a, c) in self.allowed:
                if a == v and row[c] > self.tol:
                    cand.append(c)
                elif c == v and row[a] > self.tol:
                    cand.append(a)
        for w in cand:
            w = int(w)
            if w == v or self.inblossom[w] == self.inblossom[v]:
                continue
            bw = int(self.inblossom[w])
            lb = self.label[bw] & 3
            if lb == 0:
                self._assign_label(w, 2, (v, w))
            elif lb == 1:
                bse = self._scan_blossom(v, w)
                if bse >= 0:
                    self._add_blossom(bse, v, w)
                else:
                    self._augment_matching(v, w)
                    return True
        return False

    def _delta3(self):
        """Min half-slack over S-S edges between different top blossoms."""
        sv = np.flatnonzero(self.vlabel == 1)
        if sv.size < 2:
            return None, None
        cand = self.s2val[sv] + self.y[sv]
        args = self.s2arg[sv]
        has = args >= 0
        if not has.any():
            return None, None
        tops = self.inblossom[sv]
        argtops = np.where(has, self.inblossom[np.maximum(args, 0)], -1)
        valid = has & (argtops != tops)
        best_val = None
        best_pair = None
        if valid.any():
            i = int(np.argmin(np.where(valid, cand, self.INF)))
            best_val = cand[i]
            best_pair = (int(args[i]), int(sv[i]))
        # vertices whose stored best partner sits in their own blossom may
        # hide a valid cross-blossom edge at larger slack
        rows = sv[has & ~valid]
        if rows.size:
            sub = self.y[rows, None] + self.y[None, sv] - self.W2[np.ix_(rows, sv)]
            sub = np.where(self.inblossom[rows, None] == tops[None, :], self.INF, sub)
            r, c = divmod(int(np.argmin(sub)), sv.size)
            if sub[r, c] < (self.INF if best_val is None else best_val):
                best_val = sub[r, c]
                best_pair = (int(sv[c]), int(rows[r]))
        if best_val is None or best_val >= self.INF:
            return None, None
        half = best_val // 2 if self.integer else best_val / 2
        return half, best_pair

    def solve(self):
        self._init_state()
        n = self.n
        while True:
            # new stage
            self.label[:] = 0
            self.labeledge = [None] * (2 * n)
            self.vlabel[:] = 0
            self.s2val[:] = self.INF
            self.s2arg[:] = -1
            self.queue = []
            self.allowed = set()
            free = [v for v in range(n) if self.mate[v] == -1]
            if not free:
                mate = self.mate[: self.size]
                return np.where(mate < self.size, mate, -1)
            for v in free:
                if self.label[self.inblossom[v]] == 0:
                    self._assign_label(v, 1, None)
            while True:
                augmented = False
                while self.queue and not augmented:
                    augmented = self._scan_vertex(self.queue.pop())
                if augmented:
                    break
                # dual update
                delta = d_edge = d_blossom = None
                freemask = self.vlabel == 0
                if freemask.any():
                    cand2 = np.where(freemask, self.s2val + self.y[:n], self.INF)
                    i = int(np.argmin(cand2))
                    if cand2[i] < self.INF and self.s2arg[i] >= 0:
                        delta = cand2[i]
                        d_edge = (int(self.s2arg[i]), i)
                d3, pair3 = self._delta3()
                if d3 is not None and (delta is None or d3 < delta):
                    delta = d3
                    d_edge = pair3
                for b in self.active_blossoms:
                    if self.parent[b] == -1 and self.label[b] & 3 == 2:
                        if delta is None or self.y[b] < delta:
                            delta = self.y[b]
                            d_blossom = b
                if delta is None:
                    # n is even and missing edges hold the sentinel, so a
                    # perfect matching exists and some tree can always grow
                    raise MatchingError("no dual update with free vertices left")
                if not self.integer:
                    delta = max(delta, 0.0)
                self.y[:n][self.vlabel == 1] -= delta
                self.y[:n][self.vlabel == 2] += delta
                self.s2val -= delta
                for b in self.active_blossoms:
                    if self.parent[b] == -1:
                        lb = self.label[b] & 3
                        if lb == 1:
                            self.y[b] += delta
                        elif lb == 2:
                            self.y[b] -= delta
                if d_blossom is not None:
                    # Blossoms are checked last, so the chosen one has the
                    # minimum and its dual is now zero: expand it and start
                    # a new stage.  Restarts terminate: each follows either a
                    # positive dual update (delta = y_b > 0) or the expansion
                    # of a zero-dual blossom that already existed, and
                    # blossoms formed with zero dual during a stage are
                    # expanded at that stage's end.  So between two positive
                    # dual updates there are at most as many restarts as
                    # blossoms.
                    self._expand_blossom(d_blossom)
                    break
                u, w = d_edge
                self._mark_allowed(u, w)
                self.queue.append(u)
            # the stage ended with an augmentation or a T-blossom expansion
            for b in list(self.active_blossoms):
                if (
                    self.parent[b] == -1
                    and self.base[b] >= 0
                    and self.label[b] & 3 == 1
                    and self.y[b] == 0
                ):
                    self._expand_blossom(b)
