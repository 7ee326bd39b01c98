"""Exact minimum-weight perfect matching on general graphs.

The solver is a primal-dual blossom algorithm with Edmonds' shrinking.  It
maximizes weight in max-cardinality mode on the negated weights, which
yields the minimum-weight perfect matching whenever one exists; missing
edges hold a strongly negative sentinel weight so that a "perfect"
matching through a sentinel edge is exactly the witness that no true
perfect matching exists.  The sentinel, -(1 + 2 n max|w|), outweighs any
difference in real weight; inputs whose sentinel leaves no head-room below
the solver's infinity raise MatchingError.  The vertex count must be even,
as it always is for the cut oracle's odd-degree faces (handshake lemma); an
odd count raises MatchingError.

Like Blossom V (Kolmogorov 2009), the solver does not start from an empty
matching with uniform duals.  Each vertex dual starts at half the largest
entry of its (negated, doubled) weight row, rounded up to an even integer,
which makes every slack nonnegative; then each free vertex in index order
lowers its dual by its minimum slack and is matched to the lowest-index
free vertex on a now tight edge.  Every slack stays nonnegative, every
matched edge is tight and there are no blossoms, so the primal-dual stages
start from there.  On the cut oracle's metric-closure matrices this greedy
start leaves few vertices free, and the augmentation count drops
accordingly.

A stage grows an alternating forest from the free vertices, labelling each
top-level blossom 0 (free), 1 (S) or 2 (T).  It ends at an augmentation, or
when a dual update takes a T-blossom's dual to zero: that blossom is
expanded and the next stage grows a new forest, where the classic algorithm
relabels the forest in place.  So the classic O(V^3) bound per stage no
longer holds; between two positive dual updates a stage may restart once
per blossom.  Restarts are few on the cut oracle's matrices (README.md
gives counts).

`match_dense(weights, mask)` is the one entry to the solver: a symmetric
weight matrix plus a boolean mask of real edges in, the mate array and
the final vertex potentials out.  The matrix holds integers, which the
cut oracle scales its weights to, and the solver works in exact int64
arithmetic.  Negation, doubling and the sentinel are applied inside
the solver, so callers pass plain minimum-weight costs.

The potentials are the vertex part of the solver's final LP dual, in the
caller's units: pi = -y / 2 for the stored (negated, doubled) duals y.
Every real pair (i, j) has w_ij >= pi_i + pi_j - z_ij and every matched
pair w_ij = pi_i + pi_j - z_ij, where z_ij >= 0 sums the duals of the
final blossoms that hold both i and j; pairs in no common blossom have
z_ij = 0.  So when the result uses real edges only and every pair the
mask left out weighs at least pi_i + pi_j, the dual stays feasible with
those pairs added, and the matching is optimal over all pairs.  The cut
oracle prices the terminal pairs its bounded search did not reach this
way, and keeps a matching when the pairs a repair search adds all weigh
at least pi_i + pi_j.  The potentials are half-integers, exact while
|y| < 2**53.

The implementation keeps a dense weight matrix and performs the hot
per-vertex scans as vectorized numpy operations; blossom bookkeeping stays
in plain Python.  A dual update takes the least of three steps: the slack
from an S-vertex to a free vertex, read from a cache of each vertex's best
slack to the S-vertices scanned so far; half the least slack between
S-vertices of different top-level blossoms, from one dense block over the
S-vertices; and the dual of a T-blossom.  The edge that sets the step is
tight afterwards and is used at once to grow, shrink or augment.

Duals follow the doubled convention: vertex duals are stored as 2*y so all
dual adjustments stay integral.  As in Galil (1986), this needs every S-S
slack to be even: the duals start even, so the free vertices that root each
stage's forest share one parity, and tight edges pass it on to every
labeled vertex.  An odd S-S slack raises MatchingError.
"""

from __future__ import annotations

import numpy as np


class MatchingError(ValueError):
    pass


def match_dense(weights: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-weight maximum-cardinality matching on a dense matrix.

    `weights` is a symmetric n x n integer matrix with n even, read only
    where the symmetric boolean `mask` is True (the real edges; its
    diagonal is ignored).  Returns (mate, pi).  mate[v] is v's partner.  A
    pair outside `mask` in the result means the real edges admit no
    perfect matching; the result has the most real edges possible, and
    among those the least weight.  pi is the float64 vertex potential
    array described in the module docstring.  An odd n or a matrix that is
    not integer raises MatchingError.
    """
    return _DenseBlossom(weights, mask).solve()


class _DenseBlossom:
    """Max-weight matching in max-cardinality mode on a dense matrix.

    Vertex ids 0..n-1; blossom ids n..2n-1, unused while their base is -1
    (a new blossom takes the lowest such id).  Missing edges hold a strongly
    negative sentinel weight, which max-cardinality mode will only match
    when no real perfect matching exists.
    """

    INF = 2**62

    def __init__(self, weights: np.ndarray, mask: np.ndarray):
        self.n = n = np.shape(weights)[0]
        if n % 2:
            raise MatchingError(f"vertex count {n} is odd")
        weights = np.asarray(weights)
        if not np.issubdtype(weights.dtype, np.integer):
            raise MatchingError(f"weights must be integers, not {weights.dtype}")
        real = np.asarray(mask, dtype=bool) & ~np.eye(n, dtype=bool)
        # 0 off the mask, so plain reductions give max|w|
        self.W2 = np.where(real, weights, 0).astype(np.int64, copy=False)
        maxabs = max(int(self.W2.max(initial=0)), -int(self.W2.min(initial=0)))
        # one missing edge must outweigh any difference in real weight, so
        # the sentinel is derived from the weights, never a fixed constant
        nonedge = -(1 + 2 * n * maxabs)
        if -16 * nonedge >= self.INF:
            # duals and slacks stay within a few multiples of |nonedge|
            raise MatchingError(f"weights up to {maxabs} leave no head-room for the sentinel")
        # W2 holds negated (the solver maximizes), doubled weights so slacks
        # stay integral.
        self.W2 *= -2
        self.W2[~real] = 2 * nonedge

    # -- solver state ---------------------------------------------------

    def _greedy_start(self):
        """Dual-feasible duals and a greedy matching on tight edges, as the
        module docstring describes."""
        n = self.n
        if n == 0:
            return
        # the diagonal holds the sentinel, the smallest entry of each row
        top = self.W2.max(axis=1)
        # duals start even (top / 2 rounded up), and the greedy steps below
        # subtract even slacks, so they stay even
        self.y[:n] = 2 * -(-top // 4)
        for v in range(n):
            if self.mate[v] >= 0:
                continue
            slack = self._slack_row(v)
            slack[v] = self.INF
            s = slack.min()
            self.y[v] -= s
            tight = ((slack == s) & (self.mate < 0)).nonzero()[0]
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

    # -- labeling -------------------------------------------------------

    def _assign_label(self, w: int, t: int, edge):
        b = int(self.inblossom[w])
        if self.label[b]:
            raise MatchingError(f"vertex {w} is labeled twice in one stage")
        self.label[b] = t
        self.labeledge[b] = edge
        if t == 1:
            self.queue.extend(self._leaves(b))
        else:
            bb = int(self.base[b])
            m = int(self.mate[bb])
            if m < 0:
                raise MatchingError(f"T-blossom base {bb} is unmatched")
            self._assign_label(m, 1, (bb, m))

    def _scan_blossom(self, v: int, w: int) -> int:
        """Common base of the trees of v and w, or -1 for distinct trees."""
        marked = set()
        vv, ww = v, w
        while vv != -1 or ww != -1:
            if vv != -1:
                b = int(self.inblossom[vv])
                if b in marked:
                    return int(self.base[b])
                if self.label[b] != 1:
                    raise MatchingError(f"tree walk reached non-S blossom {b}")
                marked.add(b)
                if self.labeledge[b] is None:
                    vv = -1  # tree root
                else:
                    far = self.labeledge[b][0]
                    bt = int(self.inblossom[far])
                    if self.label[bt] != 2:
                        raise MatchingError(f"tree walk reached non-T blossom {bt}")
                    vv = self.labeledge[bt][0]
            if ww != -1:
                vv, ww = ww, vv
        return -1

    # -- blossom surgery ------------------------------------------------

    def _add_blossom(self, base_vertex: int, v: int, w: int):
        bb = int(self.inblossom[base_vertex])
        bv = int(self.inblossom[v])
        bw = int(self.inblossom[w])
        b = self.n + int(np.argmax(self.base[self.n :] < 0))

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

    def _expand_blossom(self, b: int):
        """Dissolve zero-dual top-level blossom b and its zero-dual children.

        Children keep their inner matching; the stage then ends, so no tree
        label needs repair.  Blossoms can nest a thousand deep, so the
        zero-dual children wait on an explicit stack, not on the call stack."""
        stack = [b]
        while stack:
            b = stack.pop()
            for s in self.childs[b]:
                self.parent[s] = -1
                if s < self.n:
                    self.inblossom[s] = s
                elif self.y[s] == 0:
                    stack.append(s)
                else:
                    self.inblossom[self._leaves(s)] = s
            self.childs[b] = None
            self.cycedges[b] = None
            self.base[b] = -1
            self.active_blossoms.discard(b)

    # -- augmenting -----------------------------------------------------

    def _augment_blossom(self, b: int, v: int):
        """Make v the base of blossom b, rematching along its cycle.

        Each sub-blossom on the way is augmented before the edges beside
        it are rematched.  As in networkx's `max_weight_matching`, the
        nested calls are generators on an explicit stack: blossoms can
        nest deeper than Python's recursion limit."""
        stack = [self._augment_steps(b, v)]
        while stack:
            sub = next(stack[-1], None)
            if sub is None:
                stack.pop()
            else:
                stack.append(self._augment_steps(*sub))

    def _augment_steps(self, b: int, v: int):
        """`_augment_blossom`'s body; yields each (sub-blossom, vertex) pair
        that must be augmented before it goes on."""
        t = v
        while self.parent[t] != b:
            t = int(self.parent[t])
        if t >= self.n:
            yield t, v
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
                yield ch[j], a
            nxt = ch[(j + 1) % L]
            if nxt >= self.n:
                yield nxt, c
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

    # -- stage ------------------------------------------------------------

    def _use_edge(self, v: int, w: int) -> bool:
        """Grow, shrink or augment along tight edge (v, w) from S-vertex v.
        Returns True on augmentation."""
        bw = int(self.inblossom[w])
        if bw == self.inblossom[v]:
            return False
        lb = self.label[bw]
        if lb == 0:
            self._assign_label(w, 2, (v, w))
        elif lb == 1:
            bse = self._scan_blossom(v, w)
            if bse < 0:
                self._augment_matching(v, w)
                return True
            self._add_blossom(bse, v, w)
        return False

    def _scan_vertex(self, v: int) -> bool:
        """Use the tight edges at S-vertex v. Returns True on augmentation."""
        s2row = self.y[v] - self.W2[v]
        improved = s2row < self.s2val
        np.copyto(self.s2val, s2row, where=improved)
        np.putmask(self.s2arg, improved, v)
        tight = (s2row + self.y[: self.n] <= 0).nonzero()[0]
        for w in tight[self.inblossom[tight] != self.inblossom[v]].tolist():
            if self._use_edge(v, w):
                return True
        return False

    def _dual_update(self, lab):
        """The least dual step, as (delta, edge, blossom): `edge` (S-vertex
        first) is tight after the step, or T-blossom `blossom` has dual 0.
        `lab` holds each vertex's top-level label (0 free, 1 S, 2 T)."""
        n = self.n
        delta, edge, blossom = self.INF, None, None
        slack = np.where(lab == 0, self.s2val + self.y[:n], self.INF)
        i = int(np.argmin(slack))
        if slack[i] < self.INF:
            delta, edge = slack[i], (int(self.s2arg[i]), i)
        sv = (lab == 1).nonzero()[0]
        tops = self.inblossom[sv]
        ysv = self.y[sv]
        ss = ysv[:, None] + ysv - self.W2.take(sv, 0).take(sv, 1)
        ss[tops[:, None] == tops[None, :]] = self.INF
        if ss.size:
            r, c = divmod(int(np.argmin(ss)), sv.size)
            if ss[r, c] < self.INF:
                if ss[r, c] % 2:
                    raise MatchingError(f"odd slack between S-vertices {sv[r]} and {sv[c]}")
                half = ss[r, c] // 2
                if half < delta:
                    delta, edge = half, (int(sv[r]), int(sv[c]))
        for b in self.active_blossoms:
            if self.parent[b] == -1 and self.label[b] == 2 and self.y[b] < delta:
                delta, edge, blossom = self.y[b], None, b
        if delta >= self.INF:
            # n is even and missing edges hold the sentinel, so a perfect
            # matching exists and some tree can always grow
            raise MatchingError("no dual update with free vertices left")
        return delta, edge, blossom

    def solve(self):
        """The greedy start, then primal-dual stages until every vertex is
        matched: (mate, pi) as `match_dense` returns them."""
        n = self.n
        self.y = np.zeros(2 * n, dtype=np.int64)
        self.mate = np.full(n, -1, dtype=np.int64)
        self.inblossom = np.arange(n, dtype=np.int64)
        self.parent = np.full(2 * n, -1, dtype=np.int64)
        self.base = np.full(2 * n, -1, dtype=np.int64)
        self.base[:n] = np.arange(n)
        self.childs: list = [None] * (2 * n)
        self.cycedges: list = [None] * (2 * n)
        self.active_blossoms: set[int] = set()
        self._greedy_start()
        while True:
            # new stage
            free = (self.mate < 0).nonzero()[0].tolist()
            if not free:
                return self.mate, self.y[:n] / -2
            self.label = np.zeros(2 * n, dtype=np.int8)
            self.labeledge: list = [None] * (2 * n)
            self.s2val = np.full(n, self.INF, dtype=np.int64)
            self.s2arg = np.full(n, -1, dtype=np.int64)
            self.queue: list[int] = []
            for v in free:
                if self.label[self.inblossom[v]] == 0:
                    self._assign_label(v, 1, None)
            while True:
                augmented = False
                while self.queue and not augmented:
                    augmented = self._scan_vertex(self.queue.pop())
                if augmented:
                    break
                lab = self.label[self.inblossom]
                delta, edge, blossom = self._dual_update(lab)
                yv = self.y[:n]
                np.subtract(yv, delta, out=yv, where=lab == 1)
                np.add(yv, delta, out=yv, where=lab == 2)
                self.s2val -= delta
                for b in self.active_blossoms:
                    if self.parent[b] == -1:
                        lb = self.label[b]
                        if lb == 1:
                            self.y[b] += delta
                        elif lb == 2:
                            self.y[b] -= delta
                if blossom is not None:
                    # Blossoms are checked last, so the chosen one has the
                    # minimum and its dual is now zero: expand it and start
                    # a new stage.  Restarts terminate: each follows either a
                    # positive dual update (delta = y_b > 0) or the expansion
                    # of a zero-dual blossom that already existed, and
                    # blossoms formed with zero dual during a stage are
                    # expanded at that stage's end.  So between two positive
                    # dual updates there are at most as many restarts as
                    # blossoms.
                    self._expand_blossom(blossom)
                    break
                if self._use_edge(*edge):
                    break
            # the stage ended with an augmentation or a T-blossom expansion
            for b in list(self.active_blossoms):
                if (
                    self.parent[b] == -1
                    and self.base[b] >= 0
                    and self.label[b] == 1
                    and self.y[b] == 0
                ):
                    self._expand_blossom(b)
