"""The argument-principle zero search of the finite-difference oracle and the two-point route.

find_zeros takes any function that gives its values and derivatives on
arrays of kappa, such as the oracle's interface determinant F and the
rescaled two-point dispersion.  The zeros are counted by the argument
principle and isolated by subdivision over a rectangle of the kappa upper
half-plane (Kravanja & Van Barel, LNM 1727, 2000), then refined by Newton
steps (_newton).  The subdivision first cuts a fixed grid of columns and
heights, in one pass after the boundary when all its inner lines stay
within a node budget (NODES_PER_PASS); a larger grid is cut pass by pass,
each at every grid line inside its boxes when those lines stay within the
budget, else at their middle lines.  The refinement runs in lockstep
(_lockstep): each step evaluates f once, at every live iterate of the
Newton steps and of the search on the imaginary axis, so that a solve
takes few sequential calls of f.  The bottom edge may pass just
above zeros, such as the two-point dispersion's real-axis spectral
singularities or the box-truncated continuum of the tests' walled
determinant, each of which turns the phase by about pi within that distance;
phase tracking (_track) locates such a zero by Newton steps and divides it
out of the segment instead of bisecting down to its scale.  Zeros closer
than CLUSTER |kappa|, such as the double zeros of decoupled mirror-image
halves, come out at their mean (_cluster).  The zeros of a function with
f(-conj k) = +-conj f(k), such as the determinant of a model invariant under
reflection plus conjugation (PT), are mirror images under kappa ->
-conj(kappa), so only Re kappa >= 0 is searched and the imaginary axis is
solved as a real problem: its roots are refined by Newton steps on F(i y),
kept inside the bracket of a sign change.
"""

import math

import numpy as np

from .errors import ContourThroughZero, EigensolverFailure

# the bottom edge Im kappa = BOTTOM_EDGE, just over the real axis, of the oracle's search
# and of the default two-point contour; the two-point route searches at most MAX_COLUMNS
# columns, and the oracle MAX_COLUMNS for an origin model
BOTTOM_EDGE = 1e-6
MAX_COLUMNS = 64

# a pass of the grid stage (_Search.run) cuts each of its boxes at every grid line inside
# it when those lines start from at most NODES_PER_PASS nodes in all, else at its middle line
NODES_PER_PASS = 512

# along every edge but the bottom one, initial nodes max(dx, y) / NODES_PER_GAP apart at
# height y, dx the column width, and at least NODES_PER_EDGE per edge; the lid (y = K >= dx)
# starts from its column edges, dx apart, as each column needs its own phase change;
# |F'/F| (_unresolved) refines wherever that is too coarse
NODES_PER_GAP = 4
NODES_PER_EDGE = 8

# phase tracking (_track): rounds of bisection and live segments
MAX_ROUNDS = 80
MAX_SEGMENTS = 400_000
# a segment still unresolved after DEFLATE_ROUND rounds gets a zero divided out, taken
# only at a distance from its line over DEFLATE_MARGIN times Newton's last step
# (_deflation); earlier, Newton costs more calls than the bisection it saves
DEFLATE_ROUND = 3
DEFLATE_MARGIN = 64

# Newton refinement (_newton) stops at a relative step of NEWTON_TOL, or once the step
# stops shrinking below NEWTON_STALL |kappa|: rounding in F, whose terms can exceed
# |F| by 1e5, sets that floor
NEWTON_TOL = 1e-14
NEWTON_STALL = 1e-8
MAX_NEWTON = 60
# a box holding several zeros and smaller than CLUSTER |kappa| is not split: near an
# exceptional point F ~ (kappa - kappa_0)^2 drowns in rounding within about sqrt(eps),
# as the dense solve does; its zeros are reported at their mean, from CLUSTER_NODES
# points on a circle around it (_cluster)
CLUSTER = 1e-6
CLUSTER_NODES = 64
# boxes of the subdivision narrower than MIN_BOX times the search height are not split
MIN_BOX = 1e-13


def _unresolved(seg):
    """The phase step of each segment, a column (a, b, fa, fb, la, lb) of seg, and whether it needs splitting.

    It does when its endpoint values fa, fb differ in phase by over pi/2 or
    in modulus by over a factor 8, or when its length times |F'/F| at an end
    (la, lb hold F'/F) exceeds pi/2: two close zeros near a segment turn the
    phase by 2pi between its ends, which the phase step alone reads as no
    turn, but make |F'/F| at least 4 / length there.
    """
    a, b, fa, fb = seg[:4]
    size = np.abs(seg[2:])
    turn = fb * np.conj(fa)
    dphi = np.arctan2(turn.imag, turn.real)
    ratio = size[1] / size[0]
    reach = np.abs(b - a) * np.maximum(size[2], size[3])
    return dphi, (np.fmax(abs(dphi), reach) > np.pi / 2) | (ratio > 8.0) | (ratio < 0.125)


def _usable(values, slopes):
    """F'/F, checking that F is finite and nonzero."""
    if not (np.isfinite(values) & (values != 0) & np.isfinite(slopes)).all():
        if (np.isfinite(values) & np.isfinite(slopes)).all():
            raise ContourThroughZero("a zero lies on an edge of the zero search; perturb the rectangle")
        raise EigensolverFailure("the function overflows on an edge of the zero search")
    return slopes / values


def _divided(kappa, values, logd, c):
    """F/(kappa - c) and its logarithmic derivative F'/F - 1/(kappa - c); F and F'/F where c is nan."""
    on = ~np.isnan(c)
    off = kappa[on] - c[on]
    values, logd = values.copy(), logd.copy()
    values[on] /= off
    logd[on] -= 1 / off
    return values, logd


def _deflation(f, a, b, la, lb):
    """A zero of f to divide out of each segment [a, b]; nan where none is taken.

    Newton steps (_newton) start from the prediction k - F/F' of the end k
    with the larger |F'/F|, the nearer to a zero, and stop when they leave
    the segment's reach or converge only linearly, as to a double zero, of
    which one factor would not resolve the segment.  A zero is taken only
    when they converged and its distance from the segment's line exceeds
    DEFLATE_MARGIN times the last step, which puts the zero it stands for on
    the same side of the line.
    """
    with np.errstate(all="ignore"):  # c and last are nan where Newton did not converge
        start = np.where(np.abs(la) >= np.abs(lb), a - 1 / la, b - 1 / lb)
        c, last = _lockstep(f, [_newton(start, 0.5 * (a + b), np.abs(b - a), simple=True)])[0]
        away = np.abs(((c - a) * np.conj(b - a)).imag) > DEFLATE_MARGIN * last * np.abs(b - a)
    return np.where(away, c, np.nan)


def _track(f, *stacks):
    """Change of arg f along each segment of the polylines of each stack (E, n + 1), as (E, n).

    One stack gives one array, several a list, all from the same passes
    through f.  Every segment is bisected until each piece is resolved
    (_unresolved); a round splits all live pieces in one array pass through
    f.  A segment still unresolved after DEFLATE_ROUND rounds, such as one of
    the bottom edge over a zero just below it, gets a zero c of f divided out
    (_deflation): for c off the segment's line, arg f = arg(kappa - c) +
    arg g with g = f/(kappa - c), the first term turns by the principal
    angle of (b - c)/(a - c), and g is tracked instead, by the same test on
    g and g'/g = f'/f - 1/(kappa - c).  Both halves of a bisected segment
    keep its c.
    """
    nodes = np.concatenate([s.ravel() for s in stacks])
    vals, slopes = f(nodes)
    logd = _usable(vals, slopes)
    # the live segments, one column each: ends a, b, values fa, fb and F'/F there, la, lb
    seg, at = [], 0
    for s in stacks:
        if s.size:
            x, fx, lx = (v[at:at + s.size].reshape(s.shape) for v in (nodes, vals, logd))
            seg.append(np.stack([x[:, :-1], x[:, 1:], fx[:, :-1], fx[:, 1:], lx[:, :-1], lx[:, 1:]]).reshape(6, -1))
            at += s.size
    seg = seg[0] if len(seg) == 1 else np.concatenate(seg, axis=1)
    owner = np.arange(seg.shape[1])
    out = np.zeros(seg.shape[1])
    c = None  # from DEFLATE_ROUND on, the zero divided out of each segment, nan for none
    for rounds in range(MAX_ROUNDS):
        dphi, bad = _unresolved(seg)
        if rounds == DEFLATE_ROUND:
            c = np.full(seg.shape[1], np.nan, dtype=complex)
            if bad.any():
                a, b, _, _, la, lb = seg[:, bad]
                c[bad] = _deflation(f, a, b, la, lb)
                seg[2], seg[4] = _divided(seg[0], seg[2], seg[4], c)
                seg[3], seg[5] = _divided(seg[1], seg[3], seg[5], c)
                dphi, bad = _unresolved(seg)
        if c is not None:
            on = ~bad & ~np.isnan(c)
            dphi[on] += np.angle((seg[1, on] - c[on]) / (seg[0, on] - c[on]))
        done = ~bad
        out += np.bincount(owner[done], weights=dphi[done], minlength=out.size)
        if not bad.any():
            phases, at = [], 0
            for s in stacks:
                phases.append(out[at:at + s.size - len(s)].reshape(len(s), s.shape[1] - 1))
                at += s.size - len(s)
            return phases[0] if len(stacks) == 1 else phases
        seg, owner = seg[:, bad], owner[bad]
        mid = 0.5 * (seg[0] + seg[1])
        fm, slope = f(mid)
        lm = _usable(fm, slope)
        if c is not None:
            c = c[bad]
            fm, lm = _divided(mid, fm, lm, c)
            c = np.concatenate([c, c])
        # the left halves (a, mid), then the right halves (mid, b)
        n, half = mid.size, np.stack([mid, fm, lm])
        seg = np.concatenate([seg, seg], axis=1)
        seg[1::2, :n] = seg[0::2, n:] = half
        owner = np.concatenate([owner, owner])
        if seg.shape[1] > MAX_SEGMENTS:
            break
    raise EigensolverFailure("an edge of the zero search cannot be resolved")


def _polyline(corners, n):
    """(E, n * (len - 1) + 1) nodes along each row of corners, n equal pieces per side."""
    t = np.arange(n) / n
    sides = corners[:, :-1, None] + (corners[:, 1:] - corners[:, :-1])[:, :, None] * t
    return np.concatenate([sides.reshape(len(corners), -1), corners[:, -1:]], axis=1)


def _counts(f, boxes, half, dx):
    """Zeros of f in each box (x1, x2, y1, y2) of the (B, 4) array boxes.

    Every side gets the same number of initial nodes (see NODES_PER_GAP).

    half: the boxes are [-x2, x2] x [y1, y2] (x1 = 0) of a function with
    f(-conj(k)) = +-conj(f(k)); the phase change along the right half of
    the boundary, from i y1 to i y2, is then half the winding.
    """
    if not len(boxes):
        return np.zeros(0, dtype=int)
    x1, x2, y1, y2 = boxes.T
    if half:
        corners = np.stack([1j * y1, x2 + 1j * y1, x2 + 1j * y2, 1j * y2], axis=1)
    else:
        corners = np.stack([x1 + 1j * y1, x2 + 1j * y1, x2 + 1j * y2, x1 + 1j * y2, x1 + 1j * y1], axis=1)
    n = max(NODES_PER_EDGE, int(np.ceil(np.max(NODES_PER_GAP * np.maximum(x2 - x1, y2 - y1) / np.maximum(dx, y1)))))
    turns = _track(f, _polyline(corners, n)).sum(axis=1) / (np.pi if half else 2 * np.pi)
    return _whole(turns)


def _require_counts(counts):
    """counts, after checking that none is negative, as the difference of two counts may be."""
    if (counts < 0).any():
        raise EigensolverFailure("inconsistent winding numbers in the zero search")
    return counts


def _whole(turns):
    """Zero counts from turns of the phase, in units of 2 pi."""
    counts = np.round(turns)
    if not (np.abs(turns - counts) <= 0.25).all():
        raise EigensolverFailure(f"winding numbers of the zero search are not counts: {turns}")
    return _require_counts(counts.astype(int))


def _converged(size, last, scale):
    """Whether a Newton step of length size, after one of length last, to a point of modulus scale is the last."""
    return (size <= NEWTON_TOL * scale) | ((size >= 0.5 * last) & (size <= NEWTON_STALL * scale))


def _lockstep(f, tasks):
    """Run refinement tasks side by side, one f call per step over every point they ask for.

    A task is a generator that yields an array of kappa, is sent (F, F') at
    those points, and returns its result; None stands for no task and gives
    None.  Each task keeps its own arithmetic, so it returns what it would
    alone.  The results come in the order of tasks.  Tasks run with floating
    point warnings off: Newton iterates may stray far below the real axis,
    where z^N overflows.
    """
    results, replies = [None] * len(tasks), [None] * len(tasks)
    live = [i for i, task in enumerate(tasks) if task is not None]
    with np.errstate(all="ignore"):
        while live:
            asking, asks = [], []
            for i in live:
                try:
                    asks.append(tasks[i].send(replies[i]))
                    asking.append(i)
                except StopIteration as stop:
                    results[i] = stop.value
            if asks:
                values, slopes = f(np.concatenate(asks) if len(asks) > 1 else asks[0])
                end = 0
                for i, points in zip(asking, asks):
                    replies[i] = values[end:end + points.size], slopes[end:end + points.size]
                    end += points.size
            live = asking
    return results


def _newton(k, centre, reach, simple=False):
    """Newton iteration from each k, a task of _lockstep; the zeros, nan where it did not converge, and the last steps.

    An iterate stops where its step is not finite or it goes farther than
    reach from its centre.  With simple, so does one whose step does not
    shrink below a quarter of the step before, as near a multiple zero,
    where Newton steps only halve.
    """
    found, steps = np.full(k.shape, np.nan, dtype=complex), np.full(k.shape, np.nan)
    at, last = np.arange(k.size), np.full(k.shape, np.inf)
    for _ in range(MAX_NEWTON):
        F, slope = yield k
        step = F / slope
        k, size, finite = k - step, np.abs(step), np.isfinite(step)
        done = finite & _converged(size, last, np.abs(k))
        found[at[done]], steps[at[done]] = k[done], size[done]
        go = finite & ~done & (np.abs(k - centre) <= reach)
        if simple:
            go &= ~(size > 0.25 * last)
        if not go.any():
            break
        k, centre, reach, last, at = k[go], centre[go], reach[go], size[go], at[go]
    return found, steps


class _Search:
    """Zeros of one F in the search rectangle, by the argument principle (see find_zeros)."""

    def __init__(self, f, top, y0, dx, mirror, spacing_nodes, pointwise):
        self.f, self.top, self.y0, self.dx, self.mirror = f, top, y0, dx, mirror
        self.spacing_nodes, self.pointwise = spacing_nodes, pointwise
        self.min_size = MIN_BOX * top
        self.phase = None  # of F on the imaginary axis, in mirror mode, once _axis_roots probes it
        self.found = []  # the zeros; in mirror mode each one off the imaginary axis stands for a pair

    def boxes(self, boxes, counts, sym):
        """Find the zeros of the boxes (B, 4) that hold counts (B,) zeros each.

        A box (x1, x2, y1, y2) where sym holds (mirror mode) is [-x2, x2] x
        [y1, y2], x1 = 0, and done when the sign changes on the imaginary axis
        (_axis_roots) account for its count; one off the axis is done when it
        holds one zero that Newton steps from its centre reach.  Each round
        refines both kinds in lockstep (_lockstep), one call of f per step
        over the Newton iterates, the axis samples and then the bracket
        steps, and on the first step the phase probe (_axis_phase); with
        pointwise False, the probe and each kind in calls of their own.  The
        rest are reported at their mean (_cluster) once smaller than CLUSTER
        |kappa| and holding zeros on the axis or two or more off it, else
        split.
        """
        while len(boxes):
            x1, x2, y1, y2 = boxes.T
            width, height = np.where(sym, 2 * x2, x2 - x1), y2 - y1
            size = np.hypot(width, height)
            centre = np.where(sym, 0.0, 0.5 * (x1 + x2)) + 0.5j * (y1 + y2)
            done, cut = np.zeros(len(boxes), dtype=bool), 0.5 * (y1 + y2)
            single = ~sym & (counts == 1)
            newton = _newton(centre[single], centre[single], size[single]) if single.any() else None
            if sym.any() and self.phase is None and not self.pointwise:
                self.phase = self._axis_phase(self.f(self._probe())[0])
            axis = self._axis_roots(y1[sym], y2[sym]) if sym.any() else None
            if self.pointwise:
                newton, axis = _lockstep(self.f, [newton, axis])
            else:
                newton, axis = _lockstep(self.f, [newton])[0], _lockstep(self.f, [axis])[0]
            if newton is not None:
                k = newton[0]
                inside = (k.real >= x1[single]) & (k.real < x2[single])
                done[single] = inside & (k.imag >= y1[single]) & (k.imag < y2[single])
                self.found += k[done[single]].tolist()
            if axis is not None:
                roots, sign_changes, cut[sym] = axis
                done[sym] = _require_counts(counts[sym] - sign_changes) == 0
                self.found += [1j * y for r, d in zip(roots, done[sym]) if d for y in r.tolist()]
            small = ~done & (sym | (counts > 1)) & (size < CLUSTER * np.abs(x2 + 1j * y2))
            if small.any():
                for z, d, c, s in zip(centre[small], size[small], counts[small], sym[small]):
                    mean = self._cluster(z, d, c)
                    self.found += [complex(0.0, mean.imag) if s else mean] * c
            keep = ~done & ~small
            if not keep.any():
                return
            if (np.minimum(x2 - x1, height)[keep] < self.min_size).any():
                raise EigensolverFailure("the zero search cannot separate close zeros")
            wide = width >= height
            boxes, counts, sym = self._split(boxes[keep], counts[keep], sym[keep], wide[keep], cut[keep])

    def _split(self, boxes, counts, sym, wide, cut):
        """Halve each box across its longer side, a tall one at the height cut; the first half is counted.

        A wide symmetric box is split into its inner half and the strip [x2/2, x2], which holds half the rest.
        """
        x1, x2, y1, y2 = boxes.T
        xm = 0.5 * (x1 + x2)
        first = np.stack([x1, np.where(wide, xm, x2), y1, np.where(wide, y2, cut)], axis=1)
        second = np.stack([np.where(wide, xm, x1), x2, np.where(wide, y1, cut), y2], axis=1)
        c1 = np.zeros(len(boxes), dtype=int)
        c1[~sym] = _counts(self.f, first[~sym], False, self.dx)
        c1[sym] = _counts(self.f, first[sym], True, self.dx)
        rest = _require_counts(counts - c1)
        strip = sym & wide
        if (rest[strip] % 2).any():
            raise EigensolverFailure("inconsistent winding numbers in the zero search")
        rest[strip] //= 2
        counts = np.concatenate([c1, rest])
        keep = counts > 0
        return np.concatenate([first, second])[keep], counts[keep], np.concatenate([sym, sym & ~wide])[keep]

    def _cluster(self, centre, size, count):
        """The mean of the ``count`` zeros in a box of diameter ``size`` around centre.

        By the trapezoidal rule on a circle around centre, (1/2 pi i) times the
        integral of kappa F'/F is the sum of the zeros inside, and the integral
        of F'/F their number.  The widest circle of radius 1000, 100, 10 or 1
        times size that holds just ``count`` zeros is used: F is accurate
        farther from the cluster.
        """
        for radius in size * 10.0 ** np.arange(3, -1, -1):
            kappa = centre + radius * np.exp(2j * np.pi * np.arange(CLUSTER_NODES) / CLUSTER_NODES)
            F, slope = self.f(kappa)
            weights = slope / F * (kappa - centre) / CLUSTER_NODES
            if abs(np.sum(weights) - count) <= 0.25:
                return centre + np.sum(weights * (kappa - centre)) / count
        raise EigensolverFailure("the zero search cannot separate close zeros")

    def _axis_roots(self, y1, y2):
        """Zeros of F on i [y1, y2] for each box, and a height to cut the box at; a task of _lockstep.

        Each sign change of g(y) = Re(F(i y) conj(phase)) among
        2 NODES_PER_EDGE + 1 samples is refined by Newton steps on g, whose
        slope g'(y) = Re(i F'(i y) conj(phase)) comes with every F, starting
        from the sample of smaller |g|.  A step that leaves the bracket of
        the sign change, or is not finite, goes to the bracket's midpoint, and
        every point taken narrows the bracket, so each root stays real and
        inside it.  Steps stop as in _newton, where a midpoint step never
        counts as stalled; a sign change not refined within MAX_NEWTON steps
        is left out of the roots and of the count.  The cut is the sample of
        the middle half where |g| is largest, so that cuts keep away from
        zeros: cutting through the middle of a box closes in on a cluster,
        where F is rounding.  The phase, until known, is probed with the
        samples (_axis_phase).
        """
        t = np.linspace(0.0, 1.0, NODES_PER_EDGE * 2 + 1)
        y = y1[:, None] + (y2 - y1)[:, None] * t
        probe = self._probe() if self.phase is None else np.zeros(0)
        F, slope = yield np.concatenate([probe, 1j * y.ravel()])
        if probe.size:
            self.phase = self._axis_phase(F[:probe.size])
        g, slope = self._real(F[probe.size:].reshape(y.shape), slope[probe.size:].reshape(y.shape))
        middle = slice(NODES_PER_EDGE // 2, 3 * NODES_PER_EDGE // 2 + 1)
        cut = y[:, middle][np.arange(len(y)), np.argmax(np.abs(g[:, middle]), axis=1)]
        flips = np.signbit(g[:, 1:]) != np.signbit(g[:, :-1])
        box, j = np.nonzero(flips)
        lo, hi, sign = y[box, j], y[box, j + 1], np.signbit(g[box, j])
        start = j + (np.abs(g[box, j + 1]) < np.abs(g[box, j]))
        at, g_at, slope_at = y[box, start], g[box, start], slope[box, start]
        roots = np.full(len(box), np.nan)
        live = np.arange(len(box))
        last = np.full(len(box), np.inf)
        for _ in range(MAX_NEWTON):
            point = at - g_at / slope_at
            newton = (point >= lo) & (point <= hi)
            point = np.where(newton, point, 0.5 * (lo + hi))
            size = np.abs(point - at)
            done = _converged(size, np.where(newton, last, np.inf), point)
            roots[live[done]] = point[done]
            live, lo, hi, sign, at, last = (v[~done] for v in (live, lo, hi, sign, point, size))
            if not len(live):
                break
            g_at, slope_at = self._real(*(yield 1j * at))
            same = np.signbit(g_at) == sign
            lo, hi = np.where(same, at, lo), np.where(same, hi, at)
        found = np.isfinite(roots)
        return [roots[found & (box == b)] for b in range(len(y1))], np.bincount(box[found], minlength=len(y1)), cut

    def _real(self, F, slope):
        """g(y) = Re(F(i y) conj(phase)) and g'(y) from F and F' at i y: F is real times the fixed phase on the axis."""
        turn = np.conj(self.phase)
        return (F * turn).real, (1j * slope * turn).real

    def run(self):
        """Count, isolate and refine every zero in the search rectangle.

        Columns of width dx (one continuum spacing), centred on the imaginary
        axis, share the bottom and top edges.  The whole boundary is tracked
        in one pass, which counts the zeros: the bottom edge from
        spacing_nodes nodes per column, the lid from the column edges alone
        (see NODES_PER_GAP).  When the grid's inner lines, its column edges
        over the whole height and its heights across every column, start
        from at most NODES_PER_PASS nodes in all, one _track call takes them
        all and every cell is counted from the tables of the tracked lines.
        A larger grid is cut pass by pass, each pass tracking all its new
        cuts in one _track call: a box over several columns is cut at column
        edges over the whole height, a box of one column at heights across
        it.  A pass cuts every box at each grid line inside it when those
        lines start from at most NODES_PER_PASS nodes in all, else halves
        every box, as most passes of a large grid do.  Each piece but the
        first is counted from the phase changes along its sides, which sums
        over tables of the tracked lines give for all pieces at once, and the
        first holds the rest, so that a box without zeros costs nothing more.
        The cells left, one column by one height step, are those that hold
        zeros whatever the order of the cuts; they go to boxes.
        """
        f, y0, dx, mirror = self.f, self.y0, self.dx, self.mirror
        cuts = (np.arange(math.ceil(self.top / dx - 0.5) + 1) + 0.5) * dx
        top = self.lid = float(cuts[-1])  # the height of the lid, which _probe scales with
        xs = np.concatenate([[0.0], cuts]) if mirror else np.concatenate([-cuts[::-1], cuts])
        ncol = len(xs) - 1
        # heights: NODES_PER_GAP steps up to dx, then NODES_PER_GAP per factor e (top >= 1.5 dx)
        steps = math.ceil(NODES_PER_GAP * math.log(top / dx))
        ys = [j * dx / NODES_PER_GAP for j in range(1, NODES_PER_GAP + 1)]
        ys += [dx * (top / dx) ** (j / steps) for j in range(1, steps)]
        ys = np.array([y0, *(y for y in ys if y > y0), top])
        ny = len(ys) - 1
        # the boundary in one pass: the bottom edge, the right edge, the lid from right to
        # left and, unmirrored, the left edge down
        edges = [_polyline((xs + 1j * y0)[None], self.spacing_nodes)[0, :-1], xs[-1] + 1j * ys[:-1],
                 xs[::-1] + 1j * top]
        if not mirror:
            edges.append(xs[0] + 1j * ys[-2::-1])
        boundary = _track(f, np.concatenate(edges)[None])[0]
        self.total = int(_whole(boundary.sum() / (np.pi if mirror else 2 * np.pi)))
        if not self.total:
            return
        # phase changes, nan until tracked: up each column edge from y0 to each height (rise),
        # and across each column at each height, left to right
        nb = ncol * self.spacing_nodes
        rise, across = np.full((ncol + 1, ny + 1), np.nan), np.full((ny + 1, ncol), np.nan)
        rise[:, 0] = 0.0
        across[0] = boundary[:nb].reshape(ncol, -1).sum(axis=1)
        rise[ncol, 1:] = np.cumsum(boundary[nb:nb + ny])
        across[ny] = -boundary[nb + ny:nb + ny + ncol][::-1]
        # in mirror mode the phase change around a box from the axis leaves the axis out
        rise[0, 1:] = 0.0 if mirror else np.cumsum(-boundary[nb + ny + ncol:][::-1])
        # along the bottom edge less along the lid, from the left edge to each column edge
        under = np.concatenate([[0.0], np.cumsum(across[0] - across[ny])])
        # the nodes of a cut across each column, NODES_PER_EDGE pieces, without its height
        cross = _polyline(xs[None], NODES_PER_EDGE)[0]
        cross = cross[NODES_PER_EDGE * np.arange(ncol)[:, None] + np.arange(NODES_PER_EDGE + 1)]
        # grid boxes (lo, hi, ia, ib, count): columns lo .. hi - 1 between heights ys[ia] and ys[ib]
        if (ncol - 1) * (ny + 1) + (ny - 1) * ncol * (NODES_PER_EDGE + 1) <= NODES_PER_PASS:
            # the whole grid in one pass: every inner column edge and every height across each
            # column, each cell (ia, lo) counted from the tables
            heights = (cross + 1j * ys[1:-1, None, None]).reshape(-1, NODES_PER_EDGE + 1)
            rising, sides = _track(f, xs[1:-1, None] + 1j * ys, heights)
            rise[1:-1, 1:] = np.cumsum(rising, axis=1)
            across[1:-1] = sides.sum(axis=1).reshape(ny - 1, ncol)
            up = np.diff(rise, axis=1)
            turns = (up[1:] - up[:-1]).T + across[:-1] - across[1:]
            # a cell of the column from the axis counts by half turns, and the others' zeros twice
            symmetric = mirror & (np.arange(ncol) == 0)
            counted = _whole(turns / np.where(symmetric, np.pi, 2 * np.pi))
            if np.sum(counted * (1 + (mirror & ~symmetric))) != self.total:
                raise EigensolverFailure("inconsistent winding numbers in the zero search")
            ia, lo = np.nonzero(counted)
            grid = np.stack([lo, lo + 1, ia, ia + 1, counted[ia, lo]], axis=1)
        else:
            grid = np.array([[0, ncol, 0, ny, self.total]])
        while True:
            grid = grid[grid[:, 4] > 0]
            wide = grid[:, 1] - grid[:, 0] > 1
            split = wide | (grid[:, 3] - grid[:, 2] > 1)
            if not split.any():
                break
            keep, parent, wide = grid[~split], grid[split], wide[split]
            # a box over several columns, which spans every height, is cut at column edges
            # (side 0), the others at heights across their column (side 2): each at every
            # grid line inside it while the pass stays within NODES_PER_PASS nodes, else
            # each at its middle line
            side = np.where(wide, 0, 2)
            start, end = np.where(wide, parent[:, :2].T, parent[:, 2:4].T)
            every = np.sum((end - start - 1) * np.where(wide, ny + 1, NODES_PER_EDGE + 1)) <= NODES_PER_PASS
            n = np.where(every, end - start, 2)
            step = np.where(every, 1, (end - start) // 2)
            # piece r = 0 .. n - 1 of each box from its start; all but the first are counted
            # from the phase changes along their sides, and the first holds the rest
            box = np.repeat(np.arange(len(n)), n)
            r = np.arange(len(box)) - np.repeat(np.cumsum(n) - n, n)
            lower = start[box] + r * step[box]
            pieces, at = parent[box], np.arange(len(box))
            pieces[at, side[box]] = lower
            pieces[at, side[box] + 1] = np.where(r == n[box] - 1, end[box], lower + step[box])
            w, inner = wide[box], r > 0
            up, flat, column = lower[inner & w], lower[inner & ~w], pieces[inner & ~w, 0]
            rising, sides = _track(f, xs[up][:, None] + 1j * ys, cross[column] + 1j * ys[flat][:, None])
            rise[up, 1:] = np.cumsum(rising, axis=1)
            across[flat, column] = sides.sum(axis=1)
            a, b, i, j, _ = pieces[inner].T
            turns = rise[b, j] - rise[b, i] - rise[a, j] + rise[a, i]
            turns += np.where(w[inner], under[b] - under[a], across[i, a] - across[j, a])
            # a box from the axis counts by half turns, and its zeros off the axis twice
            symmetric = mirror & (a == 0)
            counted = _whole(turns / np.where(symmetric, np.pi, 2 * np.pi))
            twice = 1 + (mirror & (parent[box[inner], 0] == 0) & ~symmetric)
            rest = parent[:, 4] - np.bincount(box[inner], twice * counted, len(n)).astype(int)
            pieces[inner, 4], pieces[~inner, 4] = counted, _require_counts(rest)
            grid = np.concatenate([keep, pieces])
        lo, _, ia, ib, count = grid.T
        boxes = np.stack([xs[lo], xs[lo + 1], ys[ia], ys[ib]], axis=1)
        self.boxes(boxes, count, mirror & (lo == 0))

    def _probe(self):
        """Points k and then -conj k, at which _axis_phase reads F."""
        k = np.linspace(0.3, 0.9, 7) * self.lid * (1 + 1j)
        return np.concatenate([k, -np.conj(k)])

    @staticmethod
    def _axis_phase(F):
        """The phase of F on the imaginary axis, 1 or i, from F at the points of _probe: F(-conj k) = +-conj F(k)."""
        F, mirror = F[:7], F[7:]
        sigma = np.sum(mirror * F) / np.sum(np.abs(F) ** 2)
        if abs(abs(sigma.real) - 1) > 1e-6 or abs(sigma.imag) > 1e-6:
            raise EigensolverFailure("the function lacks the mirror symmetry f(-conj k) = +-conj f(k)")
        return 1.0 if sigma.real > 0 else 1j


def find_zeros(f, K, y0, dx, mirror, spacing_nodes, pointwise=True):
    """Zeros of f with |Re kappa| <= K and y0 <= Im kappa <= K, as (kappa, multiplicity).

    f maps an array of kappa to (f, df/dkappa).  dx is the width of the
    search's columns, and the bottom edge starts from spacing_nodes nodes per
    column.  Each distinct zero comes once, sorted by (Re, Im), with the
    number of zeros it stands for: a cluster is reported at its mean
    (_cluster).  In mirror mode (f(-conj k) = +-conj f(k)) only Re kappa >= 0
    is searched and each zero off the imaginary axis comes with its mirror
    image -conj(kappa); the zeros on the axis have a real part of exactly 0.
    pointwise says that f gives the same value at a point whatever other
    points share the call, so that the refinement may evaluate the iterates
    of all its boxes in one call (_lockstep); where f's rounding depends on
    the number of points, as in a BLAS matrix product, it refines the boxes
    off the axis and on it in calls of their own, and its zeros do not move
    with that grouping.
    Raises ContourThroughZero when f vanishes at a node of an edge, and
    EigensolverFailure when f overflows there, the search fails or its zeros
    do not add up to the winding count.
    """
    search = _Search(f, K, y0, dx, mirror, spacing_nodes, pointwise)
    search.run()
    if not search.total:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=int)
    kappa = np.array(search.found, dtype=complex)
    if mirror:
        kappa = np.concatenate([kappa, -np.conj(kappa[kappa.real > 0])])
    kappa, multiplicity = np.unique(kappa, return_counts=True)
    if multiplicity.sum() != search.total:
        raise EigensolverFailure(f"the zero search found {multiplicity.sum()} zeros of {search.total} counted")
    return kappa, multiplicity
