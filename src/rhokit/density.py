"""Homomorphism counts and homomorphism densities on step graphons.

The core evaluator contracts one tensor index per pattern vertex: each
vertex contributes its block-mass vector, each edge contributes the block
weight matrix, and every index is summed.  The vertex-elimination dynamic
program follows numpy's greedy einsum path.  The path is found in-house:
numpy's greedy rule (opt_einsum's) run on bitmasks of each operand's
vertices, so planning does not depend on the installed numpy's
einsum_path.  From 2 blocks on the path does not depend on the block
count (_replay proves it), so it is replayed once per pattern, and once
more for 1 block.  Each block count fills in its own sizes and slicing
decision: a cached program of steps, step for step the one replayed at
k.  Replays of different patterns repeat the same steps, so two step
caches sit below the programs: a pairwise step's fields apart from its
operand positions, on its index strings and k (_pair_fields), and the
lengths k**e a program fills in for a shape's exponents (_lengths).  Both
hold pure functions of their keys, so a program built from cold caches is
the one built from warm ones (tools/layers.py plan times cold builds).
A step joining two operands runs the way numpy's bmm_einsum runs it:
a one-operand einsum and a reshape on each side where needed, np.matmul
or np.multiply, then a reshape and transpose.  Any other step is one
plain np.einsum.  A call runs these steps and plans nothing.  On numpy
2.4, whose optimized einsum joins pairs by this batched-matmul scheme, a
program on greedy's path gets the same bits as np.einsum(optimize="greedy")
(below, where greedy gives up, the path may leave it); older releases join
pairs by tensordot, and there the two agree to rounding.
Object operands stay object through every step, 0-d results included, so
counts past int64 stay exact.  _contract is the one entry into the engine:
density, hom_count, log_density and the search (t(G, W), the ratios and,
through _sweep, the gradients) all call it.  It checks the pattern and the
cap, looks up the program and runs it (_evaluate).  search.density_gradient
differentiates the same run: _evaluate records each step's operands, and
_sweep walks them back.
Both also run over a stack of graphons, operands with leading batch axes
that every step's equations carry in an ellipsis; each graphon of the stack
gets the bits of its own run, and a single graphon has no batch axes.
Where greedy gives up, it joins every operand left in one step.  Below
2**15 index combinations that join stays, so every program below 2**15 is
numpy's greedy one, bit for bit.  From 2**15 on (K4 on 14+ blocks), the
program runs the cached replay up to that join, and from the operands the
join takes goes on at the block count itself, by greedy without its size
limit (opt_einsum's default; Smith & Gray 2018).  If that path's largest
intermediate and any give-up join it has stay under 2**15 entries, the
program runs it (tools/layers.py slice times the three programs).
Otherwise the program slices one vertex instead (as in tensor-network
slicing, Gray & Kourtis 2021), to bound memory: its one step runs the rest
of the pattern, one program per connected component, each chosen by the
same rule, on a chunk of that vertex's blocks at a time.  Every chunk, one
block or many, is a leading batch axis.  Past the give-up point every
pair left joins into three or more indices, so from 32 blocks on
(32**3 = 2**15) the unlimited path cannot fit, greedy does not go on, and
the program slices.  A configurable cap rejects a program whose size --
its largest intermediate or largest step joining three or more operands,
times the block count for each sliced vertex -- exceeds the cap.
log_density picks one of two routes from the input: when every positive
term of the density is a normal float64 it takes the log of the float
contraction; otherwise (constructions drive densities toward 0) it scales
masses and weights to integers over powers of two and counts exactly, the
way hom_count counts past int64.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import os
import string
from typing import NamedTuple

import numpy as np

from .errors import DiscrepancyError, DomainError, EnumerationCapError
from .graphs import Graph, is_bipartite, parse_count, path

DEFAULT_ENUM_CAP = 10**8
# a give-up join this large leaves numpy's greedy path for greedy without its
# size limit past that join, or for slicing where that path's intermediates
# reach this many entries too
_SLICE_AT = 2**15
# a sliced program runs its vertex's blocks in chunks on a leading batch axis,
# as many blocks a chunk as keep each part's intermediates within this many
# entries (one block a chunk where a part alone is larger)
_CHUNK = 2**14
# below log 2**-1000 a term may be subnormal, and log_density counts exactly
_NORMAL_LOG = -1000 * math.log(2)
_CLAMP_TOL = 1e-12  # float noise past [0, 1] that density clamps; beyond it raises
_LETTERS = string.ascii_letters


def enumeration_cap():
    """Current enumeration cap; override with env var RHOKIT_ENUM_CAP."""
    raw = os.environ.get("RHOKIT_ENUM_CAP")
    return parse_count(raw, "RHOKIT_ENUM_CAP") if raw else DEFAULT_ENUM_CAP


class _Plan(NamedTuple):
    steps: tuple  # _Einsum, _Pair or _Sliced, run in order
    edge_count: int  # operands are the vertex factors, then weights once per edge
    size: int  # index space of the largest intermediate or multi-operand join


class _Einsum(NamedTuple):
    """One plain np.einsum, numpy's C kernel, over the operands it pops."""

    positions: tuple  # operand list positions, popped in this order
    eq: str


class _Pair(NamedTuple):
    """Two operands joined the way numpy's bmm_einsum joins them: each side
    summed or transposed by a one-operand einsum and reshaped, where needed,
    then one np.matmul or np.multiply, reshaped and transposed to the output."""

    positions: tuple
    eq: str  # the step as one plain einsum, "...a,...b->...out", for _sweep
    eq_a: str | None
    shape_a: tuple | None
    eq_b: str | None
    shape_b: tuple | None
    join: np.ufunc  # np.matmul, or np.multiply when no summed index is shared
    shape: tuple | None
    perm: tuple | None  # on negative axes, so leading batch axes stay in place


class _Sliced(NamedTuple):
    """A sum over the blocks of one summed vertex: per block, each part's
    plan contracts its vertices, and the parts' results multiply.  The only
    step of its program.  Each part's plan runs once per chunk of blocks,
    the chunk a leading batch axis (see _evaluate)."""

    vertex: int
    neighbours: tuple
    parts: tuple  # (vertices, plan of g.induced(vertices)) covering the rest


def _greedy_path(masks, k, limit=None):
    """numpy's greedy path for contracting operands to a scalar, where
    masks[i] has one bit per index of operand i and every axis has length k.

    This is the rule of numpy 2.4's einsum_path(optimize="greedy"), which
    numpy takes from opt_einsum (Smith & Gray 2018), run on bitmasks.  Each
    step joins the pair with the least key (-removed size, flop cost), the
    first such pair in numpy's candidate order on ties.  A join whose
    result has more elements than limit, by default the largest operand's,
    or that takes the path's cost past the naive one-step cost, is no
    candidate.  Pairs that share an index are scanned first, the scan list
    filtered to them as it is built; only when none qualifies are all
    pairs, outer products included, scanned again, and when still none
    does, the step joins every operand left and the path ends: greedy gives
    up.  After a join only pairs with the new operand are scanned: every
    other candidate keeps its key and result, stale as they may be, as in
    numpy.  Candidates wait in a list sorted by key, then by the order they
    were found, which is numpy's list order; one whose operand is gone is
    dropped when it comes up.  Operands keep the id they were made with,
    and a step's positions are read off the operands left.
    limit=math.inf is opt_einsum's default, where only the naive-cost test
    can end the path in a join of every operand.
    """
    n = len(masks)
    if n <= 2:
        return [tuple(range(n))]
    size = [k**bits for bits in range(max(masks).bit_length() + 1)]
    if limit is None:
        limit = max(size[m.bit_count()] for m in masks)
    everything = functools.reduce(operator.or_, masks)
    naive = size[everything.bit_count()] * n  # n - 1 joins, and an index is summed
    ops = dict(enumerate(masks))  # by id; ids ascend in operand list order
    sizes = [size[m.bit_count()] for m in masks]  # by id
    # known: candidates (gain, -flops, -order found, i, j, result), sorted,
    # so the least key (-gain, flops), first found on ties, is the last
    path, known, cost = [], [], 0
    order = itertools.count()
    # the pairs to scan next that share an index, in numpy's scan order
    sharing = [(i, j) for i, j in itertools.combinations(range(n), 2) if masks[i] & masks[j]]
    for new in range(n, 2 * n - 1):
        # indices held by exactly one operand, and by exactly two
        once = twice = more = 0
        for m in ops.values():
            more |= twice & m
            twice = (twice | once & m) & ~more
            once = (once | m) & ~(twice | more)
        for scan in (sharing, itertools.combinations(ops, 2)):
            for i, j in scan:
                a, b = ops[i], ops[j]
                joined = a | b
                removed = once & (a ^ b) | twice & a & b
                result = joined ^ removed
                kept = size[result.bit_count()]
                flops = size[joined.bit_count()] * (2 if removed else 1)
                if kept <= limit and cost + flops <= naive:
                    gain = sizes[i] + sizes[j] - kept
                    bisect.insort(known, (gain, -flops, -next(order), i, j, result))
            while known and (known[-1][3] not in ops or known[-1][4] not in ops):
                known.pop()
            if known:
                break
        else:
            path.append(tuple(range(len(ops))))
            break
        _, negated_flops, _, x, y, result = known.pop()
        ids = list(ops)
        path.append((ids.index(x), ids.index(y)))
        del ops[x], ops[y]
        sharing = [(i, new) for i, m in ops.items() if m & result]
        ops[new] = result
        sizes.append(size[result.bit_count()])
        cost -= negated_flops
    return path


class _Replay(NamedTuple):
    """The greedy path replayed on the operands' index strings, every size
    an exponent of the block count."""

    steps: tuple  # _Einsum and _Pair, each _Pair's shapes exponents of k
    intermediate: int  # the largest intermediate has k**intermediate entries
    join: int | None  # the same for the step joining 3+ operands, if any
    leftover: tuple  # that step's operands' index strings, in operand order


@functools.lru_cache(maxsize=1024)
def _replay(g, k):
    """Replay of g's greedy path on k blocks, as _plan describes it.

    _greedy_path uses k only to compare sizes k**e, and compares them
    alike on every k >= 2, so _plan replays at min(k, 2).  The proof below
    covers greedy's own path, up to the join where it gives up; past it,
    _plan goes on at k itself, from the operands that join takes:
    - Invariant.  Index v starts in 1 + deg(v) operands; a join lowers a
      count of 3 or more by one at most, and a count of 2 or 1 only to 0.
      So only an isolated vertex's vector holds an index no other holds.
    - Keys.  No result outgrows the largest operand, so operands hold at
      most two indices and a key (-gain, flops) comes from a short table:
      gains 2k**2 - 1, 2k**2 - k, k**2 + k - 1, k**2, k**2 - k + 1,
      2k - 1, k, 1 and 2k - k**2; flops c * k**e, c in {1, 2}.  Any two
      order alike on every k >= 2 but two pairs, which tie at k = 2 only.
      Gain k**2 - k + 1 (against 2k - 1) joins a 0-d operand to a matrix
      holding an index no other operand holds, which the invariant rules
      out.  At gain k, flops 2k join a 0-d operand to an isolated vector,
      flops k**2 a matrix to a vector sharing a kept index.  Only a scan
      of all pairs adds the former, and it adds none of the latter: counts
      only fall, so such a pair had its key when first scanned and would
      still be known, and the scan would not run.  So the former is known
      first and wins the tie at k = 2 too.
    - Size limit: it compares powers of k.
    - Naive cost: cost + flops <= n * k**|V|, n = |V| + |E|, sums at most
      n - 1 flop counts.  For |V| >= 5 each is at most 2 * k**4, and the
      test passes on every k >= 2.  Otherwise each has e <= |V| and their
      c sum to at most 2n - 2, so from k = 2n - 2 on the test goes as on
      large k, and tests/test_density.py checks k = 2 ... 2n - 2 on every
      labelled graph of at most 4 vertices.
    """
    terms = [_LETTERS[v] for v in range(g.vertex_count)]
    terms += [_LETTERS[u] + _LETTERS[v] for u, v in sorted(g.edges)]
    return _replay_from(terms, k)


def _replay_from(terms, k, limit=None, steps=(), intermediate=0):
    """Replay of _greedy_path(masks, k, limit) on operands whose index
    strings are terms, its steps appended to steps: the replay that left
    those operands, its largest intermediate k**intermediate entries.

    Only a join where the path gives up takes 3+ operands, and it ends the
    path with an empty result, so intermediate stays that of the steps
    before it.
    """
    masks = [sum(1 << _LETTERS.index(ix) for ix in t) for t in terms]
    terms, steps = list(terms), list(steps)
    join, leftover = None, ()
    for step in _greedy_path(masks, k, limit):
        positions = tuple(sorted(step, reverse=True))
        joined = [terms.pop(i) for i in positions]
        result = "".join(sorted(set("".join(joined)) & set("".join(terms))))
        terms.append(result)
        intermediate = max(intermediate, len(result))
        if len(joined) >= 3:
            join, leftover = len(set("".join(joined))), tuple(reversed(joined))
        if len(joined) == 2:
            steps.append(_pair(positions, *joined, result, k))
        else:
            # the ellipsis carries any leading batch axes of the operands
            steps.append(_Einsum(positions, "..." + ",...".join(joined) + "->..." + result))
    return _Replay(tuple(steps), intermediate, join, leftover)


@functools.lru_cache(maxsize=1024)
def _plan(g, k):
    """Contraction program of pattern g on k blocks, every vertex summed.

    The path is numpy's greedy one, found by _greedy_path on bitmasks of
    the operands' vertices; it depends only on the pattern and k, so it is
    the path np.einsum(optimize="greedy") follows on every call.  Replaying
    it on the operands' index strings gives each step the operands numpy
    pops (highest position first) and the index order numpy gives its
    result: sorted by letter, as every axis has length k, and empty on the
    last step.  Every shape is known here, so a pairwise step keeps what
    numpy's bmm_einsum would derive on each call; other steps are one plain
    einsum.  The replay runs at min(k, 2), as the path is the same on
    every k >= 2, and keeps every size as an exponent of k; here k fills
    in the shapes and the size.
    When greedy finds no pair under its size limit it gives up: it joins
    every operand left in one step, whose index space the largest
    intermediate misses.  Below _SLICE_AT = 2**15 index combinations that
    join stays, so the program is numpy's.  From 2**15 on, the program
    runs the cached replay's steps up to that join, then goes on at k from
    the operands the join takes, which the replay records: greedy on them
    alone with no size limit.  Its naive-cost test bounds only their path,
    not the whole pattern's; tests/test_density.py checks that the path is
    the one a whole-pattern search finds when it lifts the limit at the
    give-up point.  If the whole program's largest intermediate and any
    join it gives up in are under 2**15 entries, it is the program.  Past
    the give-up point every pair left joins into three or more indices, so
    from k = 32 on (k**3 >= 2**15) it cannot fit, and greedy does not go
    on.  Otherwise the program slices the vertex of highest degree: one
    contraction of the rest of the pattern per block, planned by the same
    rule, one part per connected component -- greedy gives up on each
    component that is too dense, and one join of them all would nest a
    slice per part.
    """
    replay = _replay(g, min(k, 2))
    if replay.join is None or k**replay.join < _SLICE_AT:
        return _program_of(replay, g, k)
    if k**3 < _SLICE_AT:
        whole = _replay_from(replay.leftover, k, math.inf, replay.steps[:-1], replay.intermediate)
        program = _program_of(whole, g, k)
        if program.size < _SLICE_AT:
            return program
    return _slice(g, k)


def _slice(g, k):
    """The program of g on k blocks that slices its vertex of highest
    degree, each part planned by _plan."""
    degrees = g.degrees()
    v = max(range(g.vertex_count), key=lambda u: (degrees[u], -u))
    rest = [u for u in range(g.vertex_count) if u != v]
    groups = [[rest[i] for i in c] for c in g.induced(rest).components()]
    parts = tuple((tuple(vs), _plan(g.induced(vs), k)) for vs in groups)
    sliced = _Sliced(v, tuple(sorted(g.neighbors(v))), parts)
    return _Plan((sliced,), 0, k * max(p.size for _, p in parts))


def _program_of(replay, g, k):
    """The program of g on k blocks that runs replay's steps."""
    steps = tuple(_sized(step, k) for step in replay.steps)
    join = 0 if replay.join is None else k**replay.join
    return _Plan(steps, g.edge_count, max(k**replay.intermediate, join))


def _sized(step, k):
    """step with a _Pair's shapes turned from exponents of k into lengths."""
    if type(step) is not _Pair:
        return step
    positions, eq, eq_a, shape_a, eq_b, shape_b, join, shape, perm = step
    shape_a, shape_b, shape = _lengths(shape_a, k), _lengths(shape_b, k), _lengths(shape, k)
    return _Pair(positions, eq, eq_a, shape_a, eq_b, shape_b, join, shape, perm)


@functools.lru_cache(maxsize=4096)
def _lengths(exponents, k):
    """The lengths k**e of a shape given as exponents of k; None stays None."""
    return None if exponents is None else tuple([k**e for e in exponents])


def _pair(positions, a, b, out, k):
    """The _Pair step for a,b->out when every axis has length k, its shapes
    as exponents of k (_sized makes them lengths)."""
    return _Pair(positions, *_pair_fields(a, b, out, k))


@functools.lru_cache(maxsize=4096)
def _pair_fields(a, b, out, k):
    """The fields of _pair's step after its positions, which depend only on
    a, b, out and k, so replays of many patterns share them.

    numpy's bmm_einsum leaves out axes of length 1, so for k = 1 no index
    is summed between the sides and the join is a broadcast multiply.
    """
    eq = f"...{a},...{b}->...{out}"
    summed = [ix for ix in a if ix in b and ix not in out] if k > 1 else []
    if not summed:

        def side(t):
            kept = "".join(ix for ix in out if ix in t)
            return _reorder(t, kept), tuple(int(ix in t) for ix in out)

        return (eq, *side(a), *side(b), np.multiply, None, None)
    batch = [ix for ix in a if ix in b and ix in out]
    a_kept = [ix for ix in a if ix not in b and ix in out]
    b_kept = [ix for ix in b if ix not in a and ix in out]
    # matmul of (batch, rows, inner) by (batch, inner, columns), fused
    groups_a = (batch, a_kept, summed)
    groups_b = (batch, summed, b_kept)
    groups_out = (batch, a_kept, b_kept)
    if not batch:  # numpy leaves the batch axis out
        groups_a, groups_b, groups_out = groups_a[1:], groups_b[1:], groups_out[1:]
    produced = "".join(batch + a_kept + b_kept)
    return (
        eq,
        _reorder(a, "".join(batch + a_kept + summed)),
        _fused(groups_a),
        _reorder(b, "".join(batch + summed + b_kept)),
        _fused(groups_b),
        np.matmul,
        None if _fused(groups_out) is None else (1,) * len(produced),
        tuple(produced.index(ix) - len(out) for ix in out) if produced != out else None,
    )


def _reorder(term, desired):
    return None if term == desired else f"...{term}->...{desired}"


def _fused(groups):
    """One axis per index group, as exponents of k, unless every group is
    already one axis."""
    if all(len(group) == 1 for group in groups):
        return None
    return tuple(len(group) for group in groups)


def _keep(x):
    """x, except that a bare Python int becomes a 0-d object array.

    numpy returns the 0-d result of object operands as a bare int, and a
    reshape or multiply would turn that into an int64, which wraps.
    """
    return np.array(x, dtype=object) if type(x) is int else x


def _evaluate(plan, factors, weights, tape=None):
    """Run plan's steps on its operand list; each step pops its operands and
    appends its result, and the last result is the contraction.  Given a list
    as tape, for _sweep, each step appends (step, operands popped) to it, and
    a _Sliced step (step, factors, per chunk (its blocks' slice, their
    masses, each part's (value, tape))).

    Factors of shape lead + (k,) and weights of shape lead + (k, k) run one
    contraction per index of the leading batch axes, lead = () for a single
    graphon: the equations carry the batch axes in their ellipsis, each
    reshape keeps them in front, and a permutation, written on negative axes,
    leaves them in place.  np.matmul and the einsum kernels loop over the
    batch, so every contraction has the bits of its own run with lead = ().
    A _Sliced step runs each part's plan once per chunk of the vertex's
    blocks, the chunk a new leading batch axis in front of lead, of length
    1 for a chunk of one block: the blocks' masses, each neighbour's factor
    times the blocks' weight rows, and the other operands broadcast along
    it.  So each block's term has the bits of a run on that block alone,
    and the terms are summed block by block, in block order.
    _blocks_per_chunk keeps every part's intermediates, batch axes
    included, within _CHUNK entries.  Only _contract runs a whole pattern's
    program; this runs the parts of a sliced one.
    """
    lead = weights.shape[:-2]
    ops = [*factors, *[weights] * plan.edge_count]
    for step in plan.steps:
        kind = type(step)
        if kind is _Pair:
            (i, j), _, eq_a, shape_a, eq_b, shape_b, join, shape, perm = step
            a = ops.pop(i)
            b = ops.pop(j)
            if tape is not None:
                tape.append((step, (a, b)))
            if eq_a is not None:
                a = _keep(np.einsum(eq_a, a))
            if shape_a is not None:
                a = a.reshape(lead + shape_a)
            if eq_b is not None:
                b = _keep(np.einsum(eq_b, b))
            if shape_b is not None:
                b = b.reshape(lead + shape_b)
            r = join(a, b)
            if shape is not None:
                r = r.reshape(lead + shape)
            if perm is not None:
                r = r.transpose(tuple(range(len(lead))) + perm)
        elif kind is _Einsum:
            inputs = [ops.pop(i) for i in step.positions]
            if tape is not None:
                tape.append((step, inputs))
            r = np.einsum(step.eq, *inputs)
        else:  # _Sliced
            r = 0
            if tape is not None:
                chunks = []
                tape.append((step, factors, chunks))
            c = _blocks_per_chunk(step, max(math.prod(lead), 1))
            masses = np.moveaxis(ops[step.vertex], -1, 0)
            # every other operand per block, block first: a neighbour's factor
            # times the block's weight row (weights is symmetric, so row b
            # serves edges (vertex, u) and (u, vertex)), the rest broadcast
            rows = np.moveaxis(weights, -2, 0)
            per_block = [
                x * rows if u in step.neighbours else np.broadcast_to(x, (len(rows), *x.shape))
                for u, x in enumerate((*ops, weights))
            ]
            for b0 in range(0, len(rows), c):
                blocks = slice(b0, b0 + c)  # on a new leading batch axis
                mass = masses[blocks]
                term, parts = mass, []
                for vertices, part in step.parts:
                    chunk = [per_block[u][blocks] for u in vertices]
                    part_tape = None if tape is None else []
                    value = _evaluate(part, chunk, per_block[-1][blocks], part_tape)
                    parts.append((value, part_tape))
                    term = term * value
                if tape is not None:
                    chunks.append((blocks, mass, parts))
                for block_term in term:  # in block order
                    r = r + block_term
        ops.append(_keep(r))
    return ops[-1]


def _blocks_per_chunk(step, graphons):
    """How many blocks of a _Sliced step run at once over a stack of graphons:
    as many as keep every part's intermediates within _CHUNK entries, or one."""
    return max(1, _CHUNK // (max(part.size for _, part in step.parts) * graphons))


def _sweep(tape, n, weights):
    """(factor adjoints, weight adjoint) of a contraction of n factors, by one
    reverse walk over the tape _evaluate recorded running its program.

    The adjoint of a step's input is one einsum of the result's adjoint with
    the other inputs, into that input's indices, broadcast along an index
    only that input holds.  Each operand is popped by exactly one step, so
    its adjoint goes back in where that step popped it, and the list ends
    aligned with [factors..., weights once per edge].  The weight adjoint
    sums the edges' adjoints, each in its edge's (u, v) orientation.
    A _Sliced step sweeps each part's tape once per chunk, as _evaluate ran
    it, every chunk on its block axis, and takes, per block b, the product
    rule across its parts' recorded values, adding into the adjoints block
    by block, in block order.  A neighbour's factor there is factors[u] * weights[b], so its adjoint also
    feeds row b of the weight adjoint (weights is symmetric, as in _evaluate).
    Leading batch axes run through as in _evaluate: the first adjoint is one
    per contraction, and a per-contraction coefficient broadcasts over blocks.
    """
    total = np.zeros_like(weights)
    if type(tape[0][0]) is _Sliced:
        ((step, factors, chunks),) = tape
        adjoints = [np.zeros_like(f) for f in factors]
        for blocks, mass, parts in chunks:
            chunk_weights = np.broadcast_to(weights, mass.shape + weights.shape[-2:])
            values = [value for value, _ in parts]
            swept = [
                _sweep(part_tape, len(vertices), chunk_weights)
                for (vertices, _), (_, part_tape) in zip(step.parts, parts)
            ]
            for j, b in enumerate(range(weights.shape[-1])[blocks]):
                block_values = [value[j] for value in values]
                adjoints[step.vertex][..., b] += math.prod(block_values)
                for p, (vertices, _) in enumerate(step.parts):
                    c = (mass[j] * math.prod(block_values[:p] + block_values[p + 1 :]))[..., None]
                    part_adjoints, part_total = swept[p]
                    total += c[..., None] * part_total[j]
                    for u, adjoint in zip(vertices, part_adjoints):
                        adjoint = adjoint[j]
                        if u in step.neighbours:
                            total[..., b, :] += c * adjoint * factors[u]
                            adjoint = adjoint * weights[..., b, :]
                        adjoints[u] += c * adjoint
        return adjoints, total
    ones = np.ones(weights.shape[-1])
    adjoints = [np.ones(weights.shape[:-2])]
    for step, inputs in reversed(tape):
        bar = adjoints.pop()
        for m in reversed(range(len(inputs))):  # the positions, ascending
            eq, alone = _adjoint_eqs(step.eq)[m]
            adjoint = np.einsum(eq, bar, *inputs[:m], *inputs[m + 1 :], *[ones] * alone)
            adjoints.insert(step.positions[m], adjoint)
    return adjoints[:n], sum(adjoints[n:], total)


@functools.lru_cache(maxsize=4096)
def _adjoint_eqs(eq):
    """Per input m of the einsum eq: the einsum that gives m's adjoint from
    the result's adjoint, the other inputs and one ones vector per index only
    m holds, and the number of those ones vectors.  The ellipsis of eq's terms
    stays on each, and no ones vector has one."""
    joined, out = eq.split("->")
    terms = joined.split(",")
    eqs = []
    for m, term in enumerate(terms):
        others = terms[:m] + terms[m + 1 :]
        alone = [ix for ix in term if ix not in out and ix not in "".join(others)]
        eqs.append((",".join([out, *others, *alone]) + "->" + term, len(alone)))
    return tuple(eqs)


def _contract(g, factors, weights, tape=None):
    """The contraction of pattern g's tensor network, every vertex summed:
    the one entry into the engine.

    factors[v] is the vector multiplied in for vertex v (normally the block
    masses), of shape lead + (k,), and weights has shape lead + (k, k), lead
    the leading batch axes of a stack of graphons (none for one graphon).
    Checks that g has at most len(_LETTERS) vertices and that its program
    on k blocks stays within the cap, then runs it (_evaluate, which fills
    tape); the result is an array of shape lead, or its 0-d value.  A
    pattern with no vertices contracts to ones of weights' dtype.
    """
    nv = g.vertex_count
    if nv == 0:
        return np.ones(weights.shape[:-2], weights.dtype)
    if nv > len(_LETTERS):
        raise EnumerationCapError(f"patterns with more than {len(_LETTERS)} vertices unsupported")
    k, cap = weights.shape[-1], enumeration_cap()
    plan = _plan(g, k)
    # every step's index space is at most k**nv, so small patterns always pass
    if plan.size > cap:
        raise EnumerationCapError(
            f"contracting {nv} vertices on {k} blocks takes {plan.size} index "
            f"combinations, over the enumeration cap {cap}"
        )
    return _evaluate(plan, factors, weights, tape)


def hom_count(g, target):
    """Exact number of edge-preserving vertex maps V(g) -> V(target)."""
    if not isinstance(target, Graph):
        raise DomainError("hom_count target must be a Graph")
    n = target.vertex_count
    # n**|V(g)| bounds every intermediate count; past int64, Python ints
    dtype = np.int64 if n**g.vertex_count < 2**63 else object
    ones = np.ones(n, dtype)
    # item() keeps integer counts exact: Python ints from object operands
    return _contract(g, [ones] * g.vertex_count, target.adjacency().astype(dtype)).item()


def _as_integers(x):
    """(e, n): an object array n of Python integers with x == n / 2**e."""
    ratios = [v.as_integer_ratio() for v in x.flat]
    e = max(d.bit_length() - 1 for _, d in ratios)  # every d is a power of two
    n = [p << (e - d.bit_length() + 1) for p, d in ratios]
    return e, np.array(n, dtype=object).reshape(x.shape)


def density(g, w):
    """Homomorphism density t(g, w) of a pattern graph in a step graphon."""
    return _in_range(_contract(g, [w.masses] * g.vertex_count, w.weights))


def _in_range(t):
    """Contraction t as a density: float noise past [0, 1] clamped, beyond it
    raises.  An array of contractions is checked and clamped entrywise; a
    single one, 0-d array or scalar, becomes a Python float."""
    if type(t) is np.ndarray and t.ndim:
        inside = ((-_CLAMP_TOL <= t) & (t <= 1.0 + _CLAMP_TOL)).all()  # NaN is not
    else:
        t = float(t)
        inside = -_CLAMP_TOL <= t <= 1.0 + _CLAMP_TOL
    if not inside:
        raise DiscrepancyError(f"t(g, W) = {t!r} lies outside [0, 1]")
    # all terms are nonnegative; clamp float noise at the boundary
    return min(max(t, 0.0), 1.0) if type(t) is float else t.clip(0.0, 1.0)


def log_density(g, w):
    """log t(g, w); -inf when the density is exactly 0.

    If every positive term of the density, a product of |V| masses and |E|
    weights, is at least 2**-1000, the float contraction is accurate and is
    0 only for a zero density, so this is its log.  Otherwise the masses and
    weights are scaled to integers over powers of two and the density is
    counted exactly, so a positive density never underflows to log 0.
    """
    log_mass, log_weight = w._log_floors
    smallest = g.vertex_count * log_mass + g.edge_count * log_weight
    if smallest > _NORMAL_LOG:
        t = density(g, w)
        return math.log(t) if t > 0.0 else -math.inf
    e_m, masses = _as_integers(w.masses)
    e_w, weights = _as_integers(w.weights)
    count = _contract(g, [masses] * g.vertex_count, weights).item()
    if count == 0:
        return -math.inf
    return math.log(count) - (g.vertex_count * e_m + g.edge_count * e_w) * math.log(2)


def json_number(x):
    """x as a JSON number: a float, or None for None, NaN and +-inf, which JSON
    has no token for (a zero density has log -inf, and a ratio of logs can be inf)."""
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def spectrum(w):
    """Eigenvalues of the symmetrized mass-weighted kernel
    D^{1/2} weights D^{1/2}, D = diag(masses)."""
    d = np.sqrt(w.masses)
    m = d[:, None] * w.weights * d[None, :]
    return np.linalg.eigvalsh(m)


def cycle_density_spectral(k, w):
    """Sum of k-th powers of the spectrum; equals t(C_k, w) for k >= 3."""
    if k < 1:
        raise DomainError("cycle length must be >= 1")
    lam = spectrum(w)
    return float(np.sum(lam**k))


def generalized_star_density(n, x, w):
    """Density of the star K_{n,x} with a real exponent x >= 0: the sum,
    over n-tuples T of centre blocks, of prod_{v in T} mu_v times d_T^x,
    where d_T = sum_u mu_u * prod_{v in T} weights[v, u] is the mass of
    the common neighbourhood of T.

    0^0 = 1, so x = 0 always gives 1.

    Tuples run in itertools.product order, in chunks that share their
    first centres: a chunk's products of masses and of weight rows are
    built for all its tuples at once, one centre at a time from the first,
    so each is the left-to-right product a tuple alone would get.  Each
    tuple then takes its own np.dot and power, and the terms are added one
    by one, in tuple order: the sum has the bits of a loop over tuples.  A
    chunk's weight-row products hold at most _CHUNK entries, or k**2 where
    that is more, so memory stays bounded however many tuples the
    enumeration cap lets through.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if x < 0:
        raise DomainError("x must be nonnegative")
    k = w.block_count
    if float(k) ** n > enumeration_cap():
        raise EnumerationCapError(f"{k}^{n} center tuples exceed the enumeration cap")
    masses, weights = w.masses, w.weights
    dot = masses.dot  # np.dot(masses, row)
    tail = 1  # the last tail centres of a tuple vary within a chunk
    while tail < n and k ** (tail + 2) <= _CHUNK:
        tail += 1
    # each tail centre's block, per tuple of a chunk, in product order
    blocks = np.indices((k,) * tail).reshape(tail, -1)
    total = 0.0
    for head in itertools.product(range(k), repeat=n - tail):
        mu, row = 1.0, np.ones(k)
        for b in head:
            mu *= masses[b]
            row = row * weights[b]
        mus, rows = np.full(len(blocks[0]), mu), row
        for b in blocks:
            mus = mus * masses[b]
            rows = rows * weights[b]
        for mu, row in zip(mus.tolist(), rows):
            total += mu * (1.0 if x == 0 else float(dot(row)) ** x)
    return float(total)


def generalized_path_density(alpha, r, beta, w):
    """Density of the r-edge path with fractional pendant edges of weight
    alpha and beta at its two endpoints (endpoint degree powers)."""
    if not (0 <= alpha <= 1 and 0 <= beta <= 1):
        raise DomainError("alpha, beta must lie in [0,1]")
    if r < 0:
        raise DomainError("r must be a nonnegative integer")
    deg = w.weights @ w.masses
    # 0^0 = 1: zero-degree blocks contribute factor 1 when the exponent is 0
    start = w.masses * _pow00(deg, alpha)
    end = _pow00(deg, beta)
    step = w.weights * w.masses[None, :]
    vec = start
    for _ in range(r):
        vec = vec @ step
    return float(np.dot(vec, end))


def _pow00(base, expo):
    if expo == 0:
        return np.ones_like(base)
    return base**expo


@functools.lru_cache(maxsize=1024)
def delta_index(g, i):
    """max over vertex sets S of |S| - i*|N(S)| (the empty set gives 0),
    cached per graph.  By max-flow/min-cut (Ore's deficiency form of Hall's
    theorem) it is n minus the most vertices that can each be given a
    neighbour, none given to more than i: with S on the source side, a cut of
    the network source -> v (capacity 1), v -> u' for u in N(v), u' -> sink
    (capacity i) costs (n - |S|) + i*|N(S)|.  Each vertex in turn gets one
    breadth-first search for an augmenting path."""
    if i < 1:
        raise DomainError("i must be a positive integer")
    nbrs = g.neighbor_sets()
    given = [None] * g.vertex_count  # the neighbour each vertex is given
    holders = [[] for _ in nbrs]  # the vertices each vertex is given to
    for root in range(g.vertex_count):
        parent, queue = {root: None}, [root]
        for x in queue:
            u = next((u for u in nbrs[x] if len(holders[u]) < i), None)
            if u is not None:
                while x is not None:  # x takes u, and hands its old one on to its parent
                    holders[u].append(x)
                    if given[x] is not None:
                        holders[given[x]].remove(x)
                    given[x], u, x = u, given[x], parent[x]
                break
            for u in nbrs[x]:
                for y in holders[u]:
                    if y not in parent:
                        parent[y] = x
                        queue.append(y)
    return given.count(None)


@functools.lru_cache(maxsize=1024)
def independence_number(g, vertex_cap=24):
    """Size of the largest independent set, cached per graph: the sum over
    components.  A bipartite component of n vertices has n minus a maximum
    matching (König), that is (n + delta_1) / 2: delta_index's assignment
    for i = 1 is a matching of its double cover, two copies of it.  Any
    other component is searched by branch and bound under vertex_cap."""
    if len(g.components()) > 1:
        return sum(independence_number(g.induced(c), vertex_cap) for c in g.components())
    n = g.vertex_count
    if is_bipartite(g):
        return (n + delta_index(g, 1)) // 2
    if n > vertex_cap:
        raise EnumerationCapError(f"{n} vertices exceed the independence cap {vertex_cap}")
    nbrs = g.neighbor_sets()
    best = 0

    def grow(candidates, size):
        nonlocal best
        if size + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        v = min(candidates)
        grow(candidates - {v} - nbrs[v], size + 1)
        grow(candidates - {v}, size)

    grow(frozenset(range(n)), 0)
    return best


def path_density(r, w):
    """t(P_r, w); accepts r = 0 (single vertex, density 1)."""
    if r == 0:
        return 1.0
    return density(path(r), w)
