"""Adaptive inquiry/response relay.

This is the communication pattern shared by the weak coin and the
per-group gossip exchanges inside fuzzy counting.  Time is organized into
epochs, each consisting of testing iterations of two strict rounds:

  round A -- every participant sends a 1-bit inquiry to its current
             neighborhood layer N_p(d * alpha^degree_level);
  round B -- every process that received inquiries responds to each inquirer
             with its payload (hidden register copy or rumor set) plus its
             current adaptive degree.

Within an epoch the adaptive degree starts at the epoch's degree level and
may only fall: after each response round a process keeps the largest level
x <= its current one for which at least delta responders reported adaptive
degree >= x, flooring at level 0.  At the end of an epoch, a process whose
adaptive degree fell below its degree level grows the degree level by one
(capped at its top layer); the adaptive degree rejoins the degree level when
the next epoch starts.

Several disjoint groups can run the pattern in lock-step: each process uses
the layer caps of its own group while the epoch/iteration counts come from
the window parameters (derived from the largest group).

``run_relay`` owns each response's adaptive degree field: it prices it at
clog2(k_max + 1) bits and sends it as ``adaptive_degree``.  A carrier owns
the rest: its ``bits``, its ``qubits`` and its ``classical`` payload part,
which the engine, and so the adversary, sees; the coin's register keys never
leave the carrier.  Payloads are max-merged after each response round.  Both
carriers first mask, on the dense delivered matrix, the edges that can
change their recipient: for rumors (counting) an edge whose sender row
differs from the recipient row, for keys (coin) an edge whose sender key is
the larger.  Once the payloads have spread that mask is empty and the merge
ends there; otherwise only the masked edges are listed and max-merged,
rumors one block of edges (``block_rows``) at a time.
Responder counts for degree adaptation are a float32 BLAS product, exact
below 2**24 processes, converted to float32 one block of about 256 KB of
responder rows at a time; the diameter certificate of the shared layers ORs
packed rows.

The relay's round matrices stay dense (n, n) bool on purpose.  At the sizes
the protocol runs, the top layers it climbs to are dense: at n = 384 under
the constant preset, layer 1 has edge probability 180/384, about 47%, so an
edge list would be about as large as the matrix.  The kernels instead read
each matrix a small, fixed number of times.  The layer stacks, read only
when the levels change, are held bit-packed along their last axis, an
eighth of the bool size: the private stack is drawn and packed a chunk of
processes at a time, and counting packs each level's shared stack once.
A response round, the transpose of its inquiry delivery, is built
C-ordered from the packed transposed layers, so no delivery is ever
transposed (an F-to-C copy that misses cache at large n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import SimContext, read_only
from .rng import Restream


def clog2(x: int) -> int:
    """ceil(log2(x)); 0 for x <= 1."""
    return (x - 1).bit_length() if x > 1 else 0


def layer_count(m: int, d: int, alpha: int) -> int:
    """Smallest k with d*alpha^k >= m (equals ceil(log(m/d)/log alpha), floored at 0)."""
    k, cap = 0, d
    while cap < m:
        k, cap = k + 1, cap * alpha
    return k


def end_epoch_update(degree_level: np.ndarray, adaptive_level: np.ndarray,
                     k_caps: np.ndarray) -> np.ndarray:
    """Degree levels for the next epoch: a process grows one layer, up to its
    cap, iff its adaptive degree fell below its degree level."""
    return np.where(adaptive_level < degree_level,
                    np.minimum(degree_level + 1, k_caps), degree_level)


def block_rows(n: int) -> int:
    """Rows of an (n, n) delivery that ``_adapt_vec`` converts to float32 at
    a time: a block of about 256 KB of float32, which stays in cache (at
    n = 4096 a call takes about a fifth of the time).  Up to n = 256 the
    block holds every row.  ``RumorCarrier.merge`` gathers as many edges'
    rows of n rumors at a time, 512 KB of int64."""
    return max(1, (1 << 16) // n)


def _adapt_vec(ad: np.ndarray, delivered: np.ndarray, delta: int,
               levels: np.ndarray) -> np.ndarray:
    """New adaptive-degree level of every recipient after one response round.

    delivered[p, q] means responder p's payload reached q; responder p
    reported level ad[p]; ``levels`` is the column 0 .. k_max, shape
    (k_max + 1, 1), that ``run_relay`` builds once.  Levels encode degrees
    d*alpha^x, with level -1 standing for the underflow value d/alpha.  Per
    recipient this equals the loop: while fewer than ``delta`` responders
    report a level >= the current one and the current level is still >= 0
    (degree >= d), the level drops by one.  The terminal level -1 is what
    makes the degree grow at the end of the epoch.
    """
    # counts[lv, q]: responders to q that report a level >= lv; a float32
    # product for all levels, one block of responder rows at a time, exact
    # while n < 2**24
    n = ad.size
    above = (ad >= levels).astype(np.float32)
    rows = block_rows(n)
    counts = above[:, :rows] @ delivered[:rows]
    for lo in range(rows, n, rows):  # the last block may be shorter
        counts += above[:, lo:lo + rows] @ delivered[lo:lo + rows]
    # counts[lv, q] falls as lv grows, so the levels with at least delta
    # responders are 0 .. (their number - 1); the loop stops at the highest
    # of them that is <= ad[q], or at -1 when there is none
    return np.minimum(ad, (counts >= delta).sum(axis=0) - 1)


class KeyCarrier:
    """Payload for the coin: one hidden max-mergeable key per process.

    ``bits`` and ``qubits`` price a register, not the adaptive degree (the
    relay's); ``classical`` is empty, as the keys are hidden.

    An edge p -> q can change q's key only if keys[p] > keys[q].  ``merge``
    masks those edges on the delivered matrix with ``larger``, the (n, n)
    comparison of narrow dense ranks of the keys (not the int64 keys), kept
    until a key changes, and returns at once when there is none.  Otherwise
    it max-scatters the senders' keys into their recipients.  It returns
    True exactly when a key changed; skipping a repeated delivery is
    ``run_relay``'s decision.
    """

    def __init__(self, keys: np.ndarray, bits: int, qubits: int):
        self.keys = keys.astype(np.int64)
        self.bits = bits
        self.qubits = qubits
        self.classical = {}
        self.larger = None  # larger[p, q]: keys[p] > keys[q]

    def merge(self, delivered: np.ndarray) -> bool:
        n = self.keys.size
        if self.larger is None:
            ranks = np.unique(self.keys, return_inverse=True)[1].astype(
                np.min_scalar_type(n))
            self.larger = ranks[:, None] > ranks[None, :]
        useful = delivered & self.larger
        if not useful.any():
            return False
        self.larger = None
        src, dst = np.divmod(np.flatnonzero(useful), n)
        np.maximum.at(self.keys, dst, self.keys[src])
        return True


class RumorCarrier:
    """Payload for counting: per-key max-mergeable rumor matrices.

    Each matrix is (n, n_keys) with -1 marking an absent rumor; all matrices
    ride in the same message, priced by ``bits`` without the adaptive degree
    (the relay's) and shown as ``classical["rumors{i}"]``, a read-only view
    that stays live as ``merge`` writes the matrix in place.

    ``merge`` works on the delivered edges, not on an (n, n, n_keys)
    temporary.  Per matrix it labels rows by exact byte equality and masks,
    on the dense delivered matrix, the edges whose sender row differs from
    the recipient row: the max of two equal rows is that row, so no other
    edge can change anything.  Once the rumors have spread almost no edge is
    left, and the matrix is done after the mask.  The edges that are left
    are listed, sorted by recipient, and their sender rows gathered and
    max-reduced per recipient one block of ``block_rows(n_keys)`` edges at
    a time into one buffer of the recipients' rows, written back in place
    after the last block, so every block reads the rows as the round found
    them.  It returns whether any matrix changed (a masked edge need not
    change anything: its sender row may be the smaller).
    """

    def __init__(self, matrices: list[np.ndarray], bits: int):
        self.matrices = matrices
        self.bits = bits
        self.qubits = 0
        self.classical = {f"rumors{i}": read_only(m)
                          for i, m in enumerate(matrices)}
        self.labels = [None] * len(matrices)  # row labels, kept until changed

    def merge(self, delivered: np.ndarray) -> bool:
        changed = False
        for i, m in enumerate(self.matrices):
            if self.labels[i] is None:
                self.labels[i] = _row_labels(m)
            labels = self.labels[i]
            useful = np.not_equal.outer(labels, labels)
            useful &= delivered
            if not useful.any():
                continue
            src, dst = np.divmod(np.flatnonzero(useful), useful.shape[1])
            order = np.argsort(dst)  # edges by recipient
            s, d = src[order], dst[order]
            new = np.concatenate(([True], d[1:] != d[:-1]))  # new recipient
            rcpt = d[new]
            ends = np.cumsum(new)  # each edge's row in merged, plus 1
            held = m[rcpt]
            merged = held.copy()
            rows = block_rows(m.shape[1])
            new[::rows] = True  # each block starts its own segments
            for lo in range(0, d.size, rows):  # each block reads m as before
                b = slice(lo, lo + rows)
                part = merged[ends[lo] - 1:ends[b][-1]]
                np.maximum(part, np.maximum.reduceat(
                    m[s[b]], np.flatnonzero(new[b]), axis=0), out=part)
            if (merged != held).any():
                changed, self.labels[i] = True, None
                m[rcpt] = merged
        return changed


def _row_labels(m: np.ndarray) -> np.ndarray:
    """Integer label per row of a 2-D integer array; equal labels iff equal
    rows.  Sorting the rows as opaque byte strings puts equal rows next to
    each other, which is all a label needs (np.unique on the same view
    costs about twice as much)."""
    rows = np.ascontiguousarray(m)
    void = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    order = np.argsort(void.ravel())
    ranked = rows[order]
    starts = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    labels = np.empty(order.size, dtype=np.min_scalar_type(order.size))
    labels[order] = np.cumsum(starts) - 1
    return labels


@dataclass(frozen=True)
class Window:
    """Lock-step schedule of one adaptive-relay window.

    ``k`` is the top layer level and ``gamma`` the iteration exponent of the
    largest participating group; ``delta`` is the responder threshold of
    degree adaptation.  The epoch and iteration counts follow from k and
    gamma; every iteration takes two rounds.
    """

    k: int
    gamma: int
    delta: int

    @classmethod
    def for_size(cls, m: int, d: int, alpha: int) -> "Window":
        """The window for groups of at most m processes."""
        return cls(k=layer_count(m, d, alpha), gamma=layer_count(m, 1, alpha),
                   delta=-(-2 * alpha // 3))

    @property
    def epochs(self) -> int:
        return (self.k + 2) ** 2

    @property
    def iterations(self) -> int:
        return self.gamma + 1

    @property
    def rounds(self) -> int:
        return self.epochs * self.iterations * 2


def run_relay(ctx: SimContext, layers: np.ndarray, flipped: np.ndarray,
              k_caps: np.ndarray, window: Window, carrier) -> np.ndarray:
    """Run one full adaptive-relay window, mutating ``carrier`` in place;
    return the final degree levels.

    ``layers`` is a (k_max+1, n, n) bool stack bit-packed along its last
    axis (``np.packbits(..., axis=-1)``, zero pad bits): layers[i][p] packs
    the targets of p at level i; rows above a process's own cap must repeat
    its top layer.  ``flipped`` is the packed transposed stack, C-ordered:
    row r of flipped[i] packs column r of layer i (symmetric layers are
    their own).  ``k_caps`` is the per-process top level.  The relay adds
    each response's degree field: ``adaptive_degree`` in the payload,
    clog2(k_max + 1) bits.

    Exact reuse: the inquiry rows depend on the levels only, so they are
    gathered, unpacked and prepared (``SimContext.prepare``) again only when
    the levels change, and with them ``asked``, their transpose: column q
    is picked from flipped[lvl[q]] by one packed level mask per layer, and
    unpacked once; the response round, only when the inquiry round returns
    a new matrix object (returned matrices are read-only), each into the
    buffer it had.  It is built from the transposed layers,
    not the delivery: ``asked`` masked to the inquirers that could send,
    with the columns of those that crashed asking copied from their
    delivered rows; the engine's masking does the rest.  The response
    payload is rebuilt only when the adaptive degrees are a new array; the
    adaptive degrees, unless the same response matrix and degrees were just
    adapted (the same degree array, or equal ones); and the carrier's
    merge, unless the same response matrix was just merged without a change
    (the payloads are then a fixed point of it).  The engine re-masks after
    a halt or crash and reuses a delivery while nobody crashes.
    """
    n = ctx.n
    rows = np.arange(n)
    lvl = np.zeros(n, dtype=np.int64)
    k_max = int(k_caps.max(initial=0))
    levels = np.arange(k_max + 1)[:, None]
    resp_bits = carrier.bits + clog2(k_max + 1)
    ask = ask_lvl = heard = answer = idle = None
    adapted = (None, None, None)  # (response, ad before, ad after)
    payload = {"adaptive_degree": None}  # rebuilt when ad changes
    for _ in range(window.epochs):
        if not np.array_equal(lvl, ask_lvl):
            ask_lvl = lvl  # end_epoch_update keeps it within k_caps
            ask = ctx.prepare(_unpack_rows(layers[lvl, rows], n), ask)
            picks = np.packbits(lvl == levels, axis=-1)[:, None]
            asked = _unpack_rows(
                np.bitwise_or.reduce(flipped & picks, axis=0), n)
        ad = read_only(lvl)  # levels and degrees are never written in place
        for _ in range(window.iterations):
            got_inq = ctx.exchange(ask, 1)
            if got_inq is not heard:
                heard, reply = got_inq, asked & ask.active
                if ctx.active is not ask.active:  # a sender crashed asking
                    gone = np.flatnonzero(ask.active & ~ctx.active)
                    reply[:, gone] = got_inq[gone].T
                answer = ctx.prepare(reply, answer)
                del reply  # prepared as a copy; an (n, n) matrix less
            if payload["adaptive_degree"] is not ad:
                payload = {"adaptive_degree": ad, **carrier.classical}
            got_resp = ctx.exchange(answer, resp_bits, carrier.qubits,
                                    payload=payload)
            if got_resp is not idle:
                idle = None if carrier.merge(got_resp) else got_resp
            seen, before, after = adapted
            if got_resp is not seen or (ad is not before
                                        and not np.array_equal(ad, before)):
                after = read_only(_adapt_vec(ad, got_resp, window.delta,
                                             levels))
            # ad (equal to before) adapts to after; naming it lets the
            # identity test hit from the next iteration
            adapted = got_resp, ad, after
            ad = after
        lvl = end_epoch_update(lvl, ad, k_caps)
    return lvl


def _diameter_within(adj: np.ndarray, limit: int) -> bool:
    """True iff the graph is connected with diameter <= limit.

    Each hop ORs every node's packed reach row with its neighbours' rows
    (``bitwise_or.reduceat`` over the edges, each node its own neighbour)
    until the rows stop changing, as full rows do.
    """
    m = adj.shape[0]
    closed = adj | np.eye(m, dtype=bool)
    if closed.all():
        return True
    src, dst = np.divmod(np.flatnonzero(closed), m)
    starts = np.searchsorted(src, np.arange(m))
    rows = np.zeros((m, -(-m // 64) * 64), dtype=bool)
    rows[:, :m] = closed
    reach = np.packbits(rows, axis=1).view(np.uint64)
    for _ in range(1, limit):
        grown = np.bitwise_or.reduceat(reach[dst], starts, axis=0)
        if np.array_equal(grown, reach):
            break
        reach = grown
    rows[0, :m] = True  # now the packed row of everyone
    return bool((reach == np.packbits(rows[0]).view(np.uint64)).all())


def shared_group_layers(n: int, bounds, d: int, alpha: int,
                        seed: int, tag, max_steps: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (public-seed) undirected layered graphs per group of
    ids [bounds[i], bounds[i+1]), its blocks written through slices.

    Every process in a group of size m gets symmetric neighbor layers with
    edge probability min(1, d*alpha^i / m) inside its group.  Layers are
    nested (layer i contains layer i-1) with exact per-layer marginals, so a
    process that grows its degree keeps pulling from its old neighbors.  The
    base layer of each group is certified connected with diameter at most
    ``max_steps``, the relay iterations available (``_diameter_within``).
    Sampling is repeated deterministically until the certificate holds --
    this stands in for a fixed graph family known to have the needed
    properties.  Returns (layers, k_caps) in the format run_relay expects.

    One stream per attempt draws a top-up per layer and writes the block
    into the stack, certifying the base layer before drawing the next.  The
    top-up is exactly 1 at the first layer whose probability reaches 1 and
    0 above it, and those are the attempt's last draws, so they are not
    drawn: the edges are set or kept.  A group with m <= d (k_g = 0, base
    probability 1) would draw nothing and certify at once, so it is made
    complete in every layer without a stream or a certificate.
    """
    b = np.asarray(bounds).tolist()
    k_caps = np.zeros(n, dtype=np.int64)
    for lo, hi in zip(b, b[1:]):
        k_caps[lo:hi] = layer_count(hi - lo, d, alpha)
    layers = np.zeros((k_caps.max(initial=0) + 1, n, n), dtype=bool)
    streams = Restream()
    for lo, hi in zip(b, b[1:]):
        m, k_g = hi - lo, int(k_caps[lo])
        group = layers[:, lo:hi, lo:hi]
        if k_g == 0:  # m <= d: complete in every layer, nothing drawn
            group[:] = ~np.eye(m, dtype=bool)
            continue
        # a boolean mask fills the pairs in the row-major order of
        # np.triu_indices at an eighth of its memory
        upper = np.triu(np.ones((m, m), dtype=bool), k=1)
        pairs = m * (m - 1) // 2
        for attempt in range(1000):
            rng = streams.at(seed, "shared-layers", tag, d, alpha, lo,
                             attempt)
            edges = np.zeros(pairs, dtype=bool)
            prev_prob = 0.0
            for i in range(k_g + 1):
                prob = min(1.0, d * alpha ** i / m)
                if prob >= 1.0:
                    edges[:] = True
                else:
                    top_up = (prob - prev_prob) / (1.0 - prev_prob)
                    edges |= rng.random(pairs) < top_up
                prev_prob = prob
                # both triangles: a failed attempt's pairs are all rewritten
                group[i][upper] = edges
                group[i].T[upper] = edges
                if i == 0 and not _diameter_within(group[0], max_steps):
                    break  # resample before drawing the upper layers
            else:
                break  # certified, every layer drawn
        else:
            raise RuntimeError("could not certify a connected base layer")
        group[k_g + 1:] = group[k_g]
    return layers, k_caps


def _unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """The bool rows of n columns that ``packed`` packs along its last axis."""
    return np.unpackbits(packed, axis=-1, count=n).view(bool)


_CHUNK = 256  # processes per chunk of a private stack: a multiple of 8


def private_layers(n: int, d: int, alpha: int, seed: int, tag
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-process private directed layers over all n processes (coin
    style), bit-packed along the last axis as ``run_relay`` takes them.

    Process p draws row p of every layer from its own stream, layer by
    layer.  Probabilities grow with the layer, so the layers with
    probability 1 come last in each stream; a [0, 1) double is always below
    1, so those rows are all True and are set without drawing.  The rows of
    up to _CHUNK processes are drawn into one bool block and packed, so no
    bool stack is held.
    """
    k = layer_count(n, d, alpha)
    probs = np.array([min(1.0, d * alpha ** i / n) for i in range(k + 1)])
    drawn = int((probs < 1.0).sum())
    layers = np.empty((k + 1, n, -(-n // 8)), dtype=np.uint8)
    draws = np.empty((drawn, n))
    streams = Restream().each(seed, ("private-layers", tag, ...), range(n))
    for lo in range(0, n, _CHUNK):
        block = np.ones((k + 1, min(_CHUNK, n - lo), n), dtype=bool)
        for row, rng in zip(block.transpose(1, 0, 2), streams):
            rng.random(out=draws)
            np.less(draws, probs[:drawn, None], out=row[:drawn])
        own = np.arange(block.shape[1])
        block[:, own, own + lo] = False
        layers[:, lo:lo + _CHUNK] = np.packbits(block, axis=-1)
    return layers, np.full(n, k, dtype=np.int64)


def flip_layers(layers: np.ndarray) -> np.ndarray:
    """The packed transposed stack of a packed stack, C-ordered: row r of
    layer i packs column r.  _CHUNK columns (whole bytes) at a time are
    unpacked, copied transposed into C order and packed, so no bool stack
    is held (packing a strided transposed view is several times slower)."""
    n = layers.shape[1]
    flipped = np.empty_like(layers)
    for lo in range(0, n, _CHUNK):
        cols = _unpack_rows(layers[..., lo // 8:(lo + _CHUNK) // 8],
                           min(_CHUNK, n - lo))
        flipped[:, lo:lo + _CHUNK] = np.packbits(
            np.ascontiguousarray(cols.transpose(0, 2, 1)), axis=-1)
    return flipped
