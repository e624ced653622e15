"""Per-layer tracing from outside the program.

The tracer replaces public entry points of ``qconsim`` modules with wrappers
that record spans in memory: (name, start, end, parent span, call id, and the
tracer's own bookkeeping time spent around the span).  Every binding of a
wrapped function is replaced, including the names other modules imported
with ``from .x import y``, so calls between modules are seen too.
``restore`` puts every original back.

A span's self time is its duration minus the durations and bookkeeping of
its direct children.  Counters are taken by the same wrappers, at the same
boundaries, from arguments and return values only.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

from qconsim import adversaries, coin, consensus, counting, engine, exchange, rng

clock = time.perf_counter

# Layers that are deliberately not measured, recorded with every trace.
UNMEASURED = {
    "graphs certifiers, gossip.run_gossip":
        "the protocol never calls them and they may be deleted",
    "digest hashing":
        "it runs inside SimContext.exchange; separating it needs spans "
        "inside the program",
    "sweep --jobs parallelism":
        "the benchmark runs one call at a time in a single process",
}

# Per-layer metric -> (unit, better).  Times and counts are per top-level
# call; *_frac metrics are ratios of totals over the traced calls.
PER_LAYER = {
    "exchange.rumor_merge_s": ("s", "lower"),
    "exchange.rumor_merge_calls": ("count", "lower"),
    "exchange.rumor_merge_useful_frac": ("frac", "higher"),
    "engine.exchange_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.s_per_round": ("s", "lower"),
    "engine.rounds": ("count", "lower"),
    "engine.msgs_attempted": ("count", "lower"),
    "engine.msgs_delivered": ("count", "lower"),
    "engine.delivered_frac": ("frac", "higher"),
    "engine.empty_round_frac": ("frac", "lower"),
    "exchange.relay.count_s": ("s", "lower"),
    "exchange.relay.coin_s": ("s", "lower"),
    "exchange.relay.self_s": ("s", "lower"),
    "exchange.key_merge_s": ("s", "lower"),
    "exchange.key_merge_calls": ("count", "lower"),
    "exchange.key_merge_useful_frac": ("frac", "higher"),
    "exchange.layers_s": ("s", "lower"),
    "exchange.layers_calls": ("count", "lower"),
    "exchange.layers_bytes": ("B", "lower"),
    "rng.substream_s": ("s", "lower"),
    "rng.substream_calls": ("count", "lower"),
    "adversaries.decide_s": ("s", "lower"),
    "adversaries.decide_calls": ("count", "lower"),
    "adversaries.crashes": ("count", "lower"),
    "counting.s": ("s", "lower"),
    "counting.calls": ("count", "lower"),
    "counting.levels": ("count", "lower"),
    "counting.self_s": ("s", "lower"),
    "coin.s": ("s", "lower"),
    "coin.calls": ("count", "lower"),
    "coin.self_s": ("s", "lower"),
    "coin.agree_frac": ("frac", "higher"),
    "consensus.self_s": ("s", "lower"),
    "consensus.phases": ("count", "lower"),
    "consensus.fallback_triggers": ("count", "lower"),
    "trace.call_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


class Tracer:
    """Wraps the entry points on ``install`` and unwraps them on ``restore``."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, call_id, book)
        self.counts: dict[str, float] = defaultdict(float)
        self.call_id = -1
        self._stack = [-1]
        self._patched: list = []  # (module dict or class, key, original)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            a = clock()
            note = before(*args, **kwargs) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.call_id, t0 - a)
            if after:
                after(note, out, *args, **kwargs)
            spans[idx] = (name, t0, t1, parent, self.call_id,
                          (t0 - a) + (clock() - t1))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_function(self, fn, name, after=None):
        """Replace ``fn`` in every qconsim module namespace that binds it."""
        wrapper = self._wrap(fn, name, after=after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qconsim" and not mod_name.startswith("qconsim."):
                continue
            ns = vars(mod)
            for key, value in list(ns.items()):
                if value is fn:
                    self._patched.append((ns, key, fn))
                    ns[key] = wrapper

    def _patch_method(self, cls, attr, name, before=None, after=None):
        fn = cls.__dict__[attr]
        self._patched.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(fn, name, before, after))

    def install(self) -> None:
        c = self.counts

        def exchange_after(_, delivered, *args, **kwargs):
            got = np.count_nonzero(delivered)
            c["rounds"] += 1
            c["delivered"] += got
            c["empty_rounds"] += got == 0

        def decide_after(_, decision, adversary, view):
            # the view holds the round's targets as the engine masked them:
            # senders that can send, no self-messages
            c["attempted"] += np.count_nonzero(view.targets)
            c["crashes"] += len(decision.newly_crashed)

        def rumor_before(carrier, delivered):
            if not delivered.any():
                return None
            return [m.copy() for m in carrier.matrices]

        def rumor_after(before, _, carrier, delivered):
            if before is not None:
                c["rumor_merges_delivering"] += 1
                c["rumor_merges_useful"] += any(
                    not np.array_equal(b, m)
                    for b, m in zip(before, carrier.matrices))

        def key_before(carrier, delivered):
            return carrier.keys.copy() if delivered.any() else None

        def key_after(before, _, carrier, delivered):
            if before is not None:
                c["key_merges_delivering"] += 1
                c["key_merges_useful"] += not np.array_equal(before,
                                                             carrier.keys)

        def layers_after(_, out, *args, **kwargs):
            c["layers_bytes"] += out[0].nbytes + out[1].nbytes

        def coin_after(_, bits, ctx, *args, **kwargs):
            alive = bits[ctx.active]
            if alive.size:
                c["coins_with_survivors"] += 1
                c["coins_agreed"] += bool((alive == alive[0]).all())

        def consensus_after(_, result, *args, **kwargs):
            c["phases"] += result.phases
            c["fallback_triggers"] += sum(1 for ps in result.phase_stats
                                          if ps.fallback)

        self._patch_function(consensus.run_consensus, "consensus",
                             after=consensus_after)
        self._patch_function(counting.fast_counting, "counting")
        self._patch_function(coin.run_coin, "coin", after=coin_after)
        self._patch_function(exchange.run_relay, "relay")
        self._patch_function(exchange.shared_group_layers, "layers",
                             after=layers_after)
        self._patch_function(exchange.private_layers, "layers",
                             after=layers_after)
        self._patch_function(rng.substream, "substream")
        self._patch_method(engine.SimContext, "exchange", "exchange",
                           after=exchange_after)
        self._patch_method(exchange.RumorCarrier, "merge", "rumor_merge",
                           rumor_before, rumor_after)
        self._patch_method(exchange.KeyCarrier, "merge", "key_merge",
                           key_before, key_after)
        classes = [adversaries.Adversary]
        for cls in classes:
            classes.extend(cls.__subclasses__())
            if "decide" in cls.__dict__:
                self._patch_method(cls, "decide", "decide",
                                   after=decide_after)

    def restore(self) -> None:
        """Put every original back; raise if any binding did not return."""
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        for owner, key, original in self._patched:
            current = owner[key] if isinstance(owner, dict) else owner.__dict__[key]
            if current is not original:
                raise RuntimeError(f"tracer failed to restore {key}")
        self._patched.clear()

    # -- top-level calls ------------------------------------------------------

    def run(self, fn, *args):
        """Run one top-level call under a root span with a fresh call id."""
        self.call_id += 1
        return self._wrap(fn, "call")(*args)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, per top-level call, from spans and counters.

        The trace.overhead_* metrics need an untraced run and are added by
        the caller.
        """
        spans = self.spans
        child_time = defaultdict(float)
        for name, t0, t1, parent, _, book in spans:
            if parent >= 0:
                child_time[parent] += (t1 - t0) + book
        total = defaultdict(float)
        self_time = defaultdict(float)
        count = defaultdict(int)
        relay_under = defaultdict(float)
        relays_in_counting = 0
        consensus_minus = 0.0
        for i, (name, t0, t1, parent, _, _) in enumerate(spans):
            dur = t1 - t0
            total[name] += dur
            self_time[name] += dur - child_time[i]
            count[name] += 1
            pname = spans[parent][0] if parent >= 0 else None
            if name == "relay":
                relay_under[pname] += dur
                relays_in_counting += pname == "counting"
            if pname == "consensus" and name in ("counting", "coin"):
                consensus_minus += dur
        c = self.counts
        calls = max(1, count["call"])

        def per_call(v):
            return v / calls

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "exchange.rumor_merge_s": per_call(total["rumor_merge"]),
            "exchange.rumor_merge_calls": per_call(count["rumor_merge"]),
            "exchange.rumor_merge_useful_frac": ratio(
                c["rumor_merges_useful"], c["rumor_merges_delivering"]),
            "engine.exchange_s": per_call(total["exchange"]),
            "engine.self_s": per_call(self_time["exchange"]),
            "engine.s_per_round": ratio(total["exchange"], c["rounds"]),
            "engine.rounds": per_call(c["rounds"]),
            "engine.msgs_attempted": per_call(c["attempted"]),
            "engine.msgs_delivered": per_call(c["delivered"]),
            "engine.delivered_frac": ratio(c["delivered"], c["attempted"]),
            "engine.empty_round_frac": ratio(c["empty_rounds"], c["rounds"]),
            "exchange.relay.count_s": per_call(relay_under["counting"]),
            "exchange.relay.coin_s": per_call(relay_under["coin"]),
            "exchange.relay.self_s": per_call(self_time["relay"]),
            "exchange.key_merge_s": per_call(total["key_merge"]),
            "exchange.key_merge_calls": per_call(count["key_merge"]),
            "exchange.key_merge_useful_frac": ratio(
                c["key_merges_useful"], c["key_merges_delivering"]),
            "exchange.layers_s": per_call(total["layers"]),
            "exchange.layers_calls": per_call(count["layers"]),
            "exchange.layers_bytes": per_call(c["layers_bytes"]),
            "rng.substream_s": per_call(total["substream"]),
            "rng.substream_calls": per_call(count["substream"]),
            "adversaries.decide_s": per_call(total["decide"]),
            "adversaries.decide_calls": per_call(count["decide"]),
            "adversaries.crashes": per_call(c["crashes"]),
            "counting.s": per_call(total["counting"]),
            "counting.calls": per_call(count["counting"]),
            "counting.levels": ratio(relays_in_counting, count["counting"]),
            "counting.self_s": per_call(self_time["counting"]),
            "coin.s": per_call(total["coin"]),
            "coin.calls": per_call(count["coin"]),
            "coin.self_s": per_call(self_time["coin"]),
            "coin.agree_frac": ratio(c["coins_agreed"],
                                     c["coins_with_survivors"]),
            "consensus.self_s": per_call(total["consensus"] - consensus_minus),
            "consensus.phases": ratio(c["phases"], count["consensus"]),
            "consensus.fallback_triggers": ratio(c["fallback_triggers"],
                                                 count["consensus"]),
            "trace.call_s": per_call(total["call"]),
        }

    def write(self, path) -> None:
        """Write every span and counter, with the list of unmeasured layers."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "call_id", "bookkeeping_s"],
                       "spans": self.spans, "counts": self.counts,
                       "unmeasured": UNMEASURED}, fh)
