"""Microbenchmarks of the field and polynomial layers, one field per regime.

Each times a fixed seeded key sequence through the public ``FieldHandle`` and
``Poly`` methods after a warm-up that builds the lazy tables, except
``first_op_ms`` and ``embed_map.ms``, which time the cold path on purpose.
"""

from __future__ import annotations

import random
import statistics
import time

REGIME_FIELD = {"prime": (101, 1), "tabled": (5, 3), "untabled_p2": (2, 8),
                "untabled_odd": (3, 5)}
CHUNK_S = 0.05
REPEATS = 3


def _median_ns_per_call(fn, pairs, repeats=REPEATS):
    """Median over repeats of ns per call, each repeat running >= CHUNK_S."""
    samples = []
    for _ in range(repeats):
        calls, start = 0, time.perf_counter_ns()
        while True:
            for a, b in pairs:
                fn(a, b)
            calls += len(pairs)
            elapsed = time.perf_counter_ns() - start
            if elapsed >= CHUNK_S * 1e9:
                break
        samples.append(elapsed / calls)
    return statistics.median(samples)


def _uncached(make_field):
    return getattr(make_field, "__wrapped__", make_field)


def field_ops(m, rng):
    out = {}
    for regime, (p, s) in REGIME_FIELD.items():
        F = m.field.make_field(p, s, 0)
        pairs = [(rng.randrange(F.q), rng.randrange(1, F.q)) for _ in range(256)]
        F.inv_k(F.mul_k(F.add_k(1, 0), 1))  # warm-up: builds lazy tables
        out[f"field.mul_k.ns.{regime}"] = _median_ns_per_call(F.mul_k, pairs)
        out[f"field.add_k.ns.{regime}"] = _median_ns_per_call(F.add_k, pairs)
        out[f"field.sub_k.ns.{regime}"] = _median_ns_per_call(F.sub_k, pairs)
        out[f"field.inv_k.ns.{regime}"] = _median_ns_per_call(
            lambda a, b: F.inv_k(b), pairs)
    return out


def first_ops(m, rng):
    """Cold field construction plus its first multiplication, in ms."""
    build = _uncached(m.field.make_field)
    out = {}
    for regime, (p, s) in REGIME_FIELD.items():
        samples = []
        for _ in range(REPEATS):
            a, b = rng.randrange(p ** s), rng.randrange(p ** s)
            start = time.perf_counter_ns()
            build(p, s, 0).mul_k(a, b)
            samples.append((time.perf_counter_ns() - start) / 1e6)
        out[f"field.first_op_ms.{regime}"] = statistics.median(samples)
    return out


def embed_cold(m):
    """Cold embedding GF(3^5) -> GF(3^10); each repeat uses a source field
    with another modulus, so no earlier table serves it."""
    make_field = m.field.make_field
    target = make_field(3, 10, 0)
    sources, start = [], 0
    while len(sources) < REPEATS:
        src = make_field(3, 5, start)
        if all(src.modulus != other.modulus for other in sources):
            sources.append(src)
        start += 17
    samples = []
    for src in sources:
        t0 = time.perf_counter_ns()
        m.field.embed_map(src, target)
        samples.append((time.perf_counter_ns() - t0) / 1e6)
    return {"field.embed_map.ms": statistics.median(samples)}


def poly_ops(m, rng):
    """Degree-16 Poly products and Frobenius steps h -> h^q mod f, in us."""
    Poly = m.poly.Poly
    out = {}
    for regime, (p, s) in REGIME_FIELD.items():
        F = m.field.make_field(p, s, 0)
        keys = lambda deg: [rng.randrange(F.q) for _ in range(deg)] + [rng.randrange(1, F.q)]
        pairs = [(Poly(F, keys(16)), Poly(F, keys(16))) for _ in range(4)]
        out[f"poly.mul.us.{regime}"] = _median_ns_per_call(
            lambda a, b: a * b, pairs) / 1e3
        mods = [(Poly(F, keys(15)), Poly(F, keys(16)).monic()) for _ in range(2)]
        out[f"poly.pow_mod.us.{regime}"] = _median_ns_per_call(
            lambda h, f: h.pow_mod(F.q, f), mods, repeats=1) / 1e3
    return out


def run(m, seed: int) -> dict:
    rng = random.Random(f"micro:{seed}")
    metrics = {}
    metrics.update(first_ops(m, rng))
    metrics.update(embed_cold(m))
    metrics.update(field_ops(m, rng))
    metrics.update(poly_ops(m, rng))
    return metrics
