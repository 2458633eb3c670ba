"""End-to-end and per-layer metrics from operation records and spans."""

from __future__ import annotations

import statistics

LAYERS = ("cli", "verify", "mesh", "lagrangian", "diffgeo", "immersion",
          "deformation", "lax", "su2", "soliton")
CHECKS = ("zerocurv", "lax", "compat", "forms", "weingarten", "willmore",
          "shape", "sphere", "consistency")
FORMATS = ("obj", "csv", "json")
BYTES_LAYERS = ("su2", "deformation")
TAIL_BEYOND = 10


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); the percentile is the share
    of samples at or below the value.  With ten samples or fewer none has
    ten beyond it, and the fastest sample is returned.
    """
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def end_to_end(records, setup_samples, peak_rss_mb):
    """End-to-end metrics of untraced operations.

    ``records`` are (latency, points, failed) per operation; the points of
    failed operations do not count as work done.
    """
    lat = [r[0] for r in records]
    return {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail(lat)[0],
        "points_per_s": sum(r[1] for r in records if not r[2]) / sum(lat),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans, op_format):
    """Metrics of one traced pass.

    ``spans`` is the pass's span list (parents index into it); ``op_format``
    maps an export operation's id to its format.  Self time is a span's
    duration minus the time its child spans cover, their tracing cost
    included.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.covered
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.points"] = 0
    for name in ("mesh.generate_s", "mesh.write_s", "diffgeo.useful_ratio",
                 *(f"mesh.serialize_s.{f}" for f in FORMATS),
                 *(f"verify.check_s.{c}" for c in CHECKS)):
        m[name] = 0.0
    for name in ("mesh.bytes_out", "diffgeo.provider_calls", "lagrangian.families",
                 *(f"{layer}.bytes_computed" for layer in BYTES_LAYERS)):
        m[name] = 0
    provider_points = 0
    fed = set()   # outermost oracle spans that evaluated a provider
    for i, s in enumerate(spans):
        layer, dur = s.layer, s.duration
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += dur - child[i]
        m[f"{layer}.points"] += s.points
        if layer in BYTES_LAYERS:
            m[f"{layer}.bytes_computed"] += s.bytes_in + s.bytes_out
        if s.name == "mesh.generate":
            m["mesh.generate_s"] += dur
        elif s.name == "mesh.export_text":
            m[f"mesh.serialize_s.{op_format[s.op]}"] += dur
            m["mesh.bytes_out"] += s.bytes_out
        elif s.name == "mesh.export":
            m["mesh.write_s"] += dur - child[i]
        elif s.name.startswith("verify.check."):
            m["verify.check_s." + s.name.removeprefix("verify.check.")] += dur
        elif s.name == "lagrangian.verify_family":
            m["lagrangian.families"] += 1
        if layer == "immersion" and s.parent >= 0 and spans[s.parent].layer == "diffgeo":
            m["diffgeo.provider_calls"] += 1
            provider_points += s.points
            j = s.parent
            while spans[j].parent >= 0 and spans[spans[j].parent].layer == "diffgeo":
                j = spans[j].parent
            fed.add(j)
    if provider_points:
        m["diffgeo.useful_ratio"] = sum(spans[j].points for j in fed) / provider_points
    return m

