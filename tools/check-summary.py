#!/usr/bin/env python3
"""Check that slade-serve's summary line and its Prometheus scrape agree.

Usage: check-summary.py RESULTS.jsonl METRICS.prom

RESULTS.jsonl is slade-serve's --out file (per-function lines, then one
{"type": "summary", ...} line); METRICS.prom is its --metrics-out file
from the same run. Both read the engine's one metrics store, so every
count the two share must be equal:

  * served == the ok outcome == the latency and queue-wait histogram
    counts; jobs == submitted requests
  * each typed outcome (shed, expired, ...) == its status sample
  * the dedup, cache and verify counters == their families
  * shards[i] steps / sources / step_rows == the {cell="i"} samples
    (the unlabeled sample for a one-shard engine)

Stdlib only. Exit 0 when every pair matches, 1 with one line per
mismatch or missing value.
"""

import json
import sys

OUTCOME = 'slade_engine_outcome_total{status="%s"}'

# Summary key -> the scrape samples that must equal it.
PAIRS = {
    "served": [
        OUTCOME % "ok",
        "slade_engine_latency_seconds_count",
        "slade_engine_queue_wait_seconds_count",
    ],
    "jobs": ["slade_engine_requests_submitted_total"],
    "shed": [OUTCOME % "queue_full"],
    "expired": [OUTCOME % "deadline_expired"],
    "cancelled": [OUTCOME % "cancelled"],
    "shutdown": [OUTCOME % "shutting_down"],
    "encode_failed": [OUTCOME % "encode_failed"],
    "verify_failed": [OUTCOME % "verify_failed"],
    "fused": ["slade_engine_fused_jobs_total"],
    "deduped_in_flight": ["slade_engine_inflight_deduped_total"],
    "decode_cache_hits": ["slade_engine_decode_cache_hits_total"],
    "decode_cache_misses": ["slade_engine_decode_cache_misses_total"],
    "verify_timeouts": ["slade_engine_verify_timeouts_total"],
    "verify_retries": ["slade_engine_verify_retries_total"],
}

# Per-shard summary key -> per-cell family.
SHARD_PAIRS = {
    "steps": "slade_shard_steps_total",
    "sources": "slade_shard_sources_total",
    "step_rows": "slade_shard_step_rows_total",
}


def read_summary(path):
    """The last summary object in a results JSONL file, or None."""
    summary = None
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("type") == "summary":
                summary = obj
    return summary


def read_samples(path):
    """Sample name (with its label set, as rendered) -> value."""
    samples = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


def main(argv):
    if len(argv) != 3:
        print("usage: check-summary.py RESULTS.jsonl METRICS.prom",
              file=sys.stderr)
        return 2
    summary = read_summary(argv[1])
    if summary is None:
        print("%s: no summary line" % argv[1], file=sys.stderr)
        return 1
    samples = read_samples(argv[2])
    errors = []
    checked = 0

    def expect(what, want, sample):
        nonlocal checked
        if want is None:
            errors.append("summary has no %s" % what)
        elif sample not in samples:
            errors.append("%s: %s missing from the scrape" % (what, sample))
        elif samples[sample] != float(want):
            errors.append(
                "%s = %s but %s = %s"
                % (what, want, sample, repr(samples[sample]))
            )
        else:
            checked += 1

    for key, names in PAIRS.items():
        for name in names:
            expect(key, summary.get(key), name)
    shards = summary.get("shards", [])
    if not shards:
        errors.append("summary has no shards")
    for i, shard in enumerate(shards):
        for key, family in SHARD_PAIRS.items():
            sample = (
                family if len(shards) == 1 else '%s{cell="%d"}' % (family, i)
            )
            expect("shards[%d].%s" % (i, key), shard.get(key), sample)

    for e in errors:
        print("%s: %s" % (argv[2], e), file=sys.stderr)
    if errors:
        return 1
    print("%s agrees with %s (%d pairs)" % (argv[1], argv[2], checked))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
