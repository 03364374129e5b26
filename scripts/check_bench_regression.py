#!/usr/bin/env python3
"""Compare fresh BENCH_*.json artifacts against checked-in baselines.

Stdlib-only perf-regression gate for the CI perf-smoke job (see
bench/baselines/README.md for the baseline-update workflow). Benches write
their artifacts to bench/out/ by default ($DISC_BENCH_OUT overrides; CI
uses build/bench/out) — point --fresh at that directory. For every
baseline file the same-named fresh artifact must exist and:

  1. `schema_version` must match the baseline exactly (a schema bump
     requires a deliberate baseline refresh in the same PR).
  2. `deterministic`, where present, must be true in the fresh run.
  3. Every `search_stats` block (the deterministic work counters — any
     depth, `wall_nanos` excluded) must match the baseline exactly.
     Work-counter drift means the algorithm did different work and fails;
     a change that moves the counters on purpose refreshes the baselines
     alongside.
  4. Throughput must not regress by more than --tolerance, compared only
     when both files record the same `hardware_threads` — timings from
     different machine shapes are incomparable, so a mismatch skips the
     check with a WARN instead of producing a bogus verdict. The kernel
     bench (`distance_kernels`) is checked on its in-process ratio
     instead: the active SIMD tier's speedup over the scalar tier, timed
     in turn in one process, must not fall more than --tolerance below
     the baseline's. Its cross-run rows/s swing wider than the tolerance
     on one host; the ratio does not.
  5. The parallel-save thread sweep must scale: for each measured thread
     count, speedup >= --efficiency-floor * min(threads, hardware_threads).
     Checked on the fresh artifact alone (no baseline needed), and only
     when the fresh machine actually has >1 hardware thread.

Exit status: 0 when all checks pass (warnings allowed), 1 otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

# Timing fields inside search_stats blocks; everything else is a
# deterministic work counter and must be bit-identical run-over-run.
TIMING_KEYS = {"wall_nanos"}


def collect_search_stats(node, path=""):
    """Yields (json_path, stats_dict) for every search_stats block."""
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            child = f"{path}.{key}" if path else key
            if key == "search_stats" and isinstance(value, dict):
                yield child, value
            else:
                yield from collect_search_stats(value, child)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from collect_search_stats(value, f"{path}[{i}]")


class Report:
    def __init__(self):
        self.failures = []
        self.warnings = []

    def fail(self, msg):
        self.failures.append(msg)
        print(f"FAIL: {msg}")

    def warn(self, msg):
        self.warnings.append(msg)
        print(f"WARN: {msg}")

    def ok(self, msg):
        print(f"  ok: {msg}")


def check_work_counters(name, fresh, base, report):
    fresh_stats = dict(collect_search_stats(fresh))
    base_stats = dict(collect_search_stats(base))
    drift = []
    for path in sorted(set(fresh_stats) | set(base_stats)):
        if path not in fresh_stats:
            drift.append(f"{path} missing from fresh artifact")
            continue
        if path not in base_stats:
            drift.append(f"{path} missing from baseline")
            continue
        for key in sorted(set(fresh_stats[path]) | set(base_stats[path])):
            if key in TIMING_KEYS:
                continue
            got = fresh_stats[path].get(key)
            want = base_stats[path].get(key)
            if got != want:
                drift.append(f"{path}.{key}: {want} -> {got}")
    if not drift:
        report.ok(f"{name}: work counters match baseline exactly")
        return
    report.fail(f"{name}: deterministic work counters drifted from baseline "
                f"(algorithm did different work — refresh bench/baselines/ "
                f"if intended): " + "; ".join(drift))


def comparable_hardware(name, fresh, base, report):
    """True when throughput numbers from the two files are comparable."""
    fresh_hw = fresh.get("hardware_threads")
    base_hw = base.get("hardware_threads")
    if fresh_hw is None or base_hw is None:
        report.warn(f"{name}: no hardware_threads field on both sides; "
                    f"skipping throughput comparison")
        return False
    if fresh_hw != base_hw:
        report.warn(f"{name}: hardware_threads mismatch (baseline {base_hw}, "
                    f"fresh {fresh_hw}); skipping throughput comparison — "
                    f"refresh the baseline from a CI artifact of the same "
                    f"runner shape")
        return False
    return True


def check_throughput(name, fresh, base, tolerance, report):
    if not comparable_hardware(name, fresh, base, report):
        return
    got = fresh.get("throughput_per_s")
    want = base.get("throughput_per_s")
    if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
        report.warn(f"{name}: no throughput_per_s to compare")
        return
    if want <= 0:
        report.warn(f"{name}: baseline throughput_per_s is {want}; skipping")
        return
    floor = (1.0 - tolerance) * want
    if got < floor:
        report.fail(f"{name}: throughput regressed beyond {tolerance:.0%}: "
                    f"{got:.1f}/s vs baseline {want:.1f}/s "
                    f"(floor {floor:.1f}/s)")
    else:
        report.ok(f"{name}: throughput {got:.1f}/s vs baseline {want:.1f}/s "
                  f"(floor {floor:.1f}/s)")


def active_tier_speedup(artifact):
    """(active tier, its speedup over the scalar tier) of a kernel artifact."""
    simd = artifact.get("simd") or {}
    tier = simd.get("active_tier")
    for entry in simd.get("tiers") or []:
        if entry.get("tier") == tier:
            return tier, entry.get("speedup")
    return tier, None


def check_simd_speedup(name, fresh, base, tolerance, report):
    tier, got = active_tier_speedup(fresh)
    base_tier, want = active_tier_speedup(base)
    if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
        report.fail(f"{name}: no active-tier speedup to compare "
                    f"(fresh {tier}: {got}, baseline {base_tier}: {want})")
        return
    if tier != base_tier:
        report.warn(f"{name}: active SIMD tier {tier} differs from the "
                    f"baseline's {base_tier}; skipping speedup comparison")
        return
    floor = (1.0 - tolerance) * want
    if got < floor:
        report.fail(f"{name}: {tier} speedup over scalar regressed beyond "
                    f"{tolerance:.0%}: {got:.2f}x vs baseline {want:.2f}x "
                    f"(floor {floor:.2f}x)")
    else:
        report.ok(f"{name}: {tier} speedup over scalar {got:.2f}x vs "
                  f"baseline {want:.2f}x (floor {floor:.2f}x)")


def check_thread_sweep(name, fresh, efficiency_floor, report):
    sweep = fresh.get("thread_sweep")
    hw = fresh.get("hardware_threads")
    if not isinstance(sweep, list) or not sweep:
        report.fail(f"{name}: missing thread_sweep")
        return
    if not isinstance(hw, int) or hw <= 1:
        report.warn(f"{name}: hardware_threads={hw}; thread-scaling check "
                    f"needs a multi-core machine, skipping")
        return
    for entry in sweep:
        threads = entry.get("threads", 0)
        speedup = entry.get("speedup", 0.0)
        if threads <= 1:
            continue
        effective = min(threads, hw)
        need = efficiency_floor * effective
        if speedup < need:
            report.fail(f"{name}: sub-linear beyond tolerance at "
                        f"{threads} threads: speedup {speedup:.2f}x < "
                        f"{need:.2f}x ({efficiency_floor:.0%} of "
                        f"{effective} effective cores)")
        else:
            report.ok(f"{name}: {threads} threads -> {speedup:.2f}x "
                      f"(need >= {need:.2f}x)")


def check_file(fresh_path, base_path, args, report):
    name = base_path.name
    try:
        fresh = json.loads(fresh_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        report.fail(f"{name}: cannot read fresh artifact: {e}")
        return
    base = json.loads(base_path.read_text())

    if fresh.get("schema_version") != base.get("schema_version"):
        report.fail(f"{name}: schema_version {fresh.get('schema_version')} != "
                    f"baseline {base.get('schema_version')} (refresh "
                    f"bench/baselines/ alongside the schema bump)")
        return
    report.ok(f"{name}: schema_version {fresh.get('schema_version')}")

    if "deterministic" in base or "deterministic" in fresh:
        if fresh.get("deterministic") is not True:
            report.fail(f"{name}: deterministic != true — results differ "
                        f"across thread counts")
        else:
            report.ok(f"{name}: deterministic across thread counts")

    check_work_counters(name, fresh, base, report)
    if fresh.get("bench") == "distance_kernels":
        check_simd_speedup(name, fresh, base, args.tolerance, report)
    else:
        check_throughput(name, fresh, base, args.tolerance, report)
    if fresh.get("bench") == "parallel_save":
        check_thread_sweep(name, fresh, args.efficiency_floor, report)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True, type=Path,
                        help="directory holding the just-produced BENCH_*.json "
                             "(the benches' bench/out/ or $DISC_BENCH_OUT)")
    parser.add_argument("--baselines", required=True, type=Path,
                        help="directory of checked-in baseline BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional throughput regression "
                             "(default 0.15 = 15%%)")
    parser.add_argument("--efficiency-floor", type=float, default=0.45,
                        help="required parallel efficiency per effective "
                             "core in the thread sweep (default 0.45)")
    args = parser.parse_args()

    baselines = sorted(args.baselines.glob("BENCH_*.json"))
    if not baselines:
        print(f"FAIL: no BENCH_*.json baselines in {args.baselines}")
        return 1

    report = Report()
    for base_path in baselines:
        fresh_path = args.fresh / base_path.name
        print(f"== {base_path.name}")
        if not fresh_path.is_file():
            report.fail(f"{base_path.name}: fresh artifact missing from "
                        f"{args.fresh}")
            continue
        check_file(fresh_path, base_path, args, report)

    print(f"\n{len(baselines)} baseline(s): "
          f"{len(report.failures)} failure(s), "
          f"{len(report.warnings)} warning(s)")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
