#!/usr/bin/env python3
"""Reconstruct and summarize span trees from a disc trace export.

Reads the JSONL written by `disc_cli --trace` (one span per line, linked by
trace_id/span_id/parent_id — see schemas/trace.schema.json and DESIGN.md
§13), rebuilds the per-outlier span trees, and prints:

  * per-phase wall-time aggregates (index_query, bounds_scan, dcache_fill,
    estimate, verdict) with counts and share of total search wall time,
  * tree integrity (span counts by kind, orphaned spans, incomplete trees),
  * the critical path of the slowest save — the chain of heaviest child
    spans from its save_outlier root down.

Standard library only. A torn final line (the process died mid-write) is
tolerated and reported; a torn line anywhere else is an error. With --json
the same summary is emitted as one JSON object for scripted cross-checks
(CI compares its stats totals against the disc_save_* counters).

Usage:
  analyze_trace.py TRACE.jsonl [--json]
"""

import json
import sys

PHASES = ("index_query", "bounds_scan", "dcache_fill", "estimate", "verdict")


def load_spans(path):
    """Parses the JSONL export; tolerates exactly one torn final line."""
    spans = []
    torn = 0
    with open(path) as f:
        lines = [(n, l) for n, l in enumerate(f.read().splitlines(), 1)
                 if l.strip()]
    for i, (lineno, line) in enumerate(lines):
        try:
            spans.append(json.loads(line))
        except json.JSONDecodeError as e:
            if i == len(lines) - 1:
                torn = 1  # crash-truncated tail: report, don't fail
            else:
                raise SystemExit(f"{path}:{lineno}: torn line mid-file: {e}")
    return spans, torn


def analyze(spans):
    by_kind = {}
    for s in spans:
        by_kind.setdefault(s["span"], []).append(s)

    # Span trees: index by (trace_id, span_id), link children by parent_id.
    # Spans with trace_id 0 (the split phase, untraced records) are flat.
    index = {}
    for s in spans:
        if s.get("trace_id"):
            index[(s["trace_id"], s["span_id"])] = s
    children = {}
    orphans = []
    for s in spans:
        if not s.get("trace_id") or not s.get("parent_id"):
            continue
        key = (s["trace_id"], s["parent_id"])
        if key in index:
            children.setdefault(key, []).append(s)
        else:
            orphans.append(s)

    phases = {
        name: {
            "wall_ns": sum(s["dur_ns"] for s in by_kind.get(name, [])),
            "count": len(by_kind.get(name, [])),
        }
        for name in PHASES
    }
    return {
        "spans": len(spans),
        "traces": len({s["trace_id"] for s in spans if s.get("trace_id")}),
        "by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        "orphans": len(orphans),
        "phases": phases,
        "search_wall_ns": sum(s["dur_ns"] for s in by_kind.get("search", [])),
        "stats_totals": {
            key: sum(s.get(key, 0) for s in by_kind.get("save_outlier", []))
            for key in ("nodes_expanded", "index_queries")
        },
    }, index, children, by_kind


def critical_path(root, index, children):
    """The chain of heaviest children from `root` down to a leaf."""
    path = [root]
    node = root
    while True:
        kids = children.get((node["trace_id"], node["span_id"]), [])
        if not kids:
            return path
        node = max(kids, key=lambda s: s["dur_ns"])
        path.append(node)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spans, torn = load_spans(args[0])
    summary, index, children, by_kind = analyze(spans)
    summary["torn_final_line"] = torn

    if "--json" in argv:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    print(f"{summary['spans']} spans in {summary['traces']} traces "
          f"({summary['orphans']} orphaned)"
          + (" — final line torn, ignored" if torn else ""))
    print("span counts:", ", ".join(f"{k}={v}"
                                    for k, v in summary["by_kind"].items()))

    total = summary["search_wall_ns"] or 1
    print("\nphase aggregates (share of total search wall time):")
    for name in PHASES:
        p = summary["phases"][name]
        print(f"  {name:<12} {p['wall_ns'] / 1e6:10.3f} ms "
              f"x{p['count']:<6} {100.0 * p['wall_ns'] / total:5.1f}%")

    roots = by_kind.get("save_outlier", [])
    traced = [r for r in roots if r.get("trace_id")]
    if traced:
        slowest = max(traced, key=lambda s: s["dur_ns"])
        print(f"\ncritical path of slowest save "
              f"(row {slowest.get('row', '?')}, "
              f"{slowest['dur_ns'] / 1e6:.3f} ms):")
        for depth, node in enumerate(critical_path(slowest, index, children)):
            extra = ""
            if "termination" in node:
                extra = f" [{node['termination']}]"
            print(f"  {'  ' * depth}{node['span']:<12} "
                  f"{node['dur_ns'] / 1e6:9.3f} ms{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
