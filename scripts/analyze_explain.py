#!/usr/bin/env python3
"""Summarize and cross-check a disc explain export.

Reads the JSONL written by `disc_cli --explain` (one decision log per saved
outlier — see schemas/explain.schema.json and DESIGN.md §14) and prints:

  * the prune-reason breakdown: how every visited node was dispatched
    (expand, prune_lb, prune_budget, infeasible, incumbent_update,
    memo_hit, prune_dominated) plus revert_refine post-pass restores, and
    the dominated share of the cut nodes (prune_dominated skips over all
    prune_lb + infeasible + prune_dominated nodes),
  * bound-efficacy aggregates — how tight the Prop-3 lower and Prop-5
    upper bounds were: max lb/opt and first ub/opt ratios per feasible
    search, and the ub-lb gap distribution over fully bounded nodes,
  * incumbent convergence: first-feasible depth and adoption counts,
  * per-log consistency: the event stream must re-derive the search's own
    SearchStats counters (prune_lb + infeasible events == lb_prunes, which
    leaves out the scan-free prune_dominated skips; non-memo node events ==
    visited_sets on the DISC path, since a memo_hit revisits a set the memo
    already counted; revert_refine events == revert_refines) whenever no
    events were dropped.

With --metrics METRICS.json (the `disc_cli --metrics-json` snapshot of the
same run) the file totals are also cross-checked against the batch
counters: disc_save_lb_prunes_total, disc_save_visited_sets_total,
disc_save_revert_refines_total, disc_save_nodes_expanded_total and the
disc_explain_* series. Any violated identity is an error (exit 1).

Standard library only. A torn final line (the process died mid-write) is
tolerated and reported; a torn line anywhere else is an error. With --json
the same summary is emitted as one JSON object for scripted checks.

Usage:
  analyze_explain.py EXPLAIN.jsonl [--json] [--metrics METRICS.json]
"""

import json
import sys

ACTIONS = ("expand", "prune_lb", "prune_budget", "infeasible",
           "incumbent_update", "memo_hit", "revert_refine",
           "prune_dominated")

# Actions that visit a *new* attribute set on the DISC path: revert_refine
# is a post-pass event, seed incumbents are injected before the search, and
# a memo_hit revisits a set the visited memo already counted.
NODE_ACTIONS = frozenset(ACTIONS) - {"revert_refine", "memo_hit"}


def load_logs(path):
    """Parses the JSONL export; tolerates exactly one torn final line."""
    logs = []
    torn = 0
    with open(path) as f:
        lines = [(n, l) for n, l in enumerate(f.read().splitlines(), 1)
                 if l.strip()]
    for i, (lineno, line) in enumerate(lines):
        try:
            logs.append(json.loads(line))
        except json.JSONDecodeError as e:
            if i == len(lines) - 1:
                torn = 1  # crash-truncated tail: report, don't fail
            else:
                raise SystemExit(f"{path}:{lineno}: torn line mid-file: {e}")
    return logs, torn


def check_log_identities(log, errors):
    """The event stream must re-derive the log's own stats counters."""
    if log.get("dropped_events", 0) > 0:
        return  # capped stream: counts are lower bounds, nothing to assert
    events = log["events"]
    counts = {a: 0 for a in ACTIONS}
    node_events = 0
    for e in events:
        counts[e["action"]] += 1
        if e["action"] in NODE_ACTIONS and not e.get("seed"):
            node_events += 1
    where = f"ordinal {log['ordinal']}"
    lb_like = counts["prune_lb"] + counts["infeasible"]
    if log["algo"] == "disc":
        if lb_like != log["lb_prunes"]:
            errors.append(f"{where}: prune_lb+infeasible events {lb_like} "
                          f"!= lb_prunes {log['lb_prunes']}")
        if node_events != log["visited_sets"]:
            errors.append(f"{where}: non-memo node events {node_events} "
                          f"!= visited_sets {log['visited_sets']}")
    if counts["revert_refine"] != log["revert_refines"]:
        errors.append(f"{where}: revert_refine events "
                      f"{counts['revert_refine']} "
                      f"!= revert_refines {log['revert_refines']}")


def analyze(logs):
    actions = {a: 0 for a in ACTIONS}
    gap_events = 0
    gap_sum = 0.0
    gap_min = None
    lb_ratios = []
    ub_ratios = []
    first_depths = []
    terminations = {}
    errors = []
    totals = {k: 0 for k in ("visited_sets", "lb_prunes", "nodes_expanded",
                             "revert_refines", "abandoned_scans",
                             "dropped_events", "events")}
    for log in logs:
        terminations[log["termination"]] = (
            terminations.get(log["termination"], 0) + 1)
        for key in totals:
            totals[key] += (len(log["events"]) if key == "events"
                            else log.get(key, 0))
        for e in log["events"]:
            actions[e["action"]] += 1
            if "gap" in e:
                gap_events += 1
                gap_sum += e["gap"]
                gap_min = e["gap"] if gap_min is None else min(gap_min,
                                                               e["gap"])
        summary = log["summary"]
        if "max_lb_over_cost" in summary:
            lb_ratios.append(summary["max_lb_over_cost"])
        if "first_ub_over_cost" in summary:
            ub_ratios.append(summary["first_ub_over_cost"])
        if summary["first_feasible_depth"] >= 0:
            first_depths.append(summary["first_feasible_depth"])
        check_log_identities(log, errors)

    def mean(xs):
        return sum(xs) / len(xs) if xs else None

    cut = (actions["prune_lb"] + actions["infeasible"]
           + actions["prune_dominated"])
    return {
        "searches": len(logs),
        "feasible": sum(1 for log in logs if log["feasible"]),
        "by_algo": {a: sum(1 for log in logs if log["algo"] == a)
                    for a in ("disc", "exact")},
        "terminations": dict(sorted(terminations.items())),
        "actions": actions,
        "dominated_share": actions["prune_dominated"] / cut if cut else None,
        "totals": totals,
        "bound_efficacy": {
            "mean_max_lb_over_cost": mean(lb_ratios),
            "mean_first_ub_over_cost": mean(ub_ratios),
            "gap_events": gap_events,
            "mean_gap": gap_sum / gap_events if gap_events else None,
            "min_gap": gap_min,
        },
        "incumbents": {
            "mean_first_feasible_depth": mean(first_depths),
            "updates": actions["incumbent_update"],
        },
        "identity_errors": errors,
    }


def cross_check_metrics(summary, metrics_path, errors):
    """File totals vs the batch counters of the same run."""
    with open(metrics_path) as f:
        counters = json.load(f)["counters"]

    def expect(name, want):
        got = counters.get(name, 0)
        if got != want:
            errors.append(f"{name}: metrics {got} != explain file {want}")

    t = summary["totals"]
    expect("disc_save_lb_prunes_total", t["lb_prunes"])
    expect("disc_save_visited_sets_total", t["visited_sets"])
    expect("disc_save_nodes_expanded_total", t["nodes_expanded"])
    expect("disc_save_revert_refines_total", t["revert_refines"])
    expect("disc_explain_searches_total", summary["searches"])
    expect("disc_explain_events_total", t["events"])
    for action, n in summary["actions"].items():
        if n > 0:
            expect(f"disc_explain_action_{action}_total", n)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    metrics_path = None
    if "--metrics" in argv:
        i = argv.index("--metrics")
        if i + 1 >= len(argv):
            print(__doc__.strip(), file=sys.stderr)
            return 2
        metrics_path = argv[i + 1]
        args.remove(metrics_path)
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    logs, torn = load_logs(args[0])
    summary = analyze(logs)
    summary["torn_final_line"] = torn
    if metrics_path is not None:
        if torn:
            raise SystemExit("--metrics cross-check requires an untorn file")
        cross_check_metrics(summary, metrics_path,
                            summary["identity_errors"])

    if "--json" in argv:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 1 if summary["identity_errors"] else 0

    print(f"{summary['searches']} searches "
          f"({summary['feasible']} feasible; "
          f"disc {summary['by_algo']['disc']}, "
          f"exact {summary['by_algo']['exact']})"
          + (" — final line torn, ignored" if torn else ""))
    print("terminations:", ", ".join(
        f"{k}={v}" for k, v in summary["terminations"].items()))

    total_nodes = sum(summary["actions"][a] for a in ACTIONS
                      if a != "revert_refine") or 1
    print("\ndecision breakdown (share of recorded node events):")
    for action in ACTIONS:
        n = summary["actions"][action]
        share = ("" if action == "revert_refine"
                 else f" {100.0 * n / total_nodes:5.1f}%")
        print(f"  {action:<17} {n:>8}{share}")
    if summary["dominated_share"] is not None:
        print(f"  dominated share of cut nodes "
              f"{100.0 * summary['dominated_share']:.1f}%")

    be = summary["bound_efficacy"]
    print("\nbound efficacy:")
    if be["mean_max_lb_over_cost"] is not None:
        print(f"  mean max lb/opt    {be['mean_max_lb_over_cost']:.4f}")
    if be["mean_first_ub_over_cost"] is not None:
        print(f"  mean first ub/opt  {be['mean_first_ub_over_cost']:.4f}")
    if be["gap_events"]:
        print(f"  ub-lb gap          {be['gap_events']} events, "
              f"min {be['min_gap']:.4f}, mean {be['mean_gap']:.4f}")
    inc = summary["incumbents"]
    if inc["mean_first_feasible_depth"] is not None:
        print(f"  first feasible at mean depth "
              f"{inc['mean_first_feasible_depth']:.2f} "
              f"({inc['updates']} incumbent updates)")
    if summary["totals"]["dropped_events"]:
        print(f"\n{summary['totals']['dropped_events']} events dropped by "
              f"the per-search cap — per-log identities skipped there")

    if summary["identity_errors"]:
        print("\nIDENTITY VIOLATIONS:", file=sys.stderr)
        for e in summary["identity_errors"]:
            print(f"  {e}", file=sys.stderr)
        return 1
    print("\nall per-log identities hold"
          + (" and metrics cross-check passed" if metrics_path else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
