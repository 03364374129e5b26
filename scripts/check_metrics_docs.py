#!/usr/bin/env python3
"""Keep the DESIGN.md metrics reference table and the source in lockstep.

Scans `src/` for every metric registration site — the first string literal
of a `GetCounter` / `GetGauge` / `GetHistogram` call, plus `std::string(
"disc_..._")` prefix compositions that build family names at runtime
(per-termination, per-disposition, per-action, per-index-impl) — and
compares the result against the reference table in DESIGN.md (the
markdown table rows whose first column is a backticked `disc_...` name;
`<placeholder>` segments match any `[a-z0-9_]+`).
The per-stats-field family `disc_save_<field>_total`, which
`SearchStats::FlushTo` composes at run time, is expanded from the
`kSearchStatsWorkFields` table in `core/search_stats.h` and checked as
exact names, so a row for a removed counter fails.

Enforced both directions:
  * every metric the source can emit must be documented — an exact
    registered name needs a matching table row; a runtime-composed prefix
    needs at least one row that starts with it,
  * every documented name must still exist in the source — matching an
    exact registration or extending a composed prefix.

Standard library only; run from the repo root (CI: observability job).

Usage:
  check_metrics_docs.py [--design DESIGN.md] [--src src]
"""

import os
import re
import sys

REGISTRATION = re.compile(
    r"Get(?:Counter|Gauge|Histogram)\(\s*(?:std::string\(\s*)?"
    r'"(disc_[a-z0-9_]*)"')
COMPOSED_PREFIX = re.compile(r'std::string\(\s*"(disc_[a-z0-9_]*_)"\s*\)')
DOC_ROW = re.compile(r"^\|\s*`(disc_[a-z0-9_<>]*)`")
STATS_FIELD = re.compile(r'\{"([a-z0-9_]+)",\s*&SearchStats::')


def scan_source(src_root):
    exact, prefixes = set(), set()
    for dirpath, _, filenames in os.walk(src_root):
        for filename in filenames:
            if not filename.endswith((".cc", ".h")):
                continue
            with open(os.path.join(dirpath, filename)) as f:
                text = f.read()
            for name in REGISTRATION.findall(text):
                (prefixes if name.endswith("_") else exact).add(name)
            prefixes.update(COMPOSED_PREFIX.findall(text))
    # SearchStats::FlushTo's disc_save_<field>_total: one name per field.
    prefixes.discard("disc_save_")
    with open(os.path.join(src_root, "core", "search_stats.h")) as f:
        fields = STATS_FIELD.findall(f.read())
    if not fields:
        sys.exit(f"FAIL: no kSearchStatsWorkFields entries in {src_root}/")
    exact.update(f"disc_save_{field}_total" for field in fields)
    return exact, prefixes


def scan_docs(design_path):
    rows = []
    with open(design_path) as f:
        for line in f:
            m = DOC_ROW.match(line)
            if m:
                rows.append(m.group(1))
    return rows


def doc_regex(row):
    # Row charset is [a-z0-9_<>] (enforced by DOC_ROW), so no escaping is
    # needed: only the placeholders become wildcards.
    return re.compile(re.sub(r"<[a-z0-9_]+>", "[a-z0-9_]+", row) + "$")


def main(argv):
    design_path = "DESIGN.md"
    src_root = "src"
    if "--design" in argv:
        design_path = argv[argv.index("--design") + 1]
    if "--src" in argv:
        src_root = argv[argv.index("--src") + 1]

    exact, prefixes = scan_source(src_root)
    rows = scan_docs(design_path)
    if not rows:
        print(f"FAIL: no metrics table rows found in {design_path}",
              file=sys.stderr)
        return 1
    patterns = [(row, doc_regex(row)) for row in rows]

    failures = []
    for name in sorted(exact):
        if not any(p.match(name) for _, p in patterns):
            failures.append(f"undocumented metric: {name} "
                            f"(registered in {src_root}/, no row in "
                            f"{design_path})")
    for prefix in sorted(prefixes):
        if not any(row.startswith(prefix) for row, _ in patterns):
            failures.append(f"undocumented metric family: {prefix}* "
                            f"(composed in {src_root}/, no row in "
                            f"{design_path})")
    for row, _ in patterns:
        literal = row.split("<", 1)[0]
        if row in exact:
            continue
        if any(literal.startswith(p) for p in prefixes):
            continue
        failures.append(f"stale documentation: {row} "
                        f"(row in {design_path}, not registered anywhere "
                        f"in {src_root}/)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"{design_path}: {len(rows)} documented metrics match "
          f"{len(exact)} registrations + {len(prefixes)} composed "
          f"families in {src_root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
