"""``python -m repro.lint``: run every contract pass in one invocation.

Exit status: 0 when every finding is baselined (or none exist), 1 when
any non-baselined finding (or malformed baseline entry) remains, 2 on
usage errors.  ``--json`` prints the machine-readable report CI
archives; ``--output`` writes it to a file as well.  ``--root`` points
the AST load at an alternate tree containing a ``repro/`` package --
fixture tests use it to prove seeded violations fail the run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.findings import Baseline, render_json, render_text
from repro.lint.loader import DEFAULT_SRC, Codebase
from repro.lint.registry import LintContext, all_passes, run_passes

DEFAULT_BASELINE = DEFAULT_SRC.parent / "tools" / "lint_baseline.txt"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="run the repro contract-lint passes",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the JSON report"
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="also write the JSON report to this file",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="directory containing the 'repro' package to analyze "
        "(default: the installed source tree)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="baseline file of grandfathered findings "
        "(default: tools/lint_baseline.txt)",
    )
    parser.add_argument(
        "--pass", dest="passes", action="append", default=None,
        metavar="ID", help="run only this pass (repeatable)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list registered passes and their contracts, then exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        for lint_pass in all_passes():
            rules = ", ".join(lint_pass.rules)
            print(f"{lint_pass.pass_id}  [{rules}]")
            print(f"    {lint_pass.contract}")
        return 0

    src_root = args.root if args.root is not None else DEFAULT_SRC
    try:
        codebase = Codebase.load(src_root)
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"repro.lint: cannot load codebase: {exc}", file=sys.stderr)
        return 2
    context = LintContext(codebase=codebase, src_root=src_root)
    try:
        findings, reports = run_passes(context, only=args.passes)
    except KeyError as exc:
        print(f"repro.lint: {exc.args[0]}", file=sys.stderr)
        return 2

    baseline = Baseline.load(args.baseline)
    new, baselined, stale = baseline.split(findings)
    if args.passes:
        # Entries of passes that did not run are not stale.
        ran = {rule for each in all_passes() if each.pass_id in args.passes
               for rule in each.rules}
        stale = [key for key in stale if key.split(" ", 1)[0] in ran]
    json_report = render_json(new, baselined, stale, reports, baseline.errors)
    if args.output is not None:
        args.output.write_text(json_report + "\n", encoding="utf-8")
    if args.json:
        print(json_report)
    else:
        print(render_text(new, baselined, stale, [], baseline.errors))
    failing = [f for f in new if f.severity == "error"]
    return 1 if failing or baseline.errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
