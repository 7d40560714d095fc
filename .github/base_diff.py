"""Output differences of this tree against a base commit, for a CI summary.

Usage: python .github/base_diff.py BASE_SHA

Checks the base out in a temporary git worktree, runs ``cycle fig1`` and
``cycle fig2`` (each with ``--report``) and ``validate smalltest`` on both
trees, and prints, per output, the largest absolute difference and the count
of rows that differ: a CSV row, or a numeric leaf of a JSON report, at any
depth (a cycle report's per-cycle records, ``asymptote_estimate`` and
``limit_deviation`` among them).  The lines are also appended to
$GITHUB_STEP_SUMMARY when it is set.  There is no gate: the script exits 0
whatever it finds.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
# each run's outputs: the flag that names a file, and the file
CYCLE = (("--out", "out.csv"), ("--report", "report.json"))
RUNS = (("cycle fig1", ["cycle", "--config", "fig1"], CYCLE),
        ("cycle fig2", ["cycle", "--config", "fig2"], CYCLE),
        ("validate smalltest", ["validate", "--config", "smalltest"], (("--out", "out.json"),)))
# runs the CLI of the tree whose src/ is first on the path, whatever is installed
CLI = "import sys; sys.path.insert(0, sys.argv.pop(1)); from omcool.cli import main; sys.exit(main())"


def leaves(node, key: str = "") -> list:
    """(key path, value) of every numeric leaf of a JSON value, in order."""
    if isinstance(node, dict):
        return [leaf for k, v in sorted(node.items()) for leaf in leaves(v, f"{key}.{k}")]
    if isinstance(node, list):
        return [leaf for i, v in enumerate(node) for leaf in leaves(v, f"{key}[{i}]")]
    numeric = isinstance(node, (int, float)) and not isinstance(node, bool)
    return [(key, node)] if numeric else []


def rows(path: Path) -> list:
    """A CSV's data rows as float tuples, or a report's numeric leaves."""
    if path.suffix == ".json":
        return leaves(json.loads(path.read_text()))
    lines = [line.split(",") for line in path.read_text().splitlines() if line[:1] != "#"]
    return [tuple(map(float, line)) for line in lines[1:]]


def compare(base: list, head: list) -> str:
    if len(base) != len(head):
        return f"row counts differ ({len(base)} at the base, {len(head)} here)"
    if [r[0] for r in base if isinstance(r[0], str)] != [r[0] for r in head
                                                         if isinstance(r[0], str)]:
        return "the reports' fields differ"
    diffs = [max((abs(a - b) for a, b in zip(r, s) if not isinstance(a, str)), default=0.0)
             for r, s in zip(base, head)]
    return (f"largest absolute difference {max(diffs, default=0.0):.3g}, "
            f"{sum(d != 0.0 for d in diffs)} of {len(diffs)} rows differ")


def main(base_sha: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(HEAD), "worktree", "add", "--detach", str(base),
                        base_sha], check=True, capture_output=True)
        try:
            lines = [f"outputs against the base {base_sha[:12]} (no gate):"]
            sides = (("base", base), ("head", HEAD))
            for name, argv, outputs in RUNS:
                codes = [subprocess.run(
                    [sys.executable, "-c", CLI, str(tree / "src"), *argv,
                     *(x for flag, out in outputs for x in (flag, f"{tmp}/{side}-{out}"))],
                    capture_output=True).returncode for side, tree in sides]
                if codes != [0, 0]:
                    lines.append(f"- {name}: exit {codes[0]} at the base, {codes[1]} here")
                    continue
                for _, out in outputs:
                    lines.append(f"- {name} {out}: " + compare(
                        *(rows(Path(tmp) / f"{side}-{out}") for side, _ in sides)))
        finally:
            subprocess.run(["git", "-C", str(HEAD), "worktree", "remove", "--force", str(base)],
                           capture_output=True)
    text = "\n".join(lines)
    print(text)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as summary:
            print(text, file=summary)


if __name__ == "__main__":
    main(sys.argv[1])
