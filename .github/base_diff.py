"""Output differences of this tree against a base commit, for a CI summary.

Usage: python .github/base_diff.py BASE_SHA

Checks the base out in a temporary git worktree, runs ``cycle fig1``,
``cycle fig2`` and ``validate smalltest`` on both trees, and prints, per
output, the largest absolute difference and the count of rows that differ
(a CSV row, or a numeric field of the validate report).  The lines are also
appended to $GITHUB_STEP_SUMMARY when it is set.  There is no gate: the
script exits 0 whatever it finds.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
RUNS = (("cycle fig1", ["cycle", "--config", "fig1"], "out.csv"),
        ("cycle fig2", ["cycle", "--config", "fig2"], "out.csv"),
        ("validate smalltest", ["validate", "--config", "smalltest"], "out.json"))
# runs the CLI of the tree whose src/ is first on the path, whatever is installed
CLI = "import sys; sys.path.insert(0, sys.argv.pop(1)); from omcool.cli import main; sys.exit(main())"


def rows(path: Path) -> list:
    """A CSV's data rows as float tuples, or a report's numeric fields."""
    if path.suffix == ".json":
        return [(k, v) for k, v in sorted(json.loads(path.read_text()).items())
                if isinstance(v, float)]
    lines = [line.split(",") for line in path.read_text().splitlines() if line[:1] != "#"]
    return [tuple(map(float, line)) for line in lines[1:]]


def compare(base: list, head: list) -> str:
    if len(base) != len(head):
        return f"row counts differ ({len(base)} at the base, {len(head)} here)"
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
            for name, argv, out in RUNS:
                paths = [Path(tmp) / f"{side}-{out}" for side in ("base", "head")]
                codes = [subprocess.run([sys.executable, "-c", CLI, str(tree / "src"), *argv,
                                         "--out", str(path)], capture_output=True).returncode
                         for tree, path in zip((base, HEAD), paths)]
                lines.append(f"- {name}: " + (compare(*map(rows, paths)) if codes == [0, 0] else
                                              f"exit {codes[0]} at the base, {codes[1]} here"))
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
