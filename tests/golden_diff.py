"""Compare the golden dump of a git revision with this tree's.

    python3 tests/golden_diff.py REV

Exports REV with ``git archive`` into a temporary directory, copies
this tree's ``tests/golden_dump.py`` into it, and runs the dump in both
trees.  Prints the number of differing lines, then each differing line
number with REV's side (``-``) and this tree's (``+``), cut to a fixed
width around their first difference.  Exits 0 only when the two dumps
are byte-identical, 1 when they differ and 2 when REV cannot be
exported or a dump fails.  It needs git and tar, and takes about 16 s.

Pytest does not collect this file.
"""

import itertools
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WIDTH = 160


def _dump(tests):
    """The stdout of golden_dump.py in the tests directory ``tests``, or
    None when it fails; its stderr passes through."""
    run = subprocess.run([sys.executable, str(tests / "golden_dump.py")],
                         stdout=subprocess.PIPE)
    return None if run.returncode else run.stdout


def _sides(old, new):
    """The two sides of a differing line, each cut to WIDTH characters
    from a little before their first difference."""
    old, new = (x.decode("utf-8", "replace").rstrip("\n") for x in (old, new))
    first = next((i for i, (x, y) in enumerate(zip(old, new)) if x != y),
                 min(len(old), len(new)))
    start = max(0, first - WIDTH // 4)
    for sign, text in (("-", old), ("+", new)):
        cut = text[start:start + WIDTH]
        yield "  %s %s%s%s" % (sign, "..." if start else "", cut,
                               "..." if start + WIDTH < len(text) else "")


def main(argv):
    if len(argv) != 1:
        print("usage: golden_diff.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", argv[0]],
                                 cwd=HERE.parent, stdout=subprocess.PIPE)
        if archive.returncode:
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                       check=True)
        tests = Path(tmp) / "tests"
        shutil.copy(HERE / "golden_dump.py", tests / "golden_dump.py")
        old, new = _dump(tests), _dump(HERE)
    if old is None or new is None:
        return 2
    pairs = itertools.zip_longest(old.splitlines(True), new.splitlines(True),
                                  fillvalue=b"")
    diffs = [(n, a, b) for n, (a, b) in enumerate(pairs, 1) if a != b]
    print("%d differing lines" % len(diffs))
    for n, a, b in diffs:
        print("line %d" % n)
        for side in _sides(a, b):
            print(side)
    return 0 if old == new else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
