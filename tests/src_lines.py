"""Raw and code-only line counts of each `src/trinls` module.

    python tests/src_lines.py [REPO [OTHER]]

REPO defaults to the checkout holding this script.  With a second checkout
OTHER, each module's counts on both trees are printed side by side, with
the change from OTHER to REPO.  A code line holds a token that is not a
comment, a line break, an indent or a docstring (a string that is a
statement by itself).  This is a measuring tool: pytest does not collect it
and it sets no bound.
"""

import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def counts(path: Path) -> tuple:
    """(raw lines, code lines) of one Python file."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))[1:]  # past ENCODING
    code, statement = set(), []
    for tok in tokens:
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                code.update(line for t in statement
                            for line in range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in SKIP:
            statement.append(tok)
    return len(path.read_bytes().splitlines()), len(code)


def tree(repo: Path) -> dict:
    """{module name: (raw lines, code lines)} of the checkout `repo`."""
    return {path.name: counts(path)
            for path in sorted((repo / "src" / "trinls").glob("*.py"))}


def main(argv) -> None:
    repo = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    trees = [tree(Path(path)) for path in [repo] + argv[2:3]]
    for name in sorted(set().union(*trees)):
        print(line(name, [t.get(name, (0, 0)) for t in trees]))
    print(line("total", [tuple(map(sum, zip(*t.values()))) for t in trees]))


def line(name: str, row: list) -> str:
    """One module's (raw, code) counts; with a second tree, its counts and
    the change from it."""
    text = f"{name:16s}" + "".join(f" {raw:5d} {code:5d}" for raw, code in row)
    if len(row) == 2:
        (raw, code), (raw_o, code_o) = row
        text += f" {raw - raw_o:+6d} {code - code_o:+6d}"
    return text


if __name__ == "__main__":
    main(sys.argv)
