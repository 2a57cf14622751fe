"""Raw and code-only line counts of each `src/trinls` module.

    python tests/src_lines.py [REPO]

REPO defaults to the checkout holding this script.  A code line holds a
token that is not a comment, a line break, an indent or a docstring (a
string that is a statement by itself).  This is a measuring tool: pytest
does not collect it and it sets no bound.
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


def main(argv) -> None:
    repo = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    total = [0, 0]
    for path in sorted((repo / "src" / "trinls").glob("*.py")):
        raw, code = counts(path)
        total = [total[0] + raw, total[1] + code]
        print(f"{path.name:16s} {raw:5d} {code:5d}")
    print(f"{'total':16s} {total[0]:5d} {total[1]:5d}")


if __name__ == "__main__":
    main(sys.argv)
