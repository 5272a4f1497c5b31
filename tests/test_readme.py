"""README's ``python`` examples run as written, and each value that a line's
``# value`` comment spells as a Python literal or an exact repr is checked."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def comments(source: str) -> dict[int, str]:
    """Each line's comment text, without the ``#``, by line number."""
    found = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            found[token.start[0]] = token.string[1:].strip()
    return found


def expected_value(comment: str):
    """The value a comment spells as a literal, whole or before an
    explaining ``: …``, or None when it spells none."""
    for text in (comment, comment.partition(": ")[0]):
        try:
            return ast.literal_eval(text)
        except (ValueError, SyntaxError):
            pass
    return None


def test_readme_has_two_python_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_readme_python_example_runs_and_shows_its_values(block):
    source = BLOCKS[block]
    notes = comments(source)
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        note = notes.get(statement.end_lineno)
        if not isinstance(statement, ast.Expr) or note is None:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        expected = expected_value(note)
        if expected is not None:
            assert type(value) is type(expected) and value == expected, ast.unparse(statement)
        elif re.fullmatch(r"\w+\(.*\)", note):
            assert repr(value) == note, ast.unparse(statement)
        else:
            continue
        checked += 1
    assert checked, "no line of the example shows a value"
