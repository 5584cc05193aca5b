"""The README's library example runs, and gives the values its comments show."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
# "# 0.0707..." shows the leading digits of the value; "# 0.05" all of them.
SHOWN = re.compile(r"#\s*(\d+\.(\d+))(\.\.\.)?")


def test_library_example_gives_the_commented_values():
    code = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    ns, checked = {}, []
    for node in ast.parse(code).body:
        shown = SHOWN.search(lines[node.end_lineno - 1])
        if not (isinstance(node, ast.Expr) and shown):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), ns)
            continue
        value = float(eval(compile(ast.Expression(node.value), "README.md", "eval"), ns))
        text, digits, truncated = shown.groups()
        unit = 10.0 ** -len(digits)
        if truncated:
            assert 0 <= value - float(text) < unit, (ast.unparse(node), value)
        else:
            assert abs(value - float(text)) <= unit / 2, (ast.unparse(node), value)
        checked.append(text)
    assert checked == ["0.1", "0.0707", "0.005008", "0.05"]
