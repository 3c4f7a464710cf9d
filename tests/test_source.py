import ast
from pathlib import Path

import altrank


def test_no_assert_statements_in_the_package():
    """Mathematical checks must raise explicitly so that they survive python -O."""
    found = []
    for path in sorted(Path(altrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
