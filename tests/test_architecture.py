import ast
from pathlib import Path

import latcensus

PACKAGE = Path(latcensus.__file__).parent


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("latcensus"):
                continue
            offenders += [
                f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []
