"""numpy is the package's only runtime dependency outside the standard
library (scipy is often installed alongside, but is not declared)."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "invexreg"


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names if n.split(".")[0] not in allowed]
    assert outside == []
