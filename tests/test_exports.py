import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kdentangle"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_every_export_has_a_use_outside_the_tests():
    # a public name must serve the package, the benchmark or the README:
    # one that only tests call belongs in a test helper
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    module_lines = [line for p in modules
                    for line in p.read_text(encoding="utf-8").splitlines()]
    other = "\n".join(p.read_text(encoding="utf-8")
                      for p in [*sorted((ROOT / "bench").glob("*.py")), ROOT / "README.md"])
    unused = []
    for name in exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own_line = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not (word.search(other) or any(word.search(line) and not own_line.match(line)
                                          for line in module_lines)):
            unused.append(name)
    assert unused == []
