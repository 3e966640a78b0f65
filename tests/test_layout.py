"""The layout of src/: it holds what the CLI runs."""

import ast
from pathlib import Path

import pagecert

# top-level definitions that nothing in src/ refers to, yet stay: ppr_vector,
# mean_reward and recover_pagerank are wrapped by perfbench/tracer.py, and
# neighborhood_purity is public API. ROADMAP item 12 is where this set
# shrinks; a name joins it only with a reason there.
UNREFERENCED = {"ppr_vector", "mean_reward", "recover_pagerank", "neighborhood_purity"}


def test_src_has_no_other_library_only_code():
    modules = [p for p in Path(pagecert.__file__).parent.glob("*.py")
               if p.name != "__init__.py"]
    defined, referred = set(), set()
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referred |= {alias.name for alias in node.names}
    assert defined - referred == UNREFERENCED
