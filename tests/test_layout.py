"""The layout of src/: it holds what the CLI runs."""

import ast
from pathlib import Path

import pagecert

# top-level definitions that nothing in src/ refers to, yet stay: ppr_vector,
# mean_reward and recover_pagerank are wrapped by perfbench/tracer.py, and
# neighborhood_purity is public API. ROADMAP item 12 is where this set
# shrinks; a name joins it only with a reason there.
UNREFERENCED = {"ppr_vector", "mean_reward", "recover_pagerank", "neighborhood_purity"}

# class members that no attribute read in src/ names, yet stay: only the
# solve_lp probe of perfbench/tracer.py reads an LpSolution's stats
UNREAD_MEMBERS = {"LpSolution.stats"}


def _trees():
    return [ast.parse(p.read_text(encoding="utf-8"))
            for p in Path(pagecert.__file__).parent.glob("*.py")
            if p.name != "__init__.py"]


def test_src_has_no_other_library_only_code():
    defined, referred = set(), set()
    for tree in _trees():
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


def test_every_class_member_is_read_in_src():
    # methods, properties and dataclass fields, by name: a member counts
    # as read when some attribute load in src/ has its name
    trees = _trees()
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    members = set()
    for tree in trees:
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif (isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    members.add((cls.name, name))
    unread = {f"{cls}.{name}" for cls, name in members if name not in read}
    assert unread == UNREAD_MEMBERS


def test_every_parameter_is_read_in_its_body():
    unread = []
    for tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            unread += [f"{getattr(fn, 'name', 'lambda')}({p})" for p in params
                       if p not in ("self", "cls") and p not in read]
    assert unread == []
