import ast
import pathlib
import re

from conftest import heavy_modules_loaded

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "arithdyn"

# A bare except, or one catching Exception or BaseException, hides faults
# that the program's typed errors and exit codes are meant to report.
_EXCEPT = re.compile(r"^\s*except\b([^:]*):")
_BROAD = re.compile(r"\b(Base)?Exception\b")


def _is_broad(line: str) -> bool:
    m = _EXCEPT.match(line)
    return bool(m) and (not m.group(1).strip() or bool(_BROAD.search(m.group(1))))


def test_broad_except_rule_matches_what_it_should():
    broad = ("except:", "  except Exception:", "except BaseException as e:", "except (ValueError, Exception):")
    narrow = ("except ValueError:", "  except (CapExceeded, ArithmeticError) as exc:", "except MyException:")
    assert all(_is_broad(line) for line in broad)
    assert not any(_is_broad(line) for line in narrow)


def test_no_broad_except_in_source():
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = [
        f"{path.name}:{n}: {line.strip()}"
        for path in files
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if _is_broad(line)
    ]
    assert not bad, bad


def test_import_loads_no_heavy_dependency():
    # sympy alone costs about 0.45 s of CPU to import, so sympy, mpmath and
    # scipy are imported inside the functions that need them.
    assert heavy_modules_loaded("import arithdyn") == set()


def _exports(tree: ast.Module):
    """The literal __all__ of a parsed module, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def _top_level_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_all_lists_name_only_what_their_modules_define():
    # The benchmark's tracer calls getattr on every __all__ name of every
    # layer module, so a stale entry would break each traced run.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exports = {name: _exports(tree) for name, tree in trees.items()}
    layers = {name: names for name, names in exports.items() if names is not None}
    assert layers
    undefined = [
        f"{name}.{n}" for name, names in layers.items() for n in names
        if n not in _top_level_names(trees[name])
    ]
    assert not undefined, undefined
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if node.level != 1 or alias.name not in (layers.get(node.module) or ())
    ]
    assert not unlisted, unlisted


# Public functions that may wait for a caller, each with its reason.
_CALLER_PENDING = {
    # ROADMAP direction 1: the exact disjointness certificate will call it.
    "newton_polygon",
}


def _identifiers(nodes) -> set:
    """The names that `nodes` use as identifiers: each Name and Attribute, not
    text in strings or comments."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def test_every_public_function_has_a_caller():
    # A caller is the pipeline, the CLI, scripts/, benchmark/ or the
    # acceptance suite, not the function's own tests.
    root = SRC.parent.parent
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    callers = [*root.joinpath("scripts").rglob("*.py"), *root.joinpath("benchmark").rglob("*.py"),
               root / "tests" / "test_acceptance.py"]
    outside = _identifiers(ast.parse(path.read_text()) for path in callers)
    uncalled = []
    for path, tree in trees.items():
        public = _exports(tree) or ()
        others = _identifiers(t for p, t in trees.items() if p != path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                own = _identifiers(n for n in tree.body if n is not node)
                if node.name not in outside | others | own | _CALLER_PENDING:
                    uncalled.append(f"{path.stem}.{node.name}")
    assert not uncalled, uncalled
