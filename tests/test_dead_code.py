"""Guard against dead code.

Every top-level function or class of `src/timeflip`, public or private, and
every non-dunder method or property of a top-level class, must be referred to
by the package's own code outside its definition (`__init__.py` excluded: an
export is not a caller), or by the benchmark in `perfbench/`, or be listed in
KEEP with the reason it stays.  Every module-level import of those modules
must be used by the module that makes it; a name used only in an annotation
counts as used.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "timeflip"
BENCHMARK = ROOT / "perfbench"

# (module.name, reason): definitions no program code calls that stay anyway
KEEP = (
    ("witness.z_score",
     "the significance `probabilities` is to print; acceptance criterion 9 checks its arithmetic"),
)


def _referred(nodes) -> set[str]:
    """Every name, attribute, imported name and string constant under the nodes."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def _units():
    """(owners, refs) for each unit of package code: a top-level statement,
    or in a top-level class each non-dunder method apart from the rest of
    the class.  `owners` holds the module.name of the top-level definition
    and the module.Class.method of the method the unit belongs to; `refs`
    is what the unit refers to."""
    units = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                units.append((frozenset(), _referred([node])))
                continue
            owner = f"{path.stem}.{node.name}"
            rest = [node]
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and not (m.name.startswith("__") and m.name.endswith("__"))]
                units += [(frozenset({owner, f"{owner}.{m.name}"}), _referred([m])) for m in methods]
                rest = [*node.decorator_list, *node.bases, *node.keywords,
                        *(m for m in node.body if m not in methods)]
            units.append((frozenset({owner}), _referred(rest)))
    return units


def _dead(keep: set[str]) -> set[str]:
    """The qualified name of every top-level function or class, and of every
    non-dunder method or property of a top-level class, that no live code
    refers to.  Live code is the package outside the dead definitions, the
    kept definitions included, and the benchmark; a definition's own code
    does not keep it alive, and a definition only dead code calls is dead
    too, so the search repeats until nothing changes."""
    units = _units()
    benchmark = _referred(ast.parse(path.read_text(encoding="utf-8"))
                          for path in sorted(BENCHMARK.glob("*.py")))
    defined = {
        name: name.rsplit(".", 1)[1]
        for name in {name for owners, _ in units for name in owners} - keep
        if name.rsplit(".", 1)[1] not in benchmark
    }
    dead: set[str] = set()
    while True:
        found = {
            name for name, short in defined.items()
            if not any(short in refs for owners, refs in units
                       if name not in owners and not owners & dead)
        }
        if found == dead:
            return dead
        dead = found


def test_every_definition_has_a_caller():
    assert sorted(_dead({name for name, _ in KEEP})) == []


def test_every_kept_definition_still_needs_its_entry():
    # an entry for a name that is gone, or that gained a live caller, is stale
    assert sorted({name for name, _ in KEEP} - _dead(set())) == []
    assert all(reason for _, reason in KEEP)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's top-level imports bind, and those under a
    top-level `if` such as `if TYPE_CHECKING:`, with the line of its import."""
    bound = {}
    for stmt in tree.body:
        for node in [stmt, *stmt.body] if isinstance(stmt, ast.If) else [stmt]:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _loaded(tree: ast.AST) -> set[str]:
    """Every name the code reads, with those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        else:  # an argument's or an annotated assignment's
            note = getattr(node, "annotation", None)
        for part in ast.walk(note) if note else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= _loaded(ast.parse(part.value, mode="eval"))
    return names


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = _loaded(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree).items()
                   if name not in loaded]
    assert unused == []
