"""Guard against dead code.

Every top-level function or class of `src/timeflip`, public or private, must
be referred to by the package's own code outside its definition
(`__init__.py` excluded: an export is not a caller), or by the benchmark in
`perfbench/`, or be listed in KEEP with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "timeflip"
BENCHMARK = ROOT / "perfbench"

# (module.name, reason): definitions no program code calls that stay anyway
KEEP = (
    ("channels.input_output_inversion",
     "acceptance criterion 7: the inversion equals the flip supermap on bistochastic channels"),
    ("supermaps.apply_supermap", "acceptance criterion 7: applies the flip supermap to a channel"),
    ("supermaps.definite_split", "acceptance criterion 6: splits a span element into definite parts"),
    ("supermaps.random_span_element", "acceptance criterion 6: its random inputs"),
    ("witness.z_score", "acceptance criterion 9: the significance arithmetic"),
    ("game.game_witness", "README: the game witness and its p_max reading"),
    ("game.qtf_strategy_operator",
     "oracle for tests of kept code: the game witness and the payoff operators"),
    ("game.switch_strategy_operator",
     "oracle for tests of kept code: the game witness and the payoff operators"),
    ("game.strategy_success",
     "oracle for tests of kept code: how the tests score the two strategy operators"),
    ("game.save_gate_pairs",
     "oracle for tests of kept code: writes the gate-pair files that load_gate_pairs and game --pairs read"),
    ("supermaps.subspace_project",
     "oracle for tests of kept code: the span projection the solver and witness tests compare with"),
    ("tensor_core.partial_trace",
     "oracle for tests of kept code: the marginals of link_product and apply_supermap"),
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


def _dead(keep: set[str]) -> set[str]:
    """module.name of every top-level function or class that no live code
    refers to.  Live code is the package outside the dead definitions, the
    kept definitions included, and the benchmark; a definition only dead
    code calls is dead too, so the search repeats until nothing changes."""
    statements = [
        (path.stem, node, _referred([node]))
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    benchmark = _referred(ast.parse(path.read_text(encoding="utf-8"))
                          for path in sorted(BENCHMARK.glob("*.py")))
    defined = {
        f"{module}.{node.name}": node
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and f"{module}.{node.name}" not in keep and node.name not in benchmark
    }
    dead: set[str] = set()
    while True:
        gone = {id(defined[name]) for name in dead}
        found = {
            name for name, node in defined.items()
            if not any(node.name in refs for _, other, refs in statements
                       if other is not node and id(other) not in gone)
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
