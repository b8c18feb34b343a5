"""Every public module-level function and class of ``bcq``, and every public
method of a class, has a caller outside the tests: another part of
``src/bcq``, the benchmark in ``perfbench/`` (the tracer names its layers in
strings) or the README tour.  A helper that only tests call is dead
surface, except for the few test oracles listed here with their reason."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORACLES = {
    "tensor_power": "builds w^{(x)r} for the pinned Psi_hat_r images",
    "wedge": "the reference for the tabled qgrass._wedge",
    "dominance_leq": "the oracle of the dominant_downset closure test",
    "natural_map": "the inverse of flat_map, kept for the spherical functions",
}


def _names(node, strings=False) -> set:
    """Names read under node as a Name or an Attribute; with strings, also
    the dotted parts of string constants."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def unreferenced() -> set:
    """Public definitions in src/bcq, module-level functions and classes and
    the methods of classes, that nothing but their own body reads (a class's
    members do not count as readers of the class).  A method is matched by
    name only, so one whose name another definition shares passes."""
    units = []  # (top-level statement, a part of it, the names that part reads)
    for path in sorted((ROOT / "src" / "bcq").glob("*.py")):
        if path.name != "__init__.py":
            for stmt in ast.parse(path.read_text()).body:
                parts = [stmt]
                if isinstance(stmt, ast.ClassDef):
                    parts = stmt.bases + stmt.keywords + stmt.decorator_list + stmt.body
                units += [(stmt, part, _names(part)) for part in parts]
    outside = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _names(ast.parse(path.read_text()), strings=True)
    for block in re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        outside |= _names(ast.parse(block))
    definitions = {}  # public definition -> the parts that are its own body
    for stmt, part, _ in units:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            definitions.setdefault(stmt, set()).add(part)
        method = part is not stmt and isinstance(part, ast.FunctionDef)
        if method and not part.name.startswith("_"):
            definitions[part] = {part}
    flagged = set()
    for definition, own in definitions.items():
        read = outside.union(*(names for _, part, names in units if part not in own))
        if definition.name not in read:
            flagged.add(definition.name)
    return flagged


def test_every_public_definition_has_a_caller():
    flagged = unreferenced()
    assert flagged - set(ORACLES) == set(), "public names only tests call"
    assert set(ORACLES) - flagged == set(), "an oracle now has a caller: drop it from ORACLES"
