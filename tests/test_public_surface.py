"""Every public module-level function and class of ``bcq``, and every public
method of a class, has a caller outside the tests: another part of
``src/bcq``, the code of the benchmark in ``perfbench/`` or the README tour.
A helper that only tests call is dead surface, except for the few test
oracles listed here with their reason, and the names that only the tracer's
layer strings in ``perfbench/tracing.py`` keep alive, listed with theirs."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORACLES = {
    "dominance_leq": "the oracle of the dominant_downset closure test",
    "jackson_nodes": "the node rule of the l-fold Jackson-sum oracles of the q-Jacobi inner products",
    "natural_map": "the inverse of flat_map, kept for the spherical functions",
}

# traced by name in perfbench/tracing.py, so deleting one breaks its install;
# no workload, reference or library code calls them
TRACED_ONLY = {
    "continuous_gram": "the Gram-matrix pins of test_measure_pins read it",
    "dk_evaluate": "the direct D_K oracle of dk_apply and the exact eigen identity",
    "from_generator_coords": "turns generator coordinates back into a polynomial",
    "mat_inverse": "the linalg.matrix layer's inverse and the oracle of the crossed R-side inverses",
    "schur": "the Schur-polynomial oracle of the branching coefficients",
    "spherical_multiplicity": "names the trivial block multiplicity that gelfand_check counts inline",
    "w2_value": "the bit-for-bit oracle of the _w2_on_roots tables",
    "weyl_orbit": "the WeightVector form of weyl_orbit_tuples the orbit tests read",
}


def _names(node) -> set:
    """Names read under node as a Name or an Attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def traced_names() -> set:
    """The dotted parts of the string constants of perfbench/tracing.py,
    where the tracer names the callables of its layers."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    return {part for sub in ast.walk(tree) if isinstance(sub, ast.Constant)
            and isinstance(sub.value, str) for part in sub.value.split(".")}


def readme_python_blocks() -> list:
    """The source of every ``python`` code block in README.md."""
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


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
        outside |= _names(ast.parse(path.read_text()))
    for block in readme_python_blocks():
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
    assert flagged - set(ORACLES) - set(TRACED_ONLY) == set(), "public names only tests call"
    assert set(ORACLES) - flagged == set(), "an oracle now has a caller: drop it from ORACLES"
    assert set(TRACED_ONLY) - flagged == set(), "a traced name now has a caller: drop it"
    assert set(TRACED_ONLY) <= traced_names(), "a TRACED_ONLY name is not traced"


def test_readme_python_tour_runs():
    # a signature change the tour still uses fails here, not in a reader's shell
    blocks = readme_python_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
