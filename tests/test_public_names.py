"""Every public library name has a user outside the tests, or a stated reason.

The scan reads ``src/sideband/*.py`` and ``bench/*.py`` and collects every
bare name (``ast.Name``) and attribute name (``ast.Attribute``) used outside
the top-level statement that defines it.  A public top-level function or
class none of them mentions is reached by no command and no benchmark.  The
match is by bare name, not by module, so a name that is also an attribute
name elsewhere passes: ``engine.snl`` does, because the spectra's ``.snl``
field is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: public names with no user in the package or the benchmark, and why each stays
UNREFERENCED = {
    "dsl.serialize",  # the parser round trip of acceptance criterion 10
    "engine.flux_audit",  # carrier-flux bookkeeping, for the planned residuals
    # the closed-form Mach-Zehnder reference that the engine is checked against
    "mzi.sum_variance",
    "mzi.diff_variance",
    "mzi.degraded_variance",
}


#: public dataclass fields that nothing in the package or the benchmark reads,
#: and why each stays
UNREAD_FIELDS: set[str] = set()


def _names(node: ast.AST) -> set[str]:
    """Every bare name and attribute name used in ``node``."""
    return ({sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)})


def _parse() -> tuple[list[Path], dict[Path, ast.Module]]:
    """The library's modules, and the syntax trees of them and the benchmark's."""
    library = sorted((ROOT / "src" / "sideband").glob("*.py"))
    return library, {path: ast.parse(path.read_text(), str(path))
                     for path in library + sorted((ROOT / "bench").glob("*.py"))}


def unreferenced_public_names() -> set[str]:
    library, trees = _parse()
    used_in = [(stmt, _names(stmt)) for tree in trees.values() for stmt in tree.body]
    return {f"{path.stem}.{stmt.name}"
            for path in library for stmt in trees[path].body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
            and not any(stmt.name in used for other, used in used_in if other is not stmt)}


def test_every_public_name_has_a_user_or_a_reason():
    assert unreferenced_public_names() == UNREFERENCED


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.attr if isinstance(target, ast.Attribute) else target.id) == "dataclass":
            return True
    return False


def unread_dataclass_fields() -> set[str]:
    library, trees = _parse()
    read = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    return {f"{path.stem}.{stmt.name}.{field.target.id}"
            for path in library for stmt in trees[path].body
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_")
            and _is_dataclass(stmt)
            for field in stmt.body
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
            and "ClassVar" not in ast.unparse(field.annotation)
            and field.target.id not in read}


def test_every_dataclass_field_is_read_or_has_a_reason():
    """Every field of a public dataclass in ``src/sideband`` is read as an
    attribute somewhere in ``src/sideband`` or ``bench``.  A field nothing
    reads is carried by every instance and shown to no user.  The match is
    by bare attribute name, not by class, so a field whose name is read
    elsewhere passes: ``PulsedDesign.n`` does, because the CLI reads
    ``args.n``."""
    assert unread_dataclass_fields() == UNREAD_FIELDS
