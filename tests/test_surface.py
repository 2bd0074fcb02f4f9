"""The library's public surface is what the program reads."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zetacorr"

# public names kept although nothing in the program reads them
ALLOWED = {
    "zeta.zeta_euler_maclaurin":
        "the reference evaluator that the tests compare against",
}


def _public_definitions(tree, module):
    """(qualified name, bare name) of public module-level functions and
    classes and of the public methods of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _names_read(tree):
    """Every name the code mentions: variables, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_public_name_is_read_by_the_program():
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers += sorted((ROOT / "perfbench").glob("*.py"))
    read = set()
    for path in readers:
        read.update(_names_read(ast.parse(path.read_text(encoding="utf-8"))))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, name in _public_definitions(tree, path.stem):
            if name not in read and qualified not in ALLOWED:
                unread.append(qualified)
    assert unread == [], f"public names nothing in the program reads: {unread}"


def _object_dtypes(tree):
    """Lines that ask numpy for a Python-object array: a `dtype=` or an
    `.astype(...)` that names `object`, "O" or "object"."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        kinds = [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            kinds += node.args[:1]
        for kind in kinds:
            if any(isinstance(n, ast.Name) and n.id == "object"
                   or isinstance(n, ast.Constant) and n.value in ("O", "object")
                   for n in ast.walk(kind)):
                yield node.lineno


def test_no_module_builds_an_object_array():
    # coefficient-table frequencies are int64, and a table that would
    # need more is refused, so no array of Python ints is ever formed
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _object_dtypes(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [], f"object arrays built at {found}"
