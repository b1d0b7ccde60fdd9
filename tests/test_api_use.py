"""Every public name of the library has a user besides its definition.

A public function, class, method or module constant of ``src/slanglex``
must appear somewhere other than where it is defined: as a code name in
``src/`` (a NAME token, so docstrings and comments do not count, and
neither do import statements or other definitions of the same name), or
anywhere in the acceptance oracles (``tests/test_acceptance.py``) or
``README.md``. The benchmark does not count: its tracer lists names it
would wrap if they existed, so a dead name stays in it. Dunders, Enum members
(class attributes are not collected at all) and the stage functions
registered with ``command(...)`` are exempt: Python and click call them.
"""
import ast
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "slanglex"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def registered(node) -> bool:
    """Decorated with ``command(...)``, which hands it to click."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "command" for d in node.decorator_list)


def definitions(tree: ast.Module):
    """The module-level functions, classes and constants, and the methods
    of the module's classes, as (name, node); a constant's node is the
    Name it is assigned to."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS) and not registered(node):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            yield from ((item.name, item) for item in node.body
                        if isinstance(item, FUNCTIONS))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t) for t in targets if isinstance(t, ast.Name))


def code_names(source: str, targets: set[tuple[int, int]]) -> Counter:
    """NAME tokens that use a name: not in an import statement, not the
    name a ``def`` or ``class`` defines, not at a constant's ``targets``;
    and the names in f-string fields, since before Python 3.12 tokenize
    gives an f-string as one STRING token."""
    uses: Counter = Counter()
    lines = iter(source.splitlines(keepends=True))
    first = previous = None  # first and last NAME of the logical line
    for token in tokenize.generate_tokens(lambda: next(lines, "")):
        if token.type == tokenize.NEWLINE:
            first = previous = None
        elif token.type == tokenize.NAME:
            first = first or token.string
            if (first not in ("import", "from")
                    and previous not in ("def", "class")
                    and token.start not in targets):
                uses[token.string] += 1
            previous = token.string
        elif (token.type == tokenize.STRING
              and "f" in re.match(r"\w*", token.string).group().lower()):
            uses.update(node.id if isinstance(node, ast.Name) else node.attr
                        for node in ast.walk(ast.parse(token.string))
                        if isinstance(node, (ast.Name, ast.Attribute)))
    return uses


def unused_names() -> list[str]:
    defined, uses = [], Counter()
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        public = [(name, node) for name, node in definitions(ast.parse(source))
                  if not name.startswith("_")]  # dunders start with "_" too
        defined += [f"{module}.{name}" for name, _ in public]
        uses += code_names(source, {(node.lineno, node.col_offset)
                                    for _, node in public
                                    if isinstance(node, ast.Name)})
    outside = "\n".join(path.read_text(encoding="utf-8") for path in [
        ROOT / "tests" / "test_acceptance.py", ROOT / "README.md"])
    return [qualified for qualified in defined
            if not uses[name := qualified.rsplit(".", 1)[-1]]
            and not re.search(rf"\b{re.escape(name)}\b", outside)]


def test_every_public_name_has_a_user():
    unused = unused_names()
    assert not unused, f"public names with no user: {', '.join(unused)}"
