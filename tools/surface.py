"""Size of the package's surface: lines per module and settable values.

    python3 tools/surface.py

Prints the line count of each module in src/podvs and their total, then
the number of settable values.  A settable value is a defaulted
parameter of a public function, of a public method or of ``__init__``,
or a defaulted field of a public dataclass; enums are skipped.  A name
is public when it does not start with an underscore, and a class counts
only if its name is public.  ``self`` and ``cls`` have no default, so
they never count.  The count reads the source alone, so a checkout needs
no import to be measured.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "podvs"


def _defaults(func: ast.FunctionDef) -> int:
    args = func.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _base_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if _base_name(target) == "dataclass":
            return True
    return False


def settable_values(source: str) -> int:
    """The settable values of one module's source text."""
    count = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and _is_public(node.name):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            if any(_base_name(base).endswith("Enum") for base in node.bases):
                continue
            dataclass = _is_dataclass(node)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    if _is_public(item.name) or item.name == "__init__":
                        count += _defaults(item)
                elif dataclass and isinstance(item, ast.AnnAssign) and item.value is not None:
                    count += 1
    return count


def main() -> None:
    lines = total_values = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        n = len(source.splitlines())
        lines += n
        total_values += settable_values(source)
        print(f"{n:6d} {path.name}")
    print(f"{lines:6d} total lines")
    print(f"settable values: {total_values}")


if __name__ == "__main__":
    main()
