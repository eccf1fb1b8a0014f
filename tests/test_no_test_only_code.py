"""Every module-level name in ``src/alglen`` is named in ``src/alglen``
somewhere other than at its definition, and every class member is read.

A function, class or constant that only tests read belongs beside the tests
(``oracles``), not in the package.  A name counts as named wherever it
occurs as a word of a package file, in code or in text, outside the lines
of its own definition (so a recursive call does not count); the names that
``alglen.__all__`` exports are the package's API and need no other mention.
A method, property or class-level field of a package class counts as read
wherever ``.name`` occurs in a package file, for any object: a member that
shares its name with one of another type (``list.insert``) passes.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import alglen

SRC = Path(alglen.__file__).resolve().parent


def _defined(tree):
    """(name, node) of each module-level name a module defines, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def unnamed_definitions() -> list:
    """``module:name`` of each module-level name named only within its own definition.

    The lines of a definition do not count, so a function that only calls
    itself is not named beyond its definition.
    """
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    words = Counter(word for text in texts.values() for word in re.findall(r"\w+", text))
    definitions = []
    own = Counter()  # occurrences of each name within the lines of its definitions
    for module, text in texts.items():
        lines = text.splitlines()
        for name, node in _defined(ast.parse(text)):
            if name.startswith("__") and name.endswith("__"):
                continue
            definitions.append((module, name))
            own[name] += sum(re.findall(r"\w+", line).count(name)
                             for line in lines[node.lineno - 1:node.end_lineno])
    return [f"{module}:{name}" for module, name in definitions
            if words[name] <= own[name] and name not in alglen.__all__]


def test_every_module_level_name_is_named_beyond_its_definition():
    assert unnamed_definitions() == []


def _members(tree):
    """(class, member) for each method, property and class-level field, dunders aside."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield node.name, name


def unread_members() -> list:
    """``module:Class.member`` of each class member that no package file reads as ``.member``."""
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    read = {word for text in texts.values() for word in re.findall(r"\.(\w+)", text)}
    return [f"{module}:{cls}.{name}" for module, text in texts.items()
            for cls, name in _members(ast.parse(text)) if name not in read]


def test_every_class_member_is_read_in_the_package():
    assert unread_members() == []
