"""Every name, class member and optional parameter in ``src/alglen`` is used
by package code.

A function, class or constant that only tests read belongs beside the tests
(``oracles``), not in the package.  Only code counts as a use: a name is
used where package code references it, as a bare name, as ``.name`` or in
an ``import``, outside the lines of its own definition (so a recursive call
does not count); text in docstrings and comments does not.  The names that
``alglen.__all__`` exports are the package's API and need no other use.  A
method, property or class-level field of a package class counts as read
wherever code reads ``.name``, for any object: a member that shares its name
with one of another type (``list.insert``) passes.

An optional parameter that no package call passes is an option only tests
set, so every one must be passed by some package call outside its own
function, by keyword, by position or through ``*``/``**``.  One that every
such call passes the same literal is a constant, not an option.  The one
exception is ``io_cli.main(argv)``, the in-process entry point that callers
outside the package (the benchmark harness, the tests) drive.

A function or method, dunders aside, does more than return a constant: a
constant is a literal or a named value where it is used.

Every parameter of a function, method or lambda is read by its body: one
that no caller's value reaches is not an input.  ``self``, ``cls`` and the
parameters of dunder methods, whose signatures Python fixes, are exempt.

A rule is stated once: no method repeats, AST for AST and docstring aside,
the method of the same name in its base class or in a sibling subclass (one
with a base class in common), since the base class can hold the one copy.
"""

import ast
from pathlib import Path

import alglen

SRC = Path(alglen.__file__).resolve().parent

# (module, function, parameter) that only callers outside the package pass
ENTRY_POINTS = {("io_cli", "main", "argv")}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _dunder(name) -> bool:
    return name.startswith("__") and name.endswith("__")


def _within(node, definition) -> bool:
    return definition.lineno <= node.lineno <= definition.end_lineno


def _references(tree):
    """(name, node) of each name that code in the tree reads, imports or reads as ``.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def _defined(tree):
    """(name, node) of each module-level name a module defines, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        for name in names:
            if not _dunder(name):
                yield name, node


def unnamed_definitions() -> list:
    """``module:name`` of each module-level name that code uses only within its own definition.

    The lines of a definition do not count, so a function that only calls
    itself is not used beyond its definition.
    """
    trees = _trees()
    uses = [(module, name, node) for module, tree in trees.items()
            for name, node in _references(tree)]
    return [f"{module}:{name}" for module, tree in trees.items()
            for name, definition in _defined(tree)
            if name not in alglen.__all__
            and not any(used == name and not (where == module and _within(node, definition))
                        for where, used, node in uses)]


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
                if not _dunder(name):
                    yield node.name, name


def unread_members() -> list:
    """``module:Class.member`` of each class member that no package code reads as ``.member``."""
    trees = _trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return [f"{module}:{cls}.{name}" for module, tree in trees.items()
            for cls, name in _members(tree) if name not in read]


def test_every_class_member_is_read_in_the_package():
    assert unread_members() == []


def _functions(tree):
    """(function, label, callee name, skip) of each function in the tree.

    The label is the function's name, ``Class.name`` for a method.  A call
    reaches the function by the callee name, the class's for ``__init__``,
    and passes nothing for its first skip parameters: a method's call
    passes no ``self``.
    """
    owner = {item: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for item in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls = owner.get(node)
            if cls is None:
                yield node, node.name, node.name, 0
            else:
                callee = cls.name if node.name == "__init__" else node.name
                yield node, f"{cls.name}.{node.name}", callee, 1


def _optional(args):
    """(index among the positional parameters, or None; name) of each parameter with a default."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield i, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call, index, name) -> bool:
    """Whether the call passes parameter name, at that positional index (None: keyword-only)."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _argument(call, index, name):
    """The expression the call passes as the parameter.

    None when the call passes it through ``*`` or ``**``, or not at all.
    """
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    if index is None or index >= len(call.args):
        return None
    if any(isinstance(a, ast.Starred) for a in call.args[:index + 1]):
        return None
    return call.args[index]


def _optional_parameters():
    """(``module:label(parameter)``, index, name, calls) of each optional parameter.

    The calls are the package calls that reach the function by its callee
    name, and the index is the parameter's among the positional arguments
    they pass.  Calls within the function's own lines do not count, so a
    parameter only a recursive call passes is not passed.
    """
    trees = _trees()
    calls = [(module, node) for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    for module, tree in trees.items():
        for function, label, callee, skip in _functions(tree):
            for index, name in _optional(function.args):
                if (module, label, name) in ENTRY_POINTS:
                    continue
                yield (f"{module}:{label}({name})", None if index is None else index - skip, name,
                       [call for where, call in calls if _callee(call) == callee
                        and not (where == module and _within(call, function))])


def unpassed_parameters() -> list:
    """``module:label(parameter)`` of each optional parameter that no package call passes."""
    return [label for label, index, name, calls in _optional_parameters()
            if not any(_passes(call, index, name) for call in calls)]


def test_every_optional_parameter_is_passed_by_the_package():
    assert unpassed_parameters() == []


def literal_parameters() -> list:
    """``module:label(parameter)`` of each optional parameter that is a constant.

    Every package call that reaches the function passes the parameter, and
    passes it the same literal.
    """
    found = []
    for label, index, name, calls in _optional_parameters():
        arguments = [_argument(call, index, name) for call in calls]
        if (arguments and all(isinstance(a, ast.Constant) for a in arguments)
                and len({ast.dump(a) for a in arguments}) == 1):
            found.append(label)
    return found


def test_no_optional_parameter_is_always_passed_one_literal():
    assert literal_parameters() == []


def _statements(function) -> list:
    """The function's statements, its docstring aside."""
    body = function.body
    if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        return body[1:]
    return body


def constant_functions() -> list:
    """``module:label`` of each function or method, dunders aside, that only returns a literal."""
    return [f"{module}:{label}" for module, tree in _trees().items()
            for function, label, _, _ in _functions(tree)
            if not _dunder(function.name)
            and [type(statement) for statement in _statements(function)] == [ast.Return]
            and isinstance(_statements(function)[0].value, ast.Constant)]


def test_no_function_only_returns_a_constant():
    assert constant_functions() == []


def _reads(node, name) -> bool:
    """Whether code in the node reads the name, by a plain load or an augmented assignment."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
            return True
        if (isinstance(child, ast.AugAssign) and isinstance(child.target, ast.Name)
                and child.target.id == name):
            return True
    return False


def unread_parameters() -> list:
    """``module:label(parameter)`` of each parameter that its function's body never reads.

    A lambda's label is ``lambda`` and its line.
    """
    found = []
    for module, tree in _trees().items():
        functions = [(function, label) for function, label, _, _ in _functions(tree)
                     if not _dunder(function.name)]
        functions += [(node, f"lambda@{node.lineno}") for node in ast.walk(tree)
                      if isinstance(node, ast.Lambda)]
        for function, label in functions:
            args = function.args
            body = function.body if isinstance(function.body, list) else [function.body]
            for arg in [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]:
                if (arg is not None and arg.arg not in ("self", "cls")
                        and not any(_reads(statement, arg.arg) for statement in body)):
                    found.append(f"{module}:{label}({arg.arg})")
    return found


def test_every_parameter_is_read_by_its_function():
    assert unread_parameters() == []


def _body(function) -> str:
    """The function's decorators, parameters and statements as AST text, its docstring aside."""
    return ast.dump(ast.Module(
        body=[*function.decorator_list, function.args, *_statements(function)],
        type_ignores=[]))


def repeated_methods() -> list:
    """``module:Class.method`` of each method that repeats one it could share, and that one.

    A method repeats the method of the same name in a base class of its
    class, or in a sibling subclass defined before it.
    """
    classes = [(module, node) for module, tree in _trees().items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    names = {node.name for _, node in classes}

    def bases(node):
        return {base.id for base in node.bases if isinstance(base, ast.Name) and base.id in names}

    def methods(node):
        return {item.name: _body(item) for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}

    found = []
    for i, (module, node) in enumerate(classes):
        for j, (where, other) in enumerate(classes):
            if not (other.name in bases(node) or j < i and bases(node) & bases(other)):
                continue
            shared = methods(other)
            found += [f"{module}:{node.name}.{name} repeats {where}:{other.name}.{name}"
                      for name, body in methods(node).items() if shared.get(name) == body]
    return found


def test_no_method_repeats_its_base_class_or_a_sibling():
    assert repeated_methods() == []
