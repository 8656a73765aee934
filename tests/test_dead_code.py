"""Dead-code guards: every top-level function and method of the package is
named by some other line of its code, or is on the allow-list with a reason;
every defaulted parameter is passed by some call, or is on its allow-list
with a reason; and every scenario setting is read by the code it configures.

A name counts when it appears as a code token; strings, comments and
docstrings do not name anything.  Dunder methods are called by Python itself
and are skipped.  A function that loses its last caller fails here until it
is deleted or allow-listed.  A defaulted parameter of a package function,
nested functions included, counts as passed when a call in the package or in
``perfbench/worker.py`` to a function of its name passes it by keyword, by
position, or through ``*args``/``**kwargs``.  A ``ScenarioConfig`` field
counts as read when some module other than ``config.py`` reads it as
``cfg.<field>``.
"""

import ast
import io
import tokenize
from dataclasses import fields
from pathlib import Path

import contactlab
from contactlab.config import ScenarioConfig

PACKAGE = Path(contactlab.__file__).resolve().parent
WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"

# callers outside the package, or registration by decorator
ALLOWED = {
    "__init__.active_backend": "perfbench/worker.py stamps it into its environment record",
    "openbook.ExactSymplecticDomain.dlambda_matrix":
        "the tests' reference for dlambda_const, and a perfbench span",
    "sphere.dehn_twist_batch": "perfbench/worker.py uses it as a reference",
    "surgery.handle_membership":
        "the one-point membership the tests call; perfbench/layers.py traces it",
    **{f"suites.suite_{name}": "registered by @suite and called through SUITES"
       for name in ("binding", "dehn_twist", "giroux", "monodromy", "moves", "weinstein")},
}


def _definitions(module, tree):
    """(qualified name, name, line) of the top-level functions and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub.lineno


def _code_tokens(text):
    """The name and operator tokens of a module, without strings and comments."""
    return [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type in (tokenize.NAME, tokenize.OP)]


def unnamed_definitions():
    defs, uses = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        defs.extend((path, *d) for d in _definitions(path.stem, ast.parse(text)))
        for tok in _code_tokens(text):
            if tok.type == tokenize.NAME:
                uses.setdefault(tok.string, set()).add((path, tok.start[0]))
    return sorted(qual for path, qual, name, line in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and not uses[name] - {(path, line)})


def test_every_function_is_named_or_allow_listed():
    assert unnamed_definitions() == sorted(ALLOWED)


# defaulted parameters that only callers outside the package and the worker set
UNPASSED_ALLOWED = {
    "moves.equivalent_up_to_moves.max_nodes": "the tests lower the search budget",
    "cli.main.argv": "the tests' entry point; the console script passes none",
}


def _defaulted_parameters(node, prefix):
    """(qualified name, function name, parameter, position or None) of every
    defaulted parameter of the functions under node; a position counts the
    arguments of a call, so a method's self or cls is not counted."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first):
                yield f"{prefix}{child.name}.{arg.arg}", child.name, arg.arg, index - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{prefix}{child.name}.{arg.arg}", child.name, arg.arg, None
            yield from _defaulted_parameters(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, f"{prefix}{child.name}.")
        else:
            yield from _defaulted_parameters(child, prefix)


def _passes(call, param, index):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def unpassed_defaults():
    """The defaulted parameters that no call in the package or the worker passes."""
    modules = sorted(PACKAGE.glob("*.py"))
    calls = {}
    for path in [*modules, WORKER]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return sorted(qual for path in modules
                  for qual, name, param, index in
                  _defaulted_parameters(ast.parse(path.read_text()), f"{path.stem}.")
                  if not any(_passes(c, param, index) for c in calls.get(name, [])))


def test_every_default_is_passed_or_allow_listed():
    assert unpassed_defaults() == sorted(UNPASSED_ALLOWED)


def unread_scenario_fields():
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "config.py":
            toks = _code_tokens(path.read_text())
            read.update(name.string for cfg, dot, name in zip(toks, toks[1:], toks[2:])
                        if (cfg.string, dot.string, name.type) == ("cfg", ".", tokenize.NAME))
    return [f.name for f in fields(ScenarioConfig) if f.name not in read]


def test_every_scenario_field_is_read():
    assert unread_scenario_fields() == []
