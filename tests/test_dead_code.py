"""Dead-code guards: every top-level function and method of the package is
named by some other line of its code, or is on the allow-list with a reason;
and every scenario setting is read by the code it configures.

A name counts when it appears as a code token; strings, comments and
docstrings do not name anything.  Dunder methods are called by Python itself
and are skipped.  A function that loses its last caller fails here until it
is deleted or allow-listed.  A ``ScenarioConfig`` field counts as read when
some module other than ``config.py`` reads it as ``cfg.<field>``.
"""

import ast
import io
import tokenize
from dataclasses import fields
from pathlib import Path

import contactlab
from contactlab.config import ScenarioConfig

PACKAGE = Path(contactlab.__file__).resolve().parent

# callers outside the package, or registration by decorator
ALLOWED = {
    "__init__.active_backend": "perfbench/worker.py stamps it into its environment record",
    "openbook.ExactSymplecticDomain.dlambda_matrix":
        "the tests' finite-difference reference for dlambda_const, and a perfbench span",
    "sphere.dehn_twist_batch": "perfbench/worker.py uses it as a reference",
    "surgery.handle_membership":
        "the one-point membership the tests call; perfbench/layers.py traces it",
    "surgery.transfer_to_s1_finite_a":
        "the one-point finite-speed transfer the tests call, with a = inf as the limit",
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
