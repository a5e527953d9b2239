"""Every keyword option in src/ is set by some call.

An option that no call in src/, tests/, demos/ or perfbench/ sets is a
configuration that nothing runs; its default belongs in place as a
constant.  Calls are matched by the callee's name alone (a class by its
__init__ or __new__), and a call with *args or **kwargs counts as
setting every option it could reach, so the guard errs towards counting
an option as set.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "tests", "demos", "perfbench")

# options that stay although no call sets them: part of the function's
# definition and the entry-point convention
KEPT = {("modulated_gaussian", "phase"), ("main", "argv")}


def _options():
    """(callee name, option, positional index or None) for every
    parameter with a default of a function defined under src/."""
    out = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(f): c.name for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for f in c.body}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            cls = owner.get(id(f))
            name = cls if f.name in ("__init__", "__new__") else f.name
            pos = f.args.posonlyargs + f.args.args
            if cls and not any(getattr(d, "id", None) == "staticmethod"
                               for d in f.decorator_list):
                pos = pos[1:]
            first = len(pos) - len(f.args.defaults)
            out += [(name, a.arg, i) for i, a in enumerate(pos) if i >= first]
            out += [(name, a.arg, None) for a, d in
                    zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
    return out


def _calls():
    """callee name -> [(positional count, has *args, keyword names)], with
    None among the names for a **mapping."""
    calls = {}
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for c in ast.walk(ast.parse(path.read_text())):
                if isinstance(c, ast.Call):
                    name = getattr(c.func, "id", None) or getattr(
                        c.func, "attr", None)
                    calls.setdefault(name, []).append((
                        len(c.args),
                        any(isinstance(a, ast.Starred) for a in c.args),
                        {k.arg for k in c.keywords}))
    return calls


def test_every_keyword_option_is_set_by_a_call():
    calls = _calls()

    def is_set(name, option, index):
        return any(option in kw or None in kw
                   or (index is not None and (star or n_pos > index))
                   for n_pos, star, kw in calls.get(name, ()))

    options = _options()
    assert len(options) > 50  # the parse found the package's options
    unset = {(name, option) for name, option, index in options
             if not is_set(name, option, index)} - KEPT
    assert not unset, "options that no call sets: %s" % sorted(unset)
