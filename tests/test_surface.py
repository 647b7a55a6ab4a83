"""The public surface of ``src/ipsd``: every public name is reached from the package itself.

A public function, class or method that only the tests import is code the
package does not need; a test that wants it as a reference keeps its own
private copy.  A name is reached when ``src/ipsd`` reads it outside its own
definition and outside every definition that is not reached itself.  A
method is reached only through an attribute read (``obj.name``), so a local
variable of the same name does not count.  ``__all__`` strings and
docstrings are strings, not reads.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ipsd"

# Public names nothing in src/ipsd reads, kept for a reader outside it.
KEEP = {
    "replay_forward",  # bound by benchmark/tracing.py; the stacked replay criteria 1 and 5 run
    "replay_dual",  # bound by benchmark/tracing.py; the stacked replay criteria 1 and 5 run
    "density_path",  # SpinTrajectory method bound by benchmark/tracing.py
    "limit_formula",  # the dual's t -> oo limit, which no command checks yet
    "bernoulli_parity_identity",  # the Bernoulli-start identity, which no command checks yet
    "parity_deviation",  # the product formula criterion 4 checks
    "parity_deviation_enum",  # the brute-force side of criterion 4
    "from_binary",  # the MCEstimate constructor criterion 5 reads
    "config_at",  # the SpinTrajectory reader the spin-law tests check the engine through
}


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _definitions(modules):
    """(where, name, node, is_method) of each public function, class and method."""
    out = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append((f"{module}:{node.lineno}", node.name, node, False))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{module}:{item.lineno}", item.name, item, True) for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return out


def _reads(node):
    """(name, is_attribute, read node) of every name and attribute read under node."""
    return [(sub.id, False, sub) if isinstance(sub, ast.Name) else (sub.attr, True, sub)
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))]


def _unreached(keep):
    """(where, name) of each definition outside ``keep`` that no reached code reads.

    Drops the definitions nothing reads, then those only they read, until none is left.
    """
    modules = _modules()
    reads = [read for tree in modules.values() for read in _reads(tree)]
    defs = [d for d in _definitions(modules) if d[1] not in keep]
    inside = {id(node): {id(sub) for _, _, sub in _reads(node)} for _, _, node, _ in defs}
    dead = {}
    while True:
        dropped = set().union(*(inside[key] for key in dead))
        found = {}
        for where, name, node, is_method in defs:
            skip = dropped | inside[id(node)]
            if id(node) not in dead and not any(
                    read == name and (is_attr or not is_method) and id(sub) not in skip
                    for read, is_attr, sub in reads):
                found[id(node)] = (where, name)
        if not found:
            return sorted(dead.values())
        dead.update(found)


def test_every_public_name_is_reached_from_the_package():
    assert _unreached(KEEP) == []


def test_the_keep_list_holds_exactly_the_names_the_package_does_not_read():
    # a kept name that gains a caller in src/ipsd, or is deleted, leaves KEEP
    assert {name for _, name in _unreached(set())} == KEEP
