"""The public surface: what `torneed` exports, and what the demos and perfbench reach for."""

import ast
import types
from pathlib import Path

import torneed
import torneed.cli  # noqa: F401  (perfbench reaches for tn.cli)

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "torneed" / "__init__.py"


def test_all_is_exactly_what_init_binds():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    bound, listed = set(), None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if names == {"__all__"}:
                listed = [ast.literal_eval(elt) for elt in node.value.elts]
            elif names == {"_BENCH_NAMES"}:
                bound |= set(ast.literal_eval(node.value))  # bound on first use by __getattr__
            else:
                bound |= names
    assert listed is not None
    assert len(listed) == len(set(listed))
    assert set(listed) == bound
    assert set(torneed.__all__) == bound
    assert all(hasattr(torneed, name) for name in torneed.__all__)


def _torneed_chains(path):
    """Every dotted chain tn.a.b... or torneed.a.b... read in a file, outermost only."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inner = set()
    chains = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts, cur = [], node
        while isinstance(cur, ast.Attribute):
            inner.add(id(cur))
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name) and cur.id in ("tn", "torneed"):
            chains.append((node.lineno, list(reversed(parts))))
    return chains


def test_every_name_the_demos_and_perfbench_use_resolves():
    seen = {}
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            for lineno, parts in _torneed_chains(path):
                seen.setdefault(folder, set()).add(parts[0])
                obj = torneed
                for depth, attr in enumerate(parts):
                    if not isinstance(obj, types.ModuleType):
                        break  # past the modules: attributes of results, not of torneed
                    assert hasattr(obj, attr), (
                        f"{path.relative_to(ROOT)}:{lineno} reads torneed."
                        f"{'.'.join(parts[: depth + 1])}, which does not exist"
                    )
                    obj = getattr(obj, attr)
    # the scan must see both folders, or it checks nothing
    assert seen.get("demos") and seen.get("perfbench")
