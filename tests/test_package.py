import ast
import inspect
from pathlib import Path

import ambclink


def test_every_exported_name_resolves():
    assert len(set(ambclink.__all__)) == len(ambclink.__all__)
    for name in ambclink.__all__:
        assert getattr(ambclink, name) is not None, name


def test_exports_match_the_package_imports():
    tree = ast.parse(inspect.getsource(ambclink))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert set(ambclink.__all__) == imported


def test_only_the_oracles_and_verify_mention_scipy():
    # the sweeps load no scipy for any input, not only those a run reaches
    package = Path(ambclink.__file__).parent
    assert sorted(path.name for path in package.glob("*.py")
                  if "scipy" in path.read_text(encoding="utf-8")) == ["oracles.py", "verify.py"]
