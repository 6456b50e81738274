import ast
import inspect
from pathlib import Path

import ambclink
from ambclink import analysis


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


def test_the_shared_closed_forms_use_operators_and_sqrt_alone():
    # the closed forms that take floats and arrays alike give both the same
    # bits only through correctly rounded operators, so none may take a power
    # or numpy's log or exp. noise_power is not among them: its powers act on
    # the scalar parameters alone, the same floats on either path.
    shared = {"HypothesisMoments", "_checked_moments", "lna_moments", "nolna_moments",
              "level_moments", "hypothesis_moments", "_each", "q_function",
              "ber_closed_form", "near_optimal_threshold", "_threshold"}
    found = set()
    for node in ast.parse(inspect.getsource(analysis)).body:
        if getattr(node, "name", None) not in shared:
            continue
        found.add(node.name)
        for sub in ast.walk(node):
            assert not isinstance(getattr(sub, "op", None), ast.Pow), (node.name, sub.lineno)
            assert not (isinstance(sub, ast.Name) and sub.id == "pow"), node.name
            assert not (isinstance(sub, ast.Attribute)
                        and (sub.attr == "pow" or sub.attr in ("power", "log", "exp")
                             and isinstance(sub.value, ast.Name) and sub.value.id == "np")), \
                (node.name, sub.lineno)
    assert found == shared
