"""Vendored reference values used by the verification harness.

Acceptance checks run offline, so the handful of externally known sequences
and sets they compare against live as JSON files next to this module.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources


@lru_cache(maxsize=None)
def _load(name: str) -> dict:
    path = resources.files("dumont.golden").joinpath(name)
    return json.loads(path.read_text())


def d1_wilf_pair_counts() -> list[int]:
    """Common counts of Dumont-1 avoiders of 2143 / of 3421, n = 0..10."""
    return list(_load("d1_wilf_pair.json")["counts"])


def vincular_distribution(n: int) -> dict[str, list[int]]:
    """Reference a/b rows of the vincular distribution tables (n in 5..7)."""
    tables = _load("vincular_distributions.json")["tables"]
    key = str(n)
    if key not in tables:
        raise KeyError(f"no reference distribution for n={n}")
    return {"a": list(tables[key]["a"]), "b": list(tables[key]["b"])}


def vincular_distribution_sizes() -> list[int]:
    return sorted(int(k) for k in _load("vincular_distributions.json")["tables"])


def a343795_prefix() -> list[int]:
    """Counts of Dumont-4 permutations avoiding 1423, n = 0..11."""
    return list(_load("a343795.json")["values"])


def d1_123_size6_set() -> list[str]:
    return list(_load("avoider_sets.json")["d1_123_size6"])


def d4_1234_avoiders_upto_size6() -> list[str]:
    return list(_load("avoider_sets.json")["d4_1234_all_avoiders_upto_size6"])


def d4_1342_size8_compositions() -> dict[str, list[int]]:
    return {k: list(v) for k, v in
            _load("avoider_sets.json")["d4_1342_size8_with_compositions"].items()}


def d4_1324_size16_example() -> dict[str, str]:
    return dict(_load("avoider_sets.json")["d4_1324_size16_example"])
