import importlib
import pkgutil
import sys
from pathlib import Path

import wsteenrod

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import child  # noqa: E402


def test_all_exports_resolve_sorted_unique():
    names = wsteenrod.__all__
    missing = [name for name in names if not hasattr(wsteenrod, name)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_every_lru_cache_is_known_to_the_cold_run_guard():
    # the benchmark's samples are cold only if every module-level cache is
    # checked empty before the run starts; a cache it does not know of
    # could be warmed unnoticed
    caches = set()
    for info in pkgutil.iter_modules(wsteenrod.__path__):
        module = importlib.import_module(f"wsteenrod.{info.name}")
        for name, value in vars(module).items():
            owners = [(name, value)]
            if isinstance(value, type):
                owners += [(f"{name}.{k}", v) for k, v in vars(value).items()]
            for qualname, fn in owners:
                if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                    caches.add((module.__name__, qualname))
    assert caches
    assert caches <= {("wsteenrod.milnor", name) for name in child.COLD_CACHES}
