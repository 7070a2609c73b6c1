"""Which derived data outlives a call: the cache inventory and table ownership."""

import functools
import gc
import importlib
import pkgutil
import weakref

import whittaker
from whittaker import symfunc
from whittaker.repdata import GenericRep, Segment, UnramifiedLanglandsRep
from whittaker.ringcore import Scalar
from whittaker.rseng import cauchy_check, rs_series, verify_essential
from whittaker.symfunc import schur

# every cache the library keeps across calls, by defining module
CACHES = {
    "whittaker.cli._parser",
    "whittaker.packing._layout",
    "whittaker.symfunc._orbit_matrices",
    "whittaker.symfunc._orbit_table",
    "whittaker.symfunc._order_ideal",
}


def _modules():
    return [importlib.import_module(info.name)
            for info in pkgutil.iter_modules(whittaker.__path__, "whittaker.")]


def _lru_wrappers():
    """Every functools LRU wrapper in a whittaker module or in one of its classes."""
    found = {}
    for module in _modules():
        namespaces = [vars(module)] + [vars(obj) for obj in vars(module).values()
                                       if isinstance(obj, type) and obj.__module__ == module.__name__]
        for namespace in namespaces:
            for obj in namespace.values():
                obj = getattr(obj, "__func__", obj)  # staticmethod, classmethod
                if isinstance(obj, functools._lru_cache_wrapper):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_cache_inventory():
    # a new cache has to be bounded and listed here, or this test fails
    found = _lru_wrappers()
    assert set(found) == CACHES
    for name, cache in found.items():
        assert cache.cache_parameters()["maxsize"] is not None, name
    # the tables of partitions and orbits and the value-free matrices share
    # one bound
    for cache in (symfunc._order_ideal, symfunc._orbit_table, symfunc._orbit_matrices):
        assert cache.cache_parameters()["maxsize"] == symfunc.PARTITION_CACHE_SIZE
    # and one size knob bounds them: a new knob has to be listed here too
    knobs = {f"{module.__name__}.{name}" for module in _modules()
             for name in vars(module) if name.endswith("_CACHE_SIZE")}
    assert knobs == {"whittaker.symfunc.PARTITION_CACHE_SIZE"}


class _Table(list):
    """A filled Schur table that a weak reference can follow."""


def _live_tables(filled) -> int:
    gc.collect()
    return sum(ref() is not None for ref in filled)


def test_no_schur_table_outlives_its_call(monkeypatch):
    # every table symfunc fills is followed by a weak reference
    fill, filled = symfunc._fill, []

    def followed(*args):
        table = _Table(fill(*args))
        filled.append(weakref.ref(table))
        return table

    monkeypatch.setattr(symfunc, "_fill", followed)
    ring, (points,) = symfunc._ring(((Scalar.variable("ownt"),),), 2)
    table = symfunc._h_values(points, 2, ring)
    assert _live_tables(filled) >= 1  # the count sees a live table
    del table
    a, b, c, d = (Scalar.variable(f"own{v}") for v in "abcd")
    rep = GenericRep((Segment.unramified(a, 1), Segment.unramified(b, 2)))
    pi_prime = UnramifiedLanglandsRep((c, d))
    assert rs_series(rep, pi_prime, 4).coeffs[0] == 1
    assert rs_series(UnramifiedLanglandsRep((a, b, 3)), pi_prime, 4).coeffs[0] == 1
    assert verify_essential(rep, UnramifiedLanglandsRep((c,)), 4).passed
    assert cauchy_check(2, 2, (a, Scalar.rational(1, 2)), (c, d), 4).passed
    assert schur((2, 1), (a, b, c)) == schur((2, 1), (a, b, c), "jacobi-trudi")
    assert len(filled) > 1 and _live_tables(filled) == 0
