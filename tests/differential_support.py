"""The end-state comparer of the differential tests.

:func:`assert_same_state` walks two object graphs (two caches, two results,
or anything built of them) and asserts them equal field by field.  The
differential harness (``tests/core/test_differential.py``) holds every fast
path to its sequential reference with it; the dispatch contract tests use it
too.
"""

from __future__ import annotations

from collections import deque

import numpy as np

#: The only fields not compared as they are, with the reason.  Every other
#: field is compared whole: arrays by dtype, shape and value, dicts and
#: ``OrderedDict`` recency tables item by item in order.
LOOSE = {
    "path": "names the engine a result took, so the two sides differ by design",
    "extra": "a counter map by hit/miss class: kernels add the classes in a "
    "fixed order, the reference loop as they first occur, so it is compared "
    "as a mapping",
}


def assert_same_state(fast, slow, where: str = "state") -> None:
    """Walk both object graphs and assert them equal field by field: two
    caches, two results, or anything built of them."""
    _walk(fast, slow, where, set())


def _walk(fast, slow, where: str, seen: set) -> None:
    assert type(fast) is type(slow), f"{where}: {type(fast)} != {type(slow)}"
    if fast is slow:
        return
    if isinstance(fast, np.ndarray):
        assert (fast.dtype, fast.shape) == (slow.dtype, slow.shape), where
        np.testing.assert_array_equal(fast, slow, err_msg=where)
    elif isinstance(fast, np.random.Generator):
        assert fast.bit_generator.state == slow.bit_generator.state, where
    elif isinstance(fast, dict):
        assert list(fast) == list(slow), f"{where}: keys {list(fast)} != {list(slow)}"
        for key, value in fast.items():
            if key in LOOSE:  # ``path`` is skipped, ``extra`` taken as a mapping
                assert key == "path" or value == slow[key], f"{where}.{key}"
            else:
                _walk(value, slow[key], f"{where}[{key!r}]", seen)
    elif isinstance(fast, (list, tuple, deque)):
        assert len(fast) == len(slow), f"{where}: length {len(fast)} != {len(slow)}"
        for i, (a, b) in enumerate(zip(fast, slow)):
            _walk(a, b, f"{where}[{i}]", seen)
    elif hasattr(fast, "__dict__"):
        if (id(fast), id(slow)) not in seen:
            seen.add((id(fast), id(slow)))
            _walk(vars(fast), vars(slow), where, seen)
    else:
        assert fast == slow, f"{where}: {fast!r} != {slow!r}"
