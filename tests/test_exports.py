"""The package's export list names only what the package defines.

A stale entry in __all__ breaks only `from ratclass import *`, which
no other test runs.
"""

import ratclass


def test_all_names_resolve_once():
    names = ratclass.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [name for name in names if not hasattr(ratclass, name)]
    assert not missing, "exported but undefined: %s" % ", ".join(missing)
