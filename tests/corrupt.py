"""Corrupted copies of a root system and its sign table.

Every table of a RootSystem and a SignTable is read-only from
construction, so the tests that show which checks a broken table fails
never edit one in place.  `corrupted` gives them shallow copies in which
only the tables they name are fresh, writeable arrays.  The originals,
often the session-cached systems of conftest.py, stay as they were.
"""

import copy


def corrupted(rs, signs, *names):
    """Shallow copies (rs, signs) in which the tables `names` are writeable
    copies, for the caller to corrupt; every other table is shared.

    A name is a RootSystem table ("gram", "sums", ...), "table" for the
    sign table, or a field of the square index ("square_index.sigma").  The
    copied sign table belongs to the copied system.
    """
    rs, signs = copy.copy(rs), copy.copy(signs)
    signs.rs = rs
    for name in names:
        if name == "table":
            signs.table = signs.table.copy()
        elif "." in name:
            bundle, field = name.split(".")
            tables = getattr(rs, bundle)
            setattr(rs, bundle, tables._replace(**{field: getattr(tables, field).copy()}))
        else:
            setattr(rs, name, getattr(rs, name).copy())
    return rs, signs
