"""The explored states: a bijection between state indices and variable valuations.

``StateMap.valuations`` goes the other way from ``StateMap.keys``: it gives
the valuations of any packed keys, such as a whole range of them, as typed
columns, so that every valuation of a small space can be expanded at once.
"""

from itertools import compress, count, islice, repeat
from operator import is_

import numpy as np

from .semantics import EXACT_INT


# The bound caps the dense index at 128 MiB, which it holds only when every
# one of its 32 768 pages has a reached state in it; the dict would take as
# much for about 1.3 million states.
DENSE_KEYS = 1 << 24
# numpy takes a 0-d array operand faster than a Python int
_ONE = np.ones((), dtype=np.int64)


class StateMap:
    """Bijection between state indices and variable valuations, one column per variable.

    A valuation is interned by its packed key: each variable's offset from
    its lower bound (a boolean's 0 or 1), in mixed radix. Keys are int64
    while the product of the ranges fits, Python ints otherwise. A space of
    at most ``DENSE_KEYS`` keys has a dense index, one int64 per key holding
    the key's state index plus one (0: not interned), so that a layer's
    successors are interned by array operations. It is allocated zeroed, and
    a page of it takes memory only once a state's entry is written there: 8
    bytes a state where reached keys lie close together, up to a 4 KiB page
    a state where each lies alone. A larger space has a dict from key to
    state index, about 100 bytes a state (its entry, table slack and two
    int objects).
    """

    def __init__(self, decls, bounds):
        self.variable_names = [decl.name for decl in decls]
        # variable name -> position of its column
        self.slots = {name: i for i, name in enumerate(self.variable_names)}
        self.types = {decl.name: "bool" if decl.is_bool else "int" for decl in decls}
        self.bounds = {decl.name: bound for decl, bound in zip(decls, bounds) if bound is not None}
        self._low = [0 if bound is None else bound[0] for bound in bounds]
        self._sizes = [2 if bound is None else bound[1] - bound[0] + 1 for bound in bounds]
        self._strides = [1] * len(bounds)
        for i in reversed(range(len(bounds) - 1)):
            self._strides[i] = self._strides[i + 1] * self._sizes[i + 1]
        # the number of packed keys: every valuation in the ranges has one
        self.space = space = self._strides[0] * self._sizes[0] if bounds else 1
        self._key_dtype = np.int64 if space <= np.iinfo(np.int64).max else object
        self._index = np.zeros(space, dtype=np.int64) if space <= DENSE_KEYS else {}
        self._data = [np.zeros(16, dtype=bool if bound is None else np.int64 if -EXACT_INT <= bound[0]
                               and bound[1] <= EXACT_INT else object) for bound in bounds]
        self._n = 0

    @property
    def columns(self):
        return [data[: self._n] for data in self._data]

    def block(self, lo, hi):
        """The columns of states lo..hi-1."""
        return [data[lo:hi] for data in self._data]

    def keys(self, columns, n_rows):
        """The packed key of each row of ``columns``."""
        key = None
        for column, low, stride in zip(columns, self._low, self._strides):
            if low:  # before the cast: a bound past int64 leaves an offset that fits
                column = column - low
            if column.dtype != self._key_dtype:
                column = column.astype(self._key_dtype)
            if stride != 1:
                column = column * stride
            key = column if key is None else key + column
        return np.zeros(n_rows, dtype=self._key_dtype) if key is None else key

    def valuations(self, keys):
        """The columns of the valuations whose packed keys are ``keys`` (int64),
        typed as the state columns are."""
        columns = []
        for data, low, size, stride in zip(self._data, self._low, self._sizes, self._strides):
            digit = keys // stride % size
            columns.append(digit.astype(bool) if data.dtype == bool else
                           digit.astype(object) + low if data.dtype == object else digit + low)
        return columns

    def intern(self, columns, n_rows):
        """The state index of each row of ``columns`` (an int64 array), numbering
        the valuations not interned yet on from ``len(self)`` in the order they
        first appear; a new state's columns are copied from its first row."""
        keys, index, n = self.keys(columns, n_rows), self._index, self._n
        if isinstance(index, dict):
            keys = keys.tolist()
            found, first = list(map(index.get, keys)), {}
            if None in found:
                for row in compress(count(), map(is_, found, repeat(None))):
                    first.setdefault(keys[row], row)
                index.update(zip(first, count(n)))
                found = map(index.__getitem__, keys)
            found, first = np.fromiter(found, np.int64, len(keys)), list(first.values())
        else:
            found = index[keys]
            rows = np.logical_not(found).nonzero()[0]
            first = ()
            if len(rows):
                # a new key's first row is the least row written at it
                new = keys[rows]
                index[new] = n_rows
                np.minimum.at(index, new, rows)
                first = rows[index[new] == rows]
                index[keys[first]] = np.arange(n + 1, n + 1 + len(first))
                found = index[keys]
            found -= _ONE
        if len(first):
            k = len(first)
            if self._data and n + k > len(self._data[0]):
                size = max(2 * len(self._data[0]), n + k)
                self._data = [np.concatenate([data[:n], np.zeros(size - n, dtype=data.dtype)]) for data in self._data]
            for data, column in zip(self._data, columns):
                data[n: n + k] = column[first]
            self._n = n + k
        return found

    def forget(self, n):
        """Drop the states numbered from n on."""
        if isinstance(self._index, dict):
            for key in list(islice(reversed(self._index), self._n - n)):
                del self._index[key]
        else:
            self._index[self.keys([data[n: self._n] for data in self._data], self._n - n)] = 0
        self._n = n

    def valuation(self, index):
        """The valuation of a state, as a tuple of Python values."""
        return tuple(data.item(index) for data in self._data)

    def __len__(self):
        return self._n
