"""Tests for the Optional container."""

import pickle

import pytest

from repro.common import IllegalStateError
from repro.streams import Optional


class TestOptional:
    def test_of_and_get(self):
        assert Optional.of(5).get() == 5

    def test_of_none_is_present(self):
        assert Optional.of(None).is_present()
        assert Optional.of(None).get() is None

    def test_empty(self):
        o = Optional.empty()
        assert o.is_empty()
        assert not o.is_present()
        with pytest.raises(IllegalStateError):
            o.get()

    def test_pickle_round_trip_by_value(self):
        empty = pickle.loads(pickle.dumps(Optional.empty()))
        assert empty.is_empty()
        assert empty == Optional.empty()
        none = pickle.loads(pickle.dumps(Optional.of(None)))
        assert none.is_present() and none.get() is None
        assert pickle.loads(pickle.dumps(Optional.of([1, 2]))).get() == [1, 2]

    def test_or_else(self):
        assert Optional.of(1).or_else(9) == 1
        assert Optional.empty().or_else(9) == 9

    def test_or_else_get(self):
        assert Optional.empty().or_else_get(lambda: 3) == 3
        assert Optional.of(1).or_else_get(lambda: 3) == 1

    def test_map(self):
        assert Optional.of(2).map(lambda x: x * 10) == Optional.of(20)
        assert Optional.empty().map(lambda x: x * 10) == Optional.empty()

    def test_filter(self):
        assert Optional.of(4).filter(lambda x: x > 2) == Optional.of(4)
        assert Optional.of(1).filter(lambda x: x > 2) == Optional.empty()
        assert Optional.empty().filter(lambda x: True) == Optional.empty()

    def test_if_present(self):
        out = []
        Optional.of(7).if_present(out.append)
        Optional.empty().if_present(out.append)
        assert out == [7]

    def test_bool(self):
        assert Optional.of(0)
        assert not Optional.empty()

    def test_equality_and_hash(self):
        assert Optional.of(1) == Optional.of(1)
        assert Optional.of(1) != Optional.of(2)
        assert Optional.empty() == Optional.empty()
        assert hash(Optional.of(1)) == hash(Optional.of(1))
        assert Optional.of(1).__eq__(1) is NotImplemented

    def test_repr(self):
        assert repr(Optional.of(1)) == "Optional.of(1)"
        assert repr(Optional.empty()) == "Optional.empty()"
