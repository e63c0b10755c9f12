"""Unit tests for the super-vertex partition check."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.contraction import validate_partition


class TestValidatePartition:
    def test_valid_partition(self, path4):
        blocks = validate_partition(path4, [[0, 1], [2], [3]])
        assert blocks == [frozenset({0, 1}), frozenset({2}), frozenset({3})]

    def test_empty_block_rejected(self, path4):
        with pytest.raises(GraphError):
            validate_partition(path4, [[0, 1, 2, 3], []])

    def test_overlapping_blocks_rejected(self, path4):
        with pytest.raises(GraphError, match="overlap"):
            validate_partition(path4, [[0, 1], [1, 2, 3]])

    def test_non_exhaustive_rejected(self, path4):
        with pytest.raises(GraphError, match="exhaustive"):
            validate_partition(path4, [[0, 1]])

    def test_unknown_vertex_rejected(self, path4):
        with pytest.raises(VertexNotFoundError):
            validate_partition(path4, [[0, 1, 2, 3, 99]])
