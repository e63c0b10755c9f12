"""Unit tests for the content-addressed graph registry."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import RequestValidationError, ServiceError
from repro.service.digest import graph_digest, labeling_digest
from repro.service.registry import GraphRegistry

DOCUMENT = {
    "graph": {"edges": [[0, 1], [1, 2], [0, 2], [2, 3]]},
    "labels": {"type": "discrete", "probabilities": [0.8, 0.2],
               "assignment": {"0": 1, "1": 1, "2": 1, "3": 0}},
    "vertex_type": "int",
}


@pytest.fixture
def registry(tmp_path):
    return GraphRegistry(tmp_path)


class TestPut:
    def test_put_then_resolve_roundtrip(self, registry):
        summary = registry.put_document(DOCUMENT)
        assert summary["created"] is True
        assert summary["vertices"] == 4
        assert summary["edges"] == 4
        assert summary["labels_type"] == "discrete"
        graph, labeling = registry.resolve(summary["graph_digest"])
        assert graph.num_vertices == 4
        assert labeling.label_of(0) == 1
        # The digests seeded from the record match a from-scratch hash of
        # equal but unseeded objects.
        assert graph_digest(graph) == graph_digest(graph.copy())
        fresh = labeling.restricted_to(labeling.vertices())
        assert labeling_digest(labeling) == labeling_digest(fresh)

    def test_duplicate_upload_is_idempotent(self, registry):
        first = registry.put_document(DOCUMENT)
        again = registry.put_document(json.loads(json.dumps(DOCUMENT)))
        assert again["graph_digest"] == first["graph_digest"]
        assert again["created"] is False
        assert len(registry) == 1

    def test_digest_ignores_edge_order(self, registry):
        reordered = dict(DOCUMENT, graph={
            "edges": [[2, 3], [0, 2], [2, 1], [1, 0]]
        })
        a = registry.put_document(DOCUMENT)["graph_digest"]
        b = registry.put_document(reordered)["graph_digest"]
        assert a == b

    def test_invalid_documents_raise(self, registry):
        for doc in (
            None,
            {},
            {"graph": DOCUMENT["graph"]},                    # labels missing
            dict(DOCUMENT, extra=1),                         # unknown key
            dict(DOCUMENT, **{"async": True}),               # mine-only key
            dict(DOCUMENT, labels={"type": "nope"}),
        ):
            with pytest.raises(RequestValidationError):
                registry.put_document(doc)


class TestResolve:
    def test_unknown_digest_raises(self, registry):
        with pytest.raises(ServiceError, match="unknown graph digest"):
            registry.resolve("0" * 64)
        assert registry.info("0" * 64) is None

    def test_resolutions_are_memoised_by_identity(self, registry):
        digest = registry.put_document(DOCUMENT)["graph_digest"]
        first = registry.resolve(digest)
        second = registry.resolve(digest)
        # Same objects: back-to-back jobs over one graph share one instance,
        # which keeps its memoised digests hot.
        assert first[0] is second[0] and first[1] is second[1]

    def test_info_reports_metadata(self, registry):
        digest = registry.put_document(DOCUMENT)["graph_digest"]
        info = registry.info(digest)
        assert info == {
            "graph_digest": digest,
            "vertices": 4,
            "edges": 4,
            "labels_type": "discrete",
            "vertex_type": "int",
        }

    def test_torn_document_reads_as_absent(self, registry, tmp_path):
        digest = registry.put_document(DOCUMENT)["graph_digest"]
        (tmp_path / f"{digest}.json").write_text("{ torn")
        assert registry.info(digest) is None
        with pytest.raises(ServiceError):
            registry.resolve(digest)


class TestDigestValidation:
    def test_traversal_digest_cannot_escape_the_root(self, tmp_path):
        """Regression: ``GET /graphs/<digest>`` fed the raw URL suffix to
        the registry, which joined it into a filesystem path unchecked —
        a digest like '../foreign' could probe for (and read) JSON files
        outside the registry root."""
        registry = GraphRegistry(tmp_path / "reg")
        digest = registry.put_document(DOCUMENT)["graph_digest"]
        record = (tmp_path / "reg" / f"{digest}.json").read_text()
        (tmp_path / "foreign.json").write_text(record)
        for evil in (
            "../foreign", "../../foreign", digest.upper(),
            digest[:-1], digest + "0", "", None,
        ):
            assert registry.info(evil) is None
            with pytest.raises(ServiceError, match="unknown graph digest"):
                registry.resolve(evil)
        # The genuine digest keeps working.
        assert registry.info(digest) is not None

    def test_record_missing_fields_reads_as_absent(self, registry, tmp_path):
        """Regression: a matching-format record missing 'vertices' raised
        an uncaught KeyError out of info(); incomplete records now read as
        absent, like torn ones."""
        digest = registry.put_document(DOCUMENT)["graph_digest"]
        path = tmp_path / f"{digest}.json"
        record = json.loads(path.read_text())
        del record["vertices"]
        path.write_text(json.dumps(record))
        assert registry.info(digest) is None
        with pytest.raises(ServiceError, match="unknown graph digest"):
            registry.resolve(digest)
