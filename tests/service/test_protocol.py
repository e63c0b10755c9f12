"""Unit tests for the service request/response schema (no processes)."""

from __future__ import annotations

import json

import pytest

from repro.core.solver import mine
from repro.exceptions import GraphError, RequestValidationError
from repro.service.protocol import (
    DEFAULT_PARAMS,
    build_instance,
    result_to_payload,
    validate_graph_document,
    validate_request,
)

MINIMAL = {
    "graph": {"edges": [[0, 1], [1, 2]]},
    "labels": {"type": "discrete", "probabilities": [0.8, 0.2],
               "assignment": {"0": 1, "1": 1, "2": 0}},
}

BAD_PARAMS = [
    {"top_t": 0},
    {"top_t": True},
    {"method": "psychic"},
    {"edge_order": "sideways"},
    {"seed": "seven"},
    {"polish": "yes"},
    {"correction": "fdr"},
    {"correction": 1},
    {"alpha": 0.0},
    {"alpha": 1.0},
    {"alpha": -0.2},
    {"alpha": True},
    {"alpha": "0.05"},
    {"alpha": 2.0},
    {"search_limit": 0},
    {"search_limit": -5},
    {"n_theta": 0},
    {"min_size": 0},
    {"prune": "sometimes"},
    {"backend": "gpu"},
]
"""Parameter values outside mine()'s contract: rejected by the library
and the service alike (the instance is MINIMAL's discrete one)."""

_CORRECTION_FIELDS = {"correction", "alpha"}


def assert_library_and_service_reject(params):
    graph, labeling = build_instance(validate_request(MINIMAL))
    (field,) = params
    with pytest.raises(GraphError, match=f"^{field} "):
        mine(graph, labeling, **params)
    with pytest.raises(RequestValidationError, match=f"^params.{field} "):
        validate_request(dict(MINIMAL, params=params))


class TestValidateRequest:
    def test_minimal_request_gets_defaults(self):
        request = validate_request(json.loads(json.dumps(MINIMAL)))
        assert request["params"] == DEFAULT_PARAMS
        assert request["vertex_type"] == "int"
        assert request["async"] is False
        assert request["deadline_seconds"] is None

    def test_params_merge_with_defaults(self):
        doc = dict(MINIMAL, params={"top_t": 3, "prune": "bounds"})
        request = validate_request(doc)
        assert request["params"]["top_t"] == 3
        assert request["params"]["prune"] == "bounds"
        assert request["params"]["n_theta"] == DEFAULT_PARAMS["n_theta"]

    @pytest.mark.parametrize("doc", [
        None,
        [],
        {},
        {"graph": {"edges": []}},                          # labels missing
        {"labels": MINIMAL["labels"]},                     # graph missing
        dict(MINIMAL, extra=1),
        dict(MINIMAL, graph={"edges": [[0]]}),             # 1-element edge
        dict(MINIMAL, graph={"edges": "nope"}),
        dict(MINIMAL, vertex_type="float"),
        *(dict(MINIMAL, params=params) for params in BAD_PARAMS),
        dict(MINIMAL, params={"unknown": 1}),
        dict(MINIMAL, params={"parallel": 1}),             # removed field
        dict(MINIMAL, **{"async": "yes"}),
        dict(MINIMAL, deadline_seconds=0),
        dict(MINIMAL, deadline_seconds=-2.5),
        dict(MINIMAL, deadline_seconds=True),
    ])
    def test_invalid_documents_raise(self, doc):
        with pytest.raises(RequestValidationError):
            validate_request(doc)

    @pytest.mark.parametrize("params", [
        params for params in BAD_PARAMS if not set(params) & _CORRECTION_FIELDS
    ])
    def test_library_and_service_reject_the_same_params(self, params):
        assert_library_and_service_reject(params)


class TestGraphDigestRequests:
    DIGEST = "ab" * 32

    def test_digest_request_normalises_without_inline_instance(self):
        request = validate_request(
            {"graph_digest": self.DIGEST, "params": {"top_t": 2}}
        )
        assert request["graph_digest"] == self.DIGEST
        assert request["graph"] is None
        assert request["labels"] is None
        assert request["params"]["top_t"] == 2

    def test_inline_request_has_no_digest(self):
        assert validate_request(dict(MINIMAL))["graph_digest"] is None

    @pytest.mark.parametrize("doc", [
        {"graph_digest": "nope"},                       # not 64-hex
        {"graph_digest": "AB" * 32},                    # uppercase
        {"graph_digest": "ab" * 31},                    # too short
        {"graph_digest": 12345},
        dict(MINIMAL, graph_digest="ab" * 32),          # digest + inline
        {"graph_digest": "ab" * 32, "labels": MINIMAL["labels"]},
        {"graph_digest": "ab" * 32, "vertex_type": "str"},
    ])
    def test_invalid_digest_documents_raise(self, doc):
        with pytest.raises(RequestValidationError):
            validate_request(doc)

    def test_build_instance_rejects_digest_requests(self):
        request = validate_request({"graph_digest": self.DIGEST})
        with pytest.raises(RequestValidationError):
            build_instance(request)


class TestValidateGraphDocument:
    def test_normalises_the_instance_trio(self):
        doc = validate_graph_document(dict(MINIMAL))
        assert doc["vertex_type"] == "int"
        assert doc["graph"]["edges"] == MINIMAL["graph"]["edges"]

    @pytest.mark.parametrize("doc", [
        None,
        {},
        {"graph": MINIMAL["graph"]},                    # labels missing
        dict(MINIMAL, params={"top_t": 1}),             # mine-only key
        dict(MINIMAL, **{"async": True}),
        dict(MINIMAL, graph={"edges": [[0]]}),
    ])
    def test_invalid_documents_raise(self, doc):
        with pytest.raises(RequestValidationError):
            validate_graph_document(doc)


class TestBuildInstance:
    def test_materialises_graph_and_labels(self):
        graph, labeling = build_instance(validate_request(MINIMAL))
        assert graph.num_vertices == 3
        assert graph.num_edges == 2
        assert labeling.label_of(0) == 1

    def test_isolated_vertices_and_str_type(self):
        doc = {
            "graph": {"edges": [["a", "b"]], "vertices": ["c"]},
            "labels": {"type": "continuous",
                       "scores": {"a": [1.0], "b": [2.0], "c": [0.0]}},
            "vertex_type": "str",
        }
        graph, labeling = build_instance(validate_request(doc))
        assert graph.num_vertices == 3
        assert labeling.z_score_of("c") == (0.0,)

    def test_bad_label_model_is_a_validation_error(self):
        doc = dict(MINIMAL, labels={
            "type": "discrete", "probabilities": [0.8, 0.9],  # sums to 1.7
            "assignment": {"0": 1, "1": 1, "2": 0},
        })
        with pytest.raises(RequestValidationError):
            build_instance(validate_request(doc))

    def test_malformed_assignment_is_a_validation_error(self):
        doc = dict(MINIMAL, labels={
            "type": "discrete", "probabilities": [0.8, 0.2],
            "assignment": {"zero": 1, "1": 1, "2": 0},  # int() fails
        })
        with pytest.raises(RequestValidationError):
            build_instance(validate_request(doc))

    def test_self_loop_is_a_validation_error(self):
        doc = dict(MINIMAL, graph={"edges": [[0, 0]]})
        with pytest.raises(RequestValidationError):
            build_instance(validate_request(doc))


class TestCorrectionParams:
    """`params.correction` / `params.alpha` validation and payload parity."""

    def test_defaults(self):
        assert DEFAULT_PARAMS["correction"] == "none"
        assert DEFAULT_PARAMS["alpha"] == 0.05

    def test_fwer_params_accepted(self):
        doc = dict(MINIMAL, params={"correction": "fwer", "alpha": 0.01})
        request = validate_request(doc)
        assert request["params"]["correction"] == "fwer"
        assert request["params"]["alpha"] == 0.01

    def test_integer_alpha_coerced_to_float(self):
        # JSON clients may send 0.05 as a float already, but an int-typed
        # in-range value (none exist strictly inside (0,1), so check the
        # coercion on the accepted float path).
        doc = dict(MINIMAL, params={"alpha": 0.5})
        assert isinstance(validate_request(doc)["params"]["alpha"], float)

    @pytest.mark.parametrize("params", [
        params for params in BAD_PARAMS if set(params) & _CORRECTION_FIELDS
    ])
    def test_bad_correction_params_rejected(self, params):
        assert_library_and_service_reject(params)

    def test_fwer_with_inline_continuous_labels_rejected(self):
        doc = {
            "graph": {"edges": [[0, 1], [1, 2]]},
            "labels": {"type": "continuous",
                       "values": {"0": [0.1], "1": [2.0], "2": [0.3]}},
            "params": {"correction": "fwer"},
        }
        with pytest.raises(RequestValidationError, match="continuous"):
            validate_request(doc)

    def test_corrected_payload_parity_with_solver(self):
        """The service payload mirrors mine()'s corrected result exactly."""
        graph, labeling = build_instance(validate_request(MINIMAL))
        result = mine(graph, labeling, correction="fwer", alpha=0.05)
        payload = result_to_payload(result)
        assert set(payload) == {"subgraphs", "report", "correction"}
        corr = payload["correction"]
        assert corr["method"] == "fwer"
        assert corr["alpha"] == 0.05
        assert corr["delta_star"] == result.correction.delta_star
        assert corr["regions_filtered"] == result.correction.regions_filtered
        for sub, mined in zip(payload["subgraphs"], result.subgraphs):
            assert sub["p_value_raw"] == sub["p_value"] == mined.p_value
            assert sub["corrected_p_value"] == mined.corrected_p_value
        json.dumps(payload)  # must stay JSON-serialisable

    def test_uncorrected_payload_has_raw_mirror(self):
        """Raw runs carry p_value_raw too, so outputs diff cleanly."""
        graph, labeling = build_instance(validate_request(MINIMAL))
        payload = result_to_payload(mine(graph, labeling))
        assert "correction" not in payload
        for sub in payload["subgraphs"]:
            assert sub["p_value_raw"] == sub["p_value"]
            assert sub["corrected_p_value"] is None
