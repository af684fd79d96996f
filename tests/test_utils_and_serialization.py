"""Tests for formatting helpers, the timer and the wire serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ScheduleMatrices, checkpoint_all_schedule, linear_graph
from repro.service import SolveService, graph_content_hash
from repro.utils import (
    Timer,
    format_bytes,
    format_table,
    geomean,
    graph_from_json,
    graph_from_wire,
    graph_to_json,
    graph_to_wire,
    result_from_wire,
    result_to_wire,
    schedule_from_json,
    schedule_to_json,
)
from repro.utils.serialization import SCHEDULE_FORMAT


def _edit_schedule(edit):
    """A result-payload mutation that applies ``edit`` to the parsed schedule."""
    def mutate(payload):
        schedule = json.loads(payload["schedule"])
        edit(schedule)
        payload["schedule"] = json.dumps(schedule)
    return mutate


class TestFormatting:
    def test_format_bytes_units(self):
        assert format_bytes(512) == "512.00 B"
        assert format_bytes(2048) == "2.00 KiB"
        assert format_bytes(3 * 2**30) == "3.00 GiB"

    def test_geomean_basic(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_geomean_empty_is_nan(self):
        import math
        assert math.isnan(geomean([]))

    def test_format_table_alignment(self):
        text = format_table(["a", "long header"], [[1, 2], ["xyz", "w"]])
        lines = text.split("\n")
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # fixed width rows


class TestTimer:
    def test_timer_elapsed_nonnegative(self):
        with Timer() as t:
            sum(range(100))
        assert t.elapsed >= 0.0


class TestSerialization:
    def test_round_trip(self):
        g = linear_graph(5)
        m = checkpoint_all_schedule(g)
        payload = schedule_to_json(g, m, strategy="checkpoint_all")
        restored = schedule_from_json(payload, g)
        assert (restored.R == m.R).all()
        assert (restored.S == m.S).all()

    def test_graph_mismatch_detected(self):
        g5, g7 = linear_graph(5), linear_graph(7)
        payload = schedule_to_json(g5, checkpoint_all_schedule(g5))
        with pytest.raises(ValueError):
            schedule_from_json(payload, g7)

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_json('{"format": "something-else"}')

    def test_wire_holds_ascending_indices_of_nonzeros(self):
        g = linear_graph(5)
        m = checkpoint_all_schedule(g)
        payload = json.loads(schedule_to_json(g, m))
        assert payload["format"] == SCHEDULE_FORMAT == "repro.checkmate.schedule/v2"
        assert payload["graph_size"] == 5
        assert payload["R"] == [np.flatnonzero(row).tolist() for row in m.R]
        assert payload["S"] == [np.flatnonzero(row).tolist() for row in m.S]
        assert payload["S"][0] == []

    @given(stages=st.integers(1, 12), n=st.integers(1, 12),
           fill=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=100)
    def test_round_trip_property(self, stages, n, fill, seed):
        # Arbitrary 0/1 matrices (empty rows included), not only schedules:
        # the codec must not depend on schedule structure.
        rng = np.random.default_rng(seed)
        R = (rng.random((stages, n)) < fill).astype(np.uint8)
        S = (rng.random((stages, n)) < fill).astype(np.uint8)
        R[rng.integers(stages)] = 0
        g = linear_graph(n)
        restored = schedule_from_json(
            schedule_to_json(g, ScheduleMatrices(R, S)), g)
        assert restored.R.dtype == restored.S.dtype == np.uint8
        assert np.array_equal(restored.R, R)
        assert np.array_equal(restored.S, S)

    @staticmethod
    def v2_payload(**changes):
        g = linear_graph(4)
        payload = json.loads(schedule_to_json(g, checkpoint_all_schedule(g)))
        payload.update(changes)
        return payload

    @pytest.mark.parametrize("changes", [
        {"R": [[0], [0, 1], [1, 4], [2, 3]]},       # index out of range
        {"R": [[0], [-1, 1], [1, 2], [2, 3]]},      # negative index
        {"R": [[0], [0, 1.0], [1, 2], [2, 3]]},     # float index
        {"R": [[0], [0, True], [1, 2], [2, 3]]},    # bool index
        {"S": [[], ["0"], [1], [2]]},               # string index
        {"R": [[0], 1, [1, 2], [2, 3]]},            # non-list row
        {"R": {"0": [0]}},                          # non-list matrix
        {"R": [[0], [1, 0], [1, 2], [2, 3]]},       # descending row
        {"R": [[0], [0, 0, 1], [1, 2], [2, 3]]},    # duplicate index
        {"S": [[], [0], [1]]},                      # stage counts differ
        {"graph_size": 5},                          # graph_size mismatch
        {"graph_size": "4"},
        {"graph_size": None},
        {"R": None},                                # missing matrix
        {"format": "repro.checkmate.schedule/v1"},
    ], ids=lambda changes: ",".join(f"{k}={v!r}" for k, v in changes.items()))
    def test_malformed_v2_payload_raises_value_error(self, changes):
        with pytest.raises(ValueError):
            schedule_from_json(json.dumps(self.v2_payload(**changes)),
                               linear_graph(4))

    @pytest.mark.parametrize("data", ["[1, 2]", "{not json", "null"])
    def test_non_object_payload_raises_value_error(self, data):
        with pytest.raises(ValueError):
            schedule_from_json(data)

    def test_dense_v1_payload_raises_value_error(self):
        g = linear_graph(4)
        m = checkpoint_all_schedule(g)
        v1 = {"format": "repro.checkmate.schedule/v1", "graph_name": g.name,
              "graph_size": g.size, "graph_num_edges": g.num_edges,
              "strategy": "", "R": m.R.astype(int).tolist(),
              "S": m.S.astype(int).tolist()}
        with pytest.raises(ValueError, match="not a serialized repro schedule"):
            schedule_from_json(json.dumps(v1), g)


class TestGraphWireFormat:
    def test_round_trip_preserves_content_hash(self, tiny_unet_train):
        # The server's dedup/caching contract: an uploaded graph must hit the
        # same plan-cache entries as the original object.
        restored = graph_from_json(graph_to_json(tiny_unet_train))
        assert graph_content_hash(restored) == graph_content_hash(tiny_unet_train)

    def test_round_trip_preserves_structure_and_meta(self, tiny_unet_train):
        g = tiny_unet_train
        restored = graph_from_wire(graph_to_wire(g))
        assert restored.size == g.size
        assert restored.deps == g.deps
        assert restored.name == g.name
        assert [v.name for v in restored.nodes] == [v.name for v in g.nodes]
        # grad_index survives JSON with *integer* keys (the segmenting
        # baselines index it with ints; plain JSON would stringify them).
        assert restored.meta["grad_index"] == g.meta["grad_index"]
        assert all(isinstance(k, int) for k in restored.meta["grad_index"])

    def test_round_tripped_graph_is_solvable(self, tiny_unet_train):
        restored = graph_from_json(graph_to_json(tiny_unet_train))
        result = SolveService(cache=None).solve(restored, "ap_sqrt_n")
        assert result.feasible

    def test_wire_payload_is_plain_json(self, diamond_train):
        payload = graph_to_wire(diamond_train)
        assert json.loads(json.dumps(payload)) == payload

    def test_meta_numpy_values_round_trip(self, diamond_graph):
        g = diamond_graph
        g.meta["weights"] = np.arange(6, dtype=np.int32).reshape(2, 3)
        g.meta["scalar"] = np.float64(1.5)
        try:
            restored = graph_from_wire(graph_to_wire(g))
        finally:
            del g.meta["weights"], g.meta["scalar"]
        assert isinstance(restored.meta["weights"], np.ndarray)
        assert restored.meta["weights"].dtype == np.int32
        assert (restored.meta["weights"] == np.arange(6).reshape(2, 3)).all()
        assert restored.meta["scalar"] == 1.5

    def test_meta_numpy_bool_round_trip(self, diamond_graph):
        g = diamond_graph
        g.meta["flag"] = np.bool_(True)
        g.meta["flags"] = [np.bool_(False), np.bool_(True)]
        try:
            restored = graph_from_wire(json.loads(json.dumps(graph_to_wire(g))))
            digest = graph_content_hash(g)
        finally:
            del g.meta["flag"], g.meta["flags"]
        assert restored.meta["flag"] is True
        assert restored.meta["flags"] == [False, True]
        assert graph_content_hash(restored) == digest

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            graph_from_wire({"format": "something-else"})

    @pytest.mark.parametrize("value", [
        ["__kvdict__", []],
        ["__ndarray__", "<i8", [2], [1, 2]],
        ["__list__"],
        ["__list__", "__kvdict__", 1],
    ])
    def test_user_lists_that_look_tagged_round_trip(self, diamond_graph, value):
        g = diamond_graph
        g.meta["x"] = value
        try:
            payload = json.loads(json.dumps(graph_to_wire(g)))
            digest = graph_content_hash(g)
        finally:
            del g.meta["x"]
        restored = graph_from_wire(payload)
        assert type(restored.meta["x"]) is list
        assert restored.meta["x"] == value
        assert graph_content_hash(restored) == digest

    def test_malformed_tagged_meta_rejected(self, diamond_graph):
        payload = graph_to_wire(diamond_graph)
        payload["meta"] = {"x": ["__kvdict__", [], "extra"]}
        with pytest.raises(ValueError, match="malformed"):
            graph_from_wire(payload)


class TestResultWireFormat:
    def test_round_trip(self, chain5_train):
        service = SolveService(cache=None)
        original = service.solve(chain5_train, "chen_sqrt_n")
        payload = result_to_wire(original)
        assert json.loads(json.dumps(payload)) == payload  # plain JSON
        restored = result_from_wire(payload, chain5_train)
        assert restored.strategy == original.strategy
        assert restored.feasible == original.feasible
        assert restored.compute_cost == pytest.approx(original.compute_cost)
        assert restored.peak_memory == original.peak_memory
        assert (restored.matrices.R == original.matrices.R).all()
        assert (restored.matrices.S == original.matrices.S).all()
        assert restored.plan is not None

    def test_graph_mismatch_degrades_to_error(self, chain5_train, diamond_train):
        service = SolveService(cache=None)
        payload = result_to_wire(service.solve(chain5_train, "chen_sqrt_n"))
        with pytest.raises(ValueError):
            result_from_wire(payload, diamond_train)

    def test_infeasible_result_round_trips_without_schedule(self, chain5_train):
        service = SolveService(cache=None)
        original = service.solve(chain5_train, "linearized_greedy",
                                 budget=1)  # hopeless budget: no feasible b
        assert not original.feasible
        assert original.matrices is None
        payload = result_to_wire(original)
        assert payload["schedule"] is None
        # compute_cost is inf for schedule-less results; the wire payload
        # must stay strict-JSON (no bare Infinity token for non-Python
        # clients), so it maps to null.
        assert payload["compute_cost"] is None
        json.dumps(payload, allow_nan=False)
        restored = result_from_wire(payload, chain5_train)
        assert not restored.feasible
        assert restored.solver_status == original.solver_status

    @pytest.mark.parametrize("mutate", [
        lambda p: p.pop("strategy"),
        lambda p: p.update(solve_time_s="fast"),
        lambda p: p.update(solve_time_s=[1]),
        lambda p: p.update(budget="8GiB"),
        lambda p: p.update(budget=True),
        lambda p: p.update(extra=[1, 2]),
        lambda p: p.update(schedule={"R": []}),
        lambda p: p.update(schedule=json.dumps({"format": SCHEDULE_FORMAT})),
        _edit_schedule(lambda s: s.pop("R")),
        _edit_schedule(lambda s: s.pop("graph_size")),
        # A well-formed schedule that computes nothing fails validation.
        _edit_schedule(lambda s: s.update(R=[[] for _ in s["R"]])),
    ], ids=["no-strategy", "str-solve-time", "list-solve-time", "str-budget",
            "bool-budget", "list-extra", "dict-schedule", "schedule-no-keys",
            "schedule-no-R", "schedule-no-graph-size", "schedule-zeroed-R"])
    def test_malformed_result_raises_value_error(self, mutate,
                                                  chain5_train):
        payload = result_to_wire(
            SolveService(cache=None).solve(chain5_train, "chen_sqrt_n"))
        mutate(payload)
        with pytest.raises(ValueError):
            result_from_wire(payload, chain5_train)
