"""Tests for FREE-event derivation, Algorithm 1 plan generation and the simulators."""

import numpy as np
import pytest

from repro.core import (
    ScheduleMatrices,
    checkpoint_all_schedule,
    checkpoint_last_node_schedule,
    compute_free_events,
    generate_execution_plan,
    hoist_deallocations,
    linear_graph,
    schedule_compute_cost,
    schedule_peak_memory,
    simulate_plan,
    simulate_schedule_memory,
    validate_correctness_constraints,
)
from repro.core.plan import ComputeNode, DeallocateRegister
from repro.core.simulator import PlanSimulationError


class TestFreeEvents:
    def test_checkpoint_all_frees_nothing_until_last_stage(self, chain5):
        m = checkpoint_all_schedule(chain5)
        events = compute_free_events(chain5, m)
        # Every value is checkpointed into the next stage, so the only FREE
        # events can occur in the final stage (which has no next stage).
        assert all(t == chain5.size - 1 for (t, _k) in events)

    def test_lazy_schedule_frees_dependencies(self, chain5):
        m = checkpoint_last_node_schedule(chain5)
        events = compute_free_events(chain5, m)
        assert events, "recompute-everything schedules must free their temporaries"

    def test_no_double_deallocation(self, varied_chain_train):
        # Theorem 4.1: for any schedule, a value is freed at most once per stage.
        m = checkpoint_last_node_schedule(varied_chain_train)
        events = compute_free_events(varied_chain_train, m)
        for t in range(m.num_stages):
            freed = [i for (tt, k), nodes in events.items() if tt == t for i in nodes]
            assert len(freed) == len(set(freed))

    def test_unused_recomputation_is_freed_right_after_itself(self, chain5):
        # Checkpoint everything, except that stage 2 recomputes v0 instead of
        # keeping it: nothing later in stage 2 reads v0 (v1 is checkpointed)
        # and v0 is not kept into stage 3, so FREE[2, 0, 0] fires.
        m = checkpoint_all_schedule(chain5)
        R, S = m.R.copy(), m.S.copy()
        R[2, 0] = 1
        S[2:, 0] = 0
        spurious = ScheduleMatrices(R, S)
        assert validate_correctness_constraints(chain5, spurious) == []
        events = compute_free_events(chain5, spurious)
        assert events[(2, 0)] == [0]


class TestPlanGeneration:
    @pytest.mark.parametrize("schedule_fn", [checkpoint_all_schedule, checkpoint_last_node_schedule])
    def test_plans_are_structurally_valid(self, chain5_train, schedule_fn):
        plan = generate_execution_plan(chain5_train, schedule_fn(chain5_train))
        plan.validate_structure()

    def test_plan_computes_match_R(self, chain5_train):
        m = checkpoint_last_node_schedule(chain5_train)
        plan = generate_execution_plan(chain5_train, m)
        assert plan.total_computations() == int(m.R.sum())

    def test_plan_cost_matches_schedule_cost(self, varied_chain_train):
        m = checkpoint_last_node_schedule(varied_chain_train)
        plan = generate_execution_plan(varied_chain_train, m)
        trace = simulate_plan(varied_chain_train, plan)
        assert trace.total_cost == pytest.approx(schedule_compute_cost(varied_chain_train, m))

    def test_plan_dependencies_respected(self, diamond_train):
        for schedule_fn in (checkpoint_all_schedule, checkpoint_last_node_schedule):
            plan = generate_execution_plan(diamond_train, schedule_fn(diamond_train))
            simulate_plan(diamond_train, plan)  # raises on violation

    def test_width_mismatch_rejected(self, chain5, chain5_train):
        with pytest.raises(ValueError):
            generate_execution_plan(chain5, checkpoint_all_schedule(chain5_train))


class TestHoisting:
    def test_hoisting_never_increases_peak(self, varied_chain_train):
        m = checkpoint_last_node_schedule(varied_chain_train)
        raw = generate_execution_plan(varied_chain_train, m, hoist=False)
        hoisted = hoist_deallocations(varied_chain_train, raw)
        raw_trace = simulate_plan(varied_chain_train, raw)
        hoisted_trace = simulate_plan(varied_chain_train, hoisted)
        assert hoisted_trace.peak_memory <= raw_trace.peak_memory
        assert hoisted_trace.total_cost == pytest.approx(raw_trace.total_cost)

    def test_hoisting_preserves_statement_multiset(self, chain5_train):
        m = checkpoint_all_schedule(chain5_train)
        raw = generate_execution_plan(chain5_train, m, hoist=False)
        hoisted = hoist_deallocations(chain5_train, raw)
        assert len(raw) == len(hoisted)
        assert raw.compute_counts() == hoisted.compute_counts()

    def test_hoisted_deallocs_stay_after_last_use(self, chain5_train):
        m = checkpoint_all_schedule(chain5_train)
        plan = generate_execution_plan(chain5_train, m, hoist=True)
        last_use = {}
        for idx, s in enumerate(plan.statements):
            if isinstance(s, ComputeNode):
                last_use[s.node_id] = idx
                for p in chain5_train.predecessors(s.node_id):
                    last_use[p] = idx
        for idx, s in enumerate(plan.statements):
            if isinstance(s, DeallocateRegister) and s.node_id in last_use:
                assert idx > 0  # deallocations never lead the plan


class TestUMatrixAccounting:
    def test_hand_computed_chain(self):
        # 3-node unit chain, checkpoint-all: U[t, 0] = #checkpoints, then +1 per compute.
        g = linear_graph(3, cost=1.0, memory=1)
        U = simulate_schedule_memory(g, checkpoint_all_schedule(g))
        assert U.shape == (3, 4)
        assert U[0, 0] == 0 and U[0, 1] == 1
        assert U[1, 0] == 1 and U[1, 2] == 2
        assert U[2, 0] == 2 and U[2, 3] == 3
        assert schedule_peak_memory(g, checkpoint_all_schedule(g)) == 3

    def test_constant_overhead_included(self):
        g = linear_graph(3, cost=1.0, memory=1)
        g2 = type(g)(nodes=g.nodes, deps=g.deps, input_memory=5, parameter_memory=10)
        peak = schedule_peak_memory(g2, checkpoint_all_schedule(g2))
        assert peak == 3 + 5 + 2 * 10

    def test_lazy_schedule_uses_less_memory(self, varied_chain_train):
        keep = schedule_peak_memory(varied_chain_train, checkpoint_all_schedule(varied_chain_train))
        lazy = schedule_peak_memory(varied_chain_train,
                                    checkpoint_last_node_schedule(varied_chain_train))
        assert lazy < keep

    def test_plan_peak_never_exceeds_schedule_peak(self, varied_chain_train, diamond_train):
        for g in (varied_chain_train, diamond_train):
            for fn in (checkpoint_all_schedule, checkpoint_last_node_schedule):
                m = fn(g)
                plan = generate_execution_plan(g, m)
                assert simulate_plan(g, plan).peak_memory <= schedule_peak_memory(g, m)


class TestPlanSimulatorErrors:
    def test_missing_dependency_raises(self, chain5):
        from repro.core.plan import AllocateRegister, ComputeNode, ExecutionPlan
        plan = ExecutionPlan()
        plan.append(AllocateRegister(0, 2, 4))
        plan.append(ComputeNode(0, 2))  # node 2's parent was never computed
        with pytest.raises(PlanSimulationError):
            simulate_plan(chain5, plan)

    def test_validation_can_be_disabled(self, chain5):
        from repro.core.plan import AllocateRegister, ComputeNode, ExecutionPlan
        plan = ExecutionPlan()
        plan.append(AllocateRegister(0, 2, 4))
        plan.append(ComputeNode(0, 2))
        trace = simulate_plan(chain5, plan, validate_dependencies=False)
        assert trace.total_cost == chain5.cost(2)

    def test_dead_register_compute_raises(self, chain5):
        from repro.core.plan import ComputeNode, ExecutionPlan
        plan = ExecutionPlan()
        plan.append(ComputeNode(0, 0))
        with pytest.raises(PlanSimulationError):
            simulate_plan(chain5, plan)

    def test_trace_timeline_monotone(self, chain5_train):
        plan = generate_execution_plan(chain5_train, checkpoint_all_schedule(chain5_train))
        trace = simulate_plan(chain5_train, plan)
        times, memory = trace.timeline()
        assert len(times) == len(memory) == len(plan)
        assert np.all(np.diff(times) >= 0)
