"""End-to-end numeric tests: rematerialized plans compute identical results."""

import numpy as np
import pytest

from helpers import tight_budget

from repro.core import (
    checkpoint_all_schedule,
    checkpoint_last_node_schedule,
    generate_execution_plan,
)
from repro.execution import (
    execute_checkpoint_all,
    execute_plan,
    make_numeric_chain,
    make_numeric_dag,
)
from repro.core.simulator import PlanSimulationError
from repro.solvers import solve_ilp_rematerialization, solve_rounding_portfolio


class TestNumericGraphs:
    def test_chain_builder_shapes(self):
        numeric = make_numeric_chain(num_layers=4, width=8, seed=0)
        assert numeric.graph.size == 6  # input + 4 layers + loss
        assert numeric.graph.is_linear_chain()

    def test_dag_builder_deterministic(self):
        a = make_numeric_dag(num_nodes=8, seed=3)
        b = make_numeric_dag(num_nodes=8, seed=3)
        assert list(a.graph.edges()) == list(b.graph.edges())

    def test_missing_function_rejected(self):
        from repro.execution.ops import NumericGraph
        numeric = make_numeric_chain(3)
        funcs = dict(numeric.functions)
        funcs.pop(0)
        with pytest.raises(ValueError):
            NumericGraph(graph=numeric.graph, functions=funcs)


class TestReferenceExecution:
    def test_checkpoint_all_plan_matches_reference(self):
        numeric = make_numeric_chain(num_layers=5, width=8, seed=1)
        reference = execute_checkpoint_all(numeric)
        plan = generate_execution_plan(numeric.graph, checkpoint_all_schedule(numeric.graph))
        result = execute_plan(numeric, plan)
        for node, value in reference.outputs.items():
            if node in result.outputs:
                np.testing.assert_allclose(result.outputs[node], value)
        assert result.outputs[numeric.graph.terminal_node] == pytest.approx(
            reference.outputs[numeric.graph.terminal_node])


class TestRematerializedExecution:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lazy_schedule_matches_reference(self, seed):
        numeric = make_numeric_dag(num_nodes=9, width=6, seed=seed)
        reference = execute_checkpoint_all(numeric)
        plan = generate_execution_plan(numeric.graph,
                                       checkpoint_last_node_schedule(numeric.graph))
        result = execute_plan(numeric, plan)
        np.testing.assert_allclose(result.outputs[numeric.graph.terminal_node],
                                   reference.outputs[numeric.graph.terminal_node])
        assert result.num_compute > reference.num_compute

    def test_ilp_schedule_matches_reference_and_saves_memory(self):
        numeric = make_numeric_chain(num_layers=8, width=16, seed=2)
        graph = numeric.graph
        reference = execute_checkpoint_all(numeric)

        budget = tight_budget(graph, 0.55)
        solved = solve_ilp_rematerialization(graph, budget)
        assert solved.feasible
        result = execute_plan(numeric, solved.plan)
        np.testing.assert_allclose(result.outputs[graph.terminal_node],
                                   reference.outputs[graph.terminal_node])
        assert result.peak_live_bytes <= reference.peak_live_bytes

    def test_approx_schedule_matches_reference(self):
        numeric = make_numeric_chain(num_layers=8, width=16, seed=4)
        graph = numeric.graph
        reference = execute_checkpoint_all(numeric)
        solved = solve_rounding_portfolio(graph, tight_budget(graph, 0.6),
                                          scheme="fixed_half")
        assert solved.feasible
        result = execute_plan(numeric, solved.plan)
        np.testing.assert_allclose(result.outputs[graph.terminal_node],
                                   reference.outputs[graph.terminal_node])

    def test_compute_counts_reported(self):
        numeric = make_numeric_chain(num_layers=5, width=4)
        plan = generate_execution_plan(numeric.graph,
                                       checkpoint_last_node_schedule(numeric.graph))
        result = execute_plan(numeric, plan)
        assert sum(result.compute_counts.values()) == result.num_compute
        assert max(result.compute_counts.values()) > 1  # something was rematerialized

    def test_record_outputs_subset(self):
        numeric = make_numeric_chain(num_layers=4, width=4)
        plan = generate_execution_plan(numeric.graph, checkpoint_all_schedule(numeric.graph))
        result = execute_plan(numeric, plan, record_outputs=[numeric.graph.terminal_node])
        assert set(result.outputs) == {numeric.graph.terminal_node}

    def test_bad_plan_raises(self):
        from repro.core.plan import AllocateRegister, ComputeNode, ExecutionPlan
        numeric = make_numeric_chain(num_layers=3, width=4)
        plan = ExecutionPlan()
        plan.append(AllocateRegister(0, 2, 4))
        plan.append(ComputeNode(0, 2))  # parent value missing
        with pytest.raises(PlanSimulationError):
            execute_plan(numeric, plan)


# --------------------------------------------------------------------------- #
# Register-reuse contract: executor and simulator account and raise alike
# --------------------------------------------------------------------------- #
def _chain_numeric_and_plan_builders():
    """A 3-node chain (32 B per value) plus plan-statement shorthands."""
    from repro.core.plan import (
        AllocateRegister,
        ComputeNode,
        DeallocateRegister,
        ExecutionPlan,
    )
    numeric = make_numeric_chain(num_layers=1, width=4, seed=0)  # input, layer, loss

    def plan_of(*statements):
        plan = ExecutionPlan(statements=list(statements),
                             graph_name=numeric.graph.name)
        return plan

    return (numeric, plan_of, AllocateRegister, ComputeNode, DeallocateRegister)


class TestRegisterReuseContract:
    """The confirmed accounting bugs: recompute into a still-live register."""

    def test_executor_does_not_double_count_recompute(self):
        # 3 compute statements, one register reused for node 0 (32 B values):
        # the old executor charged 32 B per compute without releasing the
        # replaced value (96 B "peak"); the true peak holds node 0 once plus
        # node 1 once = 64 B.
        numeric, plan_of, Alloc, Compute, Dealloc = _chain_numeric_and_plan_builders()
        plan = plan_of(
            Alloc(0, 0, 32), Compute(0, 0), Compute(0, 0),
            Alloc(1, 1, 32), Compute(1, 1),
            Dealloc(0, 0), Dealloc(1, 1),
        )
        plan.validate_structure()  # repeated compute per register is legal
        result = execute_plan(numeric, plan)
        assert result.peak_live_bytes == 64
        assert result.num_compute == 3
        assert result.compute_counts == {0: 2, 1: 1}

    def test_simulator_refcount_survives_recompute_then_dealloc(self):
        # Two computes into one register then a single dealloc: the old
        # simulator leaked the refcount, leaving node 0 "resident" after its
        # register was freed -- so the dependent compute below silently
        # passed validation.  It must raise.
        from repro.core.simulator import simulate_plan
        numeric, plan_of, Alloc, Compute, Dealloc = _chain_numeric_and_plan_builders()
        graph = numeric.graph
        plan = plan_of(
            Alloc(0, 0, 32), Compute(0, 0), Compute(0, 0), Dealloc(0, 0),
            Alloc(1, 1, 32), Compute(1, 1),  # parent 0 is dead: must raise
        )
        with pytest.raises(PlanSimulationError, match="not resident"):
            simulate_plan(graph, plan)
        with pytest.raises(PlanSimulationError, match="not resident"):
            execute_plan(numeric, plan)

    def test_simulator_memory_constant_across_recompute(self):
        from repro.core.simulator import simulate_plan
        numeric, plan_of, Alloc, Compute, Dealloc = _chain_numeric_and_plan_builders()
        plan = plan_of(
            Alloc(0, 0, 32), Compute(0, 0), Compute(0, 0),
            Alloc(1, 1, 32), Compute(1, 1),
            Dealloc(0, 0), Dealloc(1, 1),
        )
        trace = simulate_plan(numeric.graph, plan)
        overhead = numeric.graph.constant_overhead
        assert trace.peak_memory == overhead + 64
        # After both deallocations everything is released again.
        assert trace.memory_by_statement[-1] == overhead

    @pytest.mark.parametrize("mutation", ["dead_compute", "dead_dealloc",
                                          "realloc_live", "foreign_node"])
    def test_executor_and_simulator_raise_identically(self, mutation):
        from repro.core.simulator import simulate_plan
        numeric, plan_of, Alloc, Compute, Dealloc = _chain_numeric_and_plan_builders()
        if mutation == "dead_compute":
            plan = plan_of(Alloc(0, 0, 32), Compute(0, 0), Dealloc(0, 0),
                           Compute(0, 0))
        elif mutation == "dead_dealloc":
            plan = plan_of(Alloc(0, 0, 32), Compute(0, 0), Dealloc(0, 0),
                           Dealloc(0, 0))
        elif mutation == "realloc_live":
            plan = plan_of(Alloc(0, 0, 32), Compute(0, 0), Alloc(0, 1, 32))
        else:  # register allocated for node 0, computed with node 1
            plan = plan_of(Alloc(0, 0, 32), Compute(0, 0), Alloc(1, 1, 32),
                           Compute(1, 0))
        with pytest.raises(PlanSimulationError) as sim_err:
            simulate_plan(numeric.graph, plan)
        with pytest.raises(PlanSimulationError) as exec_err:
            execute_plan(numeric, plan)
        assert str(sim_err.value) == str(exec_err.value)

    def test_duplicated_value_survives_one_dealloc(self):
        # Node 0 computed into two registers: deallocating either copy keeps
        # the node resident (residency = "some register holds the value").
        from repro.core.simulator import simulate_plan
        numeric, plan_of, Alloc, Compute, Dealloc = _chain_numeric_and_plan_builders()
        plan = plan_of(
            Alloc(0, 0, 32), Compute(0, 0),
            Alloc(1, 0, 32), Compute(1, 0),
            Dealloc(0, 0),                     # first copy freed
            Alloc(2, 1, 32), Compute(2, 1),    # parent still resident via %1
            Dealloc(1, 0), Dealloc(2, 1),
        )
        result = execute_plan(numeric, plan)
        assert result.peak_live_bytes == 64  # both copies live at once
        trace = simulate_plan(numeric.graph, plan)
        assert trace.peak_memory == numeric.graph.constant_overhead + 64

    def test_algorithm1_plans_unchanged_by_fixes(self):
        # Plans lowered from (R, S) never recompute into a live register, so
        # the fixes must not move their accounting.
        numeric = make_numeric_chain(num_layers=6, width=8, seed=5)
        plan = generate_execution_plan(numeric.graph,
                                       checkpoint_last_node_schedule(numeric.graph))
        from repro.core.simulator import simulate_plan
        result = execute_plan(numeric, plan)
        trace = simulate_plan(numeric.graph, plan)
        assert (result.peak_live_bytes + numeric.graph.constant_overhead
                == trace.peak_memory)
