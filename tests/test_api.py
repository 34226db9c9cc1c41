"""The public API surface, and the names the benchmark's span recorder wraps."""

import ast
import dataclasses
import importlib
import inspect
import os
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import truncshor
import truncshor.cli

import oracles

# Test-only reference implementations: they live in tests/oracles.py, not in the library.
REFERENCES = {
    "circuit": [
        "DimensionMismatchError", "_apply_gate_dense", "apply_to_basis", "apply_to_statevector",
        "concatenate_power", "restricted_equal",
    ],
    "shor": [
        "TooLargeError", "control_image", "analytic_amplitude", "eigenstate_vector",
        "run_shor_dense",
    ],
    "synth": ["_flip_path"],
}

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names() -> dict:
    """``TRACED`` from perfbench/spans.py, read as a literal without importing the file."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no TRACED assignment in {SPANS}")


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in REFERENCES.items() for name in names]
)
def test_reference_implementations_are_test_side(layer, name):
    assert not hasattr(truncshor, name)
    assert not hasattr(importlib.import_module(f"truncshor.{layer}"), name)
    assert callable(getattr(oracles, name))


def test_phase_bits_is_gone():
    assert not hasattr(truncshor, "phase_bits")
    assert not hasattr(truncshor.shor, "phase_bits")


def test_leveled_circuit_table_is_gone():
    # the gate kernel over the states a caller needs is the one compiled form
    assert not hasattr(truncshor.LeveledCircuit, "table")
    assert not hasattr(truncshor.circuit, "_basis_states")
    assert not hasattr(truncshor.circuit, "_low_halves")


def test_synthesis_keeps_no_2_to_the_n_state():
    # a blocked path is found by walking the detour, not by 2^n-bit layers in a free mask
    for name in ("_low_halves", "_LOW_HALVES", "np"):
        assert not hasattr(truncshor.synth, name)
    assert not hasattr(truncshor.synth._Trajectories((), (), 3), "free")


def test_each_gate_is_stored_once():
    # slotted gate records, no hidden flat copy of a circuit's gates, no module-global controls
    assert not hasattr(truncshor.circuit, "_Gates")
    assert not hasattr(truncshor.synth, "_CONTROLS")
    circuit = truncshor.LeveledCircuit(n_qubits=2, power=1, levels=((truncshor.Gate(0),),))
    assert not hasattr(circuit, "_gates")
    assert not hasattr(truncshor.Gate(0), "__dict__")
    assert not hasattr(truncshor.Control(0), "__dict__")


def test_synthesized_gates_keep_at_most_200_bytes_each():
    orbit = truncshor.build_orbit(truncshor.FactoringInstance(N=4087, a=3, m=1))
    tracemalloc.start()
    try:
        circuit = truncshor.synth_me_operator(orbit, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 200 * circuit.gate_count()


def test_one_distribution_type():
    # sample returns shot counts, not a second kind of PhaseDistribution
    assert [f.name for f in dataclasses.fields(truncshor.PhaseDistribution)] == ["m", "probabilities"]
    assert not hasattr(truncshor, "EigenphaseSet")
    assert not hasattr(truncshor.shor, "EigenphaseSet")


@pytest.mark.parametrize("name", ["ResolutionCell", "CycleDecomposition"])
def test_results_are_not_wrapped(name):
    # resolution_study returns its tries results and cycle_decomposition its cycles
    assert not hasattr(truncshor, name)
    assert not hasattr(truncshor.experiments, name)
    assert not hasattr(truncshor.modmath, name)


def test_period_check_does_not_echo_its_argument():
    assert [f.name for f in dataclasses.fields(truncshor.PeriodCheck)] == ["accepted", "reason"]


def test_tries_result_does_not_echo_its_length():
    # num_it is len(tries), and r comes from the orbit
    fields = [f.name for f in dataclasses.fields(truncshor.TriesResult)]
    assert fields == ["orbit", "trnc_lv", "tries", "capped"]


def test_the_period_lives_on_the_orbit():
    # a FactoringInstance is the checked input (N, a, m); r and the factor mask come from its orbit
    inst = truncshor.FactoringInstance(N=21, a=2, m=5)
    for name in ("r", "factor_mask"):
        assert not hasattr(truncshor.FactoringInstance, name)
        assert not hasattr(inst, name)


def test_factor_mask_is_cached_and_read_only():
    orbit = truncshor.build_orbit(truncshor.FactoringInstance(N=21, a=2, m=5))
    assert orbit.factor_mask is orbit.factor_mask
    assert orbit.factor_mask.nonzero()[0].tolist() == [5, 27]
    with pytest.raises(ValueError):
        orbit.factor_mask[0] = True


def test_resolution_study_builds_no_peak_tables(monkeypatch):
    def no_peaks(*args):
        raise AssertionError("resolution_study called peak_presence")

    monkeypatch.setattr(truncshor.experiments, "peak_presence", no_peaks)
    cells = truncshor.resolution_study(
        truncshor.FactoringInstance(N=21, a=2, m=5), [4, 5], [0], num_it=2, base_seed=1
    )
    assert set(cells) == {(4, 0), (5, 0)}


def test_resolution_study_builds_no_try_outcomes(monkeypatch):
    def no_outcome(*args, **kwargs):
        raise AssertionError("a TryOutcome was built")

    monkeypatch.setattr(truncshor.experiments, "TryOutcome", no_outcome)
    cells = truncshor.resolution_study(
        truncshor.FactoringInstance(N=21, a=2, m=5), [4, 5], [0, 1], num_it=5, base_seed=1
    )
    assert set(cells) == {(4, 0), (4, 1), (5, 0), (5, 1)}
    assert not all(all(res.capped) for res in cells.values())  # some seeds won


# Each pipeline stage takes the previous stage's output and nothing that would redo it.
STAGES = {
    "synth_me_operator": ["orbit", "p"],
    "synth_powers": ["orbit", "powers"],
    "synth_all_powers": ["orbit", "m"],
    "truncate": ["circuits", "trnc_lv"],
    "work_images": ["circuits", "M"],
    "exact_distribution": ["instance", "images"],
    "tries_until_factor": ["orbit", "dist", "seed", "max_tries"],
    "tries_ensemble": ["cells", "seeds", "max_tries"],
    "peak_presence": ["orbit", "dist"],
    "sample": ["dist", "shots", "seed"],
    "histogram_chunks": ["orbit", "dist", "counts"],
    "histogram_csv": ["orbit", "dist", "counts"],
}


@pytest.mark.parametrize("name", sorted(STAGES))
def test_pipeline_stage_parameters(name):
    assert list(inspect.signature(getattr(truncshor, name)).parameters) == STAGES[name]


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in traced_names().items() for name in names]
)
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"truncshor.{layer}"), name))


@pytest.fixture
def orbit_builds(monkeypatch):
    """The instance of every build_orbit call made while the test runs, through any module."""
    calls = []
    original = truncshor.modmath.build_orbit

    def counting(instance):
        calls.append(instance)
        return original(instance)

    for module in (truncshor.modmath, truncshor.experiments, truncshor.cli):
        monkeypatch.setattr(module, "build_orbit", counting)
    return calls


@pytest.mark.parametrize("argv", [
    ["run", "--N", "21", "--a", "2", "--m", "5", "--out", "hist.csv"],
    ["factor", "--N", "21", "--a", "2", "--m", "5", "--seed", "1"],
    ["study", "--N", "21", "--a", "2", "--m", "4,5", "--trnc", "0:1", "--num-it", "2",
     "--seed", "1", "--out", "study.csv"],
])
def test_each_command_builds_one_orbit(orbit_builds, monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert truncshor.cli.main(["--quiet", *argv]) == 0
    assert len(orbit_builds) == 1


def test_stages_after_the_orbit_build_none(orbit_builds):
    inst = truncshor.FactoringInstance(N=21, a=2, m=5)
    orbit = truncshor.build_orbit(inst)
    circuits = truncshor.synth_all_powers(orbit, inst.m)
    dist = truncshor.exact_distribution(inst, truncshor.work_images(circuits, inst.M))
    results = truncshor.truncation_sweep(inst, [0, 1], num_it=2, base_seed=1)
    orbit_builds.clear()
    truncshor.histogram_csv(orbit, dist, truncshor.sample(dist, 100, seed=1))
    truncshor.tries_until_factor(orbit, dist, seed=1)
    truncshor.study_csv(results)
    truncshor.study_json(results)
    assert orbit_builds == []


# The functions in src/ that no command enters: the names the benchmark's recorder wraps (TRACED)
# and no command calls, with their helpers; the checked Gate constructor and the scalar gate
# semantics, which synthesis's trusted gates and the bit-sliced kernel bypass; the circuit JSON
# reader and schema; and the FFT's CPU count, which only M >= 2^17 asks for.
NOT_RUN_BY_COMMANDS = {
    "circuit.lower_negative_controls", "experiments.truncation_sweep",
    "experiments.peak_presence", "modmath.analyze_measurement", "shor.histogram_csv",
    "synth.minimize_controls", "synth.synth_level",
    "modmath.continued_fraction", "modmath.convergents", "shor.nearest_phase_bin",
    "modmath.ConvergentReport.to_text", "modmath.ConvergentReport.factors",
    "modmath.ConvergentReport.phase_decimal",
    "circuit.Gate.__post_init__", "circuit.Gate.fires", "circuit.Gate.apply",
    "circuit.to_json_dict", "circuit.from_json_dict", "circuit.from_json",
    "shor._cpu_count",
}

# Every command and outcome, at m <= 10: (argv, exit code).
COMMAND_GRID = [
    (["orbit", "--N", "143", "--a", "5"], 0),
    (["synth", "--N", "143", "--a", "5", "--powers", "1:8", "--out", "json"], 0),
    (["synth", "--N", "21", "--a", "2", "--powers", "1:16", "--trnc-lv", "1",
      "--format", "qasm3", "--out", "qasm"], 0),
    (["run", "--N", "143", "--a", "5", "--m", "10", "--trnc-lv", "3", "--out", "h.csv"], 0),
    (["run", "--N", "21", "--a", "2", "--m", "5", "--shots", "64", "--seed", "1"], 0),
    (["--quiet", "factor", "--N", "143", "--a", "5", "--m", "10", "--seed", "1"], 0),
    (["factor", "--N", "21", "--a", "4", "--m", "5", "--seed", "1"], 3),  # r = 3 is odd: capped
    (["factor", "--N", "21", "--a", "7", "--m", "5", "--seed", "1"], 0),  # 7 is a shared factor
    (["study", "--N", "143", "--a", "5", "--m", "8,10", "--trnc", "0:2", "--num-it", "5",
      "--seed", "1", "--out", "s.csv"], 0),
]


def package_functions(package: Path) -> set:
    """"module.qualname" of every function and method the package's sources define."""
    names = set()
    for path in package.glob("*.py"):
        codes = [compile(path.read_text(), str(path), "exec")]
        while codes:
            for const in codes.pop().co_consts:
                if isinstance(const, types.CodeType):
                    codes.append(const)
                    # class bodies are not optimized; lambdas and comprehensions are "<...>"
                    if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                        names.add(f"{path.stem}.{const.co_qualname}")
    return names


def test_commands_enter_every_function_but_the_stated_ones(monkeypatch, tmp_path, capsys):
    package = Path(truncshor.__file__).parent
    prefix = str(package) + os.sep
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    monkeypatch.chdir(tmp_path)
    for argv, code in COMMAND_GRID:
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            returned = truncshor.cli.main(argv)
        finally:
            sys.settrace(previous)
        assert returned == code, argv
    capsys.readouterr()
    assert package_functions(package) - entered == NOT_RUN_BY_COMMANDS
