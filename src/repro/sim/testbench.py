"""Random testbench (stimulus) generation.

Replaces GoldMine's testbench generator: given a parsed module it
identifies the clock and reset inputs by naming convention, asserts reset
for an initial window, and drives every other input with constrained
random values.  A hold probability keeps signals stable across cycles so
sequential behaviors (FSM transitions, counters) are actually exercised
rather than washed out by white noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..verilog.ast_nodes import Module

#: Input names treated as clocks (never randomized).
CLOCK_NAMES = frozenset({"clk", "clock", "clk_i", "wb_clk_i", "clk_in"})

#: Input names treated as resets, mapped to active level.
RESET_NAMES: dict[str, int] = {
    "rst": 1,
    "reset": 1,
    "wb_rst_i": 1,
    "rst_i": 1,
    "rst_n": 0,
    "rst_ni": 0,
    "resetn": 0,
    "reset_n": 0,
    "nreset": 0,
}


@dataclass
class TestbenchConfig:
    """Knobs for random stimulus generation.

    Attributes:
        n_cycles: Number of simulated cycles per trace.
        reset_cycles: Cycles to hold reset active at the start.
        hold_probability: Per-cycle probability that an input keeps its
            previous value instead of being re-randomized.
        one_probability: Probability of each bit being 1 when randomized.
        forced: Input name -> constant value overrides.
        biases: Input name -> per-bit one-probability override (used to
            make rare events such as address matches reachable).
        engine: Simulation engine used by consumers that build simulators
            from this config: "auto" (default; lockstep vector engine for
            multi-trace suites, compiled scalar otherwise), "vector",
            "compiled", or "interpreted".
        stimulus_rng: Random-draw backend — "numpy" (default; the whole
            trace's entropy is drawn in one bulk ``random_sample`` call)
            or "legacy" (one ``random.Random.random()`` call per bit).
            Both are bit-identical: the numpy path transplants the
            MT19937 state of ``random.Random(seed)``, so it replays the
            exact float stream the legacy path consumes.
    """

    # Not a test class despite the Test* name (silences pytest collection).
    __test__ = False

    n_cycles: int = 30
    reset_cycles: int = 2
    hold_probability: float = 0.5
    one_probability: float = 0.5
    forced: dict[str, int] = field(default_factory=dict)
    biases: dict[str, float] = field(default_factory=dict)
    engine: str = "auto"
    stimulus_rng: str = "numpy"


def identify_clock(module: Module) -> str | None:
    """Name of the clock input, or None for purely combinational designs."""
    for name in module.inputs:
        if name in CLOCK_NAMES:
            return name
    return None


def identify_reset(module: Module) -> tuple[str, int] | None:
    """(name, active_level) of the reset input, or None."""
    for name in module.inputs:
        if name in RESET_NAMES:
            return name, RESET_NAMES[name]
    return None


def random_value(width: int, rng: random.Random, one_probability: float = 0.5) -> int:
    """Random ``width``-bit value with per-bit density ``one_probability``."""
    value = 0
    for i in range(width):
        if rng.random() < one_probability:
            value |= 1 << i
    return value


#: Stimulus RNG backends accepted by :class:`TestbenchConfig`.
STIMULUS_RNGS = ("numpy", "legacy")


def _replay_stream(seed: int, n: int) -> list[float]:
    """The first ``n`` floats ``random.Random(seed).random()`` would yield.

    Both RNGs are MT19937; transplanting the freshly-seeded state of
    ``random.Random`` into a ``numpy.random.RandomState`` replays the
    identical float stream (CPython seeds via ``init_by_array``, which
    numpy only applies to multi-word keys — so the state itself is
    copied rather than the seed).  Returned as a plain list: indexing
    Python floats beats per-draw generator calls and per-value numpy
    slicing at testbench widths.
    """
    if n <= 0:
        return []
    key = random.Random(seed).getstate()[1]
    global _NP_STATE
    if _NP_STATE is None:
        # Constructing a RandomState draws OS entropy; reuse one and
        # overwrite its state per call (the transplant makes every draw
        # a pure function of ``seed`` regardless of prior use).
        _NP_STATE = np.random.RandomState()
    _NP_STATE.set_state(("MT19937", np.array(key[:624], dtype=np.uint32), key[624]))
    return _NP_STATE.random_sample(n).tolist()


#: Shared RandomState used purely as an MT19937 replay engine.
_NP_STATE: np.random.RandomState | None = None


@dataclass(frozen=True)
class _SuitePlan:
    """The design facts every stimulus of a suite shares, worked out once.

    ``n_draws`` bounds the floats one stimulus can consume on the numpy
    path: per cycle and randomized input, one hold decision plus one
    float per bit.
    """

    config: TestbenchConfig
    clock: str | None
    reset: tuple[str, int] | None
    inputs: list[str]
    widths: dict[str, int]
    n_draws: int


def _plan_suite(module: Module, config: TestbenchConfig | None) -> _SuitePlan:
    config = config or TestbenchConfig()
    if config.stimulus_rng not in STIMULUS_RNGS:
        raise ValueError(
            f"unknown stimulus_rng {config.stimulus_rng!r};"
            f" expected one of {STIMULUS_RNGS}"
        )
    clock = identify_clock(module)
    reset = identify_reset(module)
    inputs = module.inputs
    widths = {name: module.decls[name].width for name in inputs}
    randomized = [
        name
        for name in inputs
        if name != clock
        and (reset is None or name != reset[0])
        and name not in config.forced
    ]
    n_draws = config.n_cycles * sum(1 + widths[name] for name in randomized)
    return _SuitePlan(config, clock, reset, inputs, widths, n_draws)


def generate_stimulus(
    module: Module,
    config: TestbenchConfig | None = None,
    seed: int = 0,
) -> list[dict[str, int]]:
    """Generate one random stimulus (list of per-cycle input frames).

    Clock inputs are held at 0 (the cycle-based simulator implies the
    edge), the reset input follows the reset window, and all other inputs
    are constrained-random.

    Args:
        module: The design to stimulate.
        config: Generation knobs; defaults to :class:`TestbenchConfig`.
        seed: RNG seed; the same seed always yields the same stimulus,
            regardless of the ``stimulus_rng`` backend.

    Returns:
        A list of ``config.n_cycles`` dicts, each driving every input.
    """
    return _draw_stimulus(_plan_suite(module, config), seed)


def _draw_stimulus(plan: _SuitePlan, seed: int) -> list[dict[str, int]]:
    config, clock, reset, widths = plan.config, plan.clock, plan.reset, plan.widths
    rng: random.Random | None = None
    draws: list[float] = []
    cursor = 0
    if config.stimulus_rng == "legacy":
        rng = random.Random(seed)
    else:
        # Bulk-draw the entropy bound and walk it with a cursor in the
        # exact order the legacy path would call ``rng.random()``.
        draws = _replay_stream(seed, plan.n_draws)

    frames: list[dict[str, int]] = []
    previous: dict[str, int] = {}
    for cycle in range(config.n_cycles):
        frame: dict[str, int] = {}
        for name in plan.inputs:
            if name == clock:
                frame[name] = 0
                continue
            if reset is not None and name == reset[0]:
                active, level = cycle < config.reset_cycles, reset[1]
                frame[name] = level if active else 1 - level
                continue
            if name in config.forced:
                frame[name] = config.forced[name]
                continue
            density = config.biases.get(name, config.one_probability)
            if rng is not None:
                if name in previous and rng.random() < config.hold_probability:
                    frame[name] = previous[name]
                else:
                    frame[name] = random_value(widths[name], rng, density)
                continue
            if name in previous:
                hold = draws[cursor] < config.hold_probability
                cursor += 1
                if hold:
                    frame[name] = previous[name]
                    continue
            value = 0
            for i in range(widths[name]):
                if draws[cursor + i] < density:
                    value |= 1 << i
            cursor += widths[name]
            frame[name] = value
        previous = frame
        frames.append(frame)
    return frames


def generate_testbench_suite(
    module: Module,
    n_traces: int,
    config: TestbenchConfig | None = None,
    seed: int = 0,
) -> list[list[dict[str, int]]]:
    """Generate ``n_traces`` independent stimuli with derived seeds."""
    plan = _plan_suite(module, config)
    return [_draw_stimulus(plan, seed * 100003 + idx) for idx in range(n_traces)]
