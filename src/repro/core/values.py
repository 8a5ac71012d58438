"""The four-valued Zeus signal domain (paper sections 3.3 and 8).

Signals take values in {0, 1, UNDEF, NOINFL}:

* ``ZERO``/``ONE`` -- the defined logic levels;
* ``UNDEF`` -- undefined (an X); produced by gates whose inputs do not
  determine the output, by reading an unwritten register, and by the
  multi-driver runtime check;
* ``NOINFL`` -- "no influence": the disconnected / high-impedance state,
  legal only on signals of type *multiplex* (the paper's name for
  tri-state).

This module also implements the short-circuiting gate rules of section 8
("the AND node fires 0 as soon as one entering edge is 0") and the
bus-resolution rule ("NOINFL is overruled by any other value; two or more
(0,1,UNDEF) assignments give UNDEF and an error").
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Sequence


class Logic(IntEnum):
    """One Zeus signal value."""

    ZERO = 0
    ONE = 1
    UNDEF = 2
    NOINFL = 3

    def __str__(self) -> str:
        return _NAMES[self]

    @property
    def is_defined(self) -> bool:
        """True for the strict logic levels 0 and 1."""
        return self in (Logic.ZERO, Logic.ONE)

    @property
    def is_driving(self) -> bool:
        """True for every value except the high-impedance NOINFL."""
        return self is not Logic.NOINFL

    def to_boolean(self) -> "Logic":
        """Convert a multiplex value to the boolean domain.

        The paper specifies the conversion multiplex -> boolean is done by
        implicitly generated hardware (an amplifier); a floating input reads
        as UNDEF (``x := NOINFL`` is replaced by ``x := UNDEF``).
        """
        return Logic.UNDEF if self is Logic.NOINFL else self

    @classmethod
    def from_bit(cls, bit: int) -> "Logic":
        if bit == 0:
            return cls.ZERO
        if bit == 1:
            return cls.ONE
        raise ValueError(f"not a bit: {bit!r}")

    @classmethod
    def from_name(cls, name: str) -> "Logic":
        try:
            return _BY_NAME[name]
        except KeyError:
            raise ValueError(f"not a Zeus signal value: {name!r}") from None


_NAMES = {
    Logic.ZERO: "0",
    Logic.ONE: "1",
    Logic.UNDEF: "UNDEF",
    Logic.NOINFL: "NOINFL",
}

_BY_NAME = {
    "0": Logic.ZERO,
    "1": Logic.ONE,
    "UNDEF": Logic.UNDEF,
    "NOINFL": Logic.NOINFL,
}

ZERO = Logic.ZERO
ONE = Logic.ONE
UNDEF = Logic.UNDEF
NOINFL = Logic.NOINFL


class MultipleDriverError(Exception):
    """More than one (0,1,UNDEF) assignment reached one signal in a cycle.

    This is the runtime half of the "burning transistors" protection; the
    simulator converts it into a
    :class:`~repro.lang.errors.SimulationError` with a source location.
    """

    def __init__(self, values: Sequence[Logic]):
        super().__init__(
            "signal driven by multiple values in one cycle: "
            + ", ".join(str(v) for v in values)
        )
        self.values = list(values)


def resolve(contributions: Iterable[Logic], *, strict: bool = True) -> Logic:
    """Resolve the simultaneous contributions to one (multiplex) signal.

    * all NOINFL -> NOINFL;
    * exactly one driving value -> that value;
    * two or more driving values -> UNDEF, and -- when *strict* -- a
      :class:`MultipleDriverError` (the section-8 rule: "if x is assigned
      several times 0, 1 or UNDEF at runtime then x has value UNDEF and an
      error message is given").
    """
    driving = [v for v in contributions if v is not Logic.NOINFL]
    if not driving:
        return Logic.NOINFL
    if len(driving) == 1:
        return driving[0]
    if strict:
        raise MultipleDriverError(driving)
    return Logic.UNDEF


# ---------------------------------------------------------------------------
# Predefined function components (section 8 firing rules).
#
# Each n-ary gate has two layers of behaviour:
#   * `partial` semantics used during firing: given the values known so
#     far (None for unknown), return the output if it is already
#     determined, else None;
#   * strict full evaluation once all inputs are known.
# The simulator feeds only *boolean-converted* values to gates: a NOINFL
# arriving at a gate input has been amplified to UNDEF beforehand.
# ---------------------------------------------------------------------------


def and_gate(inputs: Sequence[Logic | None]) -> Logic | None:
    """AND: fires 0 as soon as one input is 0; 1 iff all are 1."""
    if any(v is Logic.ZERO for v in inputs):
        return Logic.ZERO
    if any(v is None for v in inputs):
        return None
    if all(v is Logic.ONE for v in inputs):
        return Logic.ONE
    return Logic.UNDEF


def or_gate(inputs: Sequence[Logic | None]) -> Logic | None:
    """OR: fires 1 as soon as one input is 1; 0 iff all are 0."""
    if any(v is Logic.ONE for v in inputs):
        return Logic.ONE
    if any(v is None for v in inputs):
        return None
    if all(v is Logic.ZERO for v in inputs):
        return Logic.ZERO
    return Logic.UNDEF


def nand_gate(inputs: Sequence[Logic | None]) -> Logic | None:
    out = and_gate(inputs)
    return None if out is None else not_gate(out)


def nor_gate(inputs: Sequence[Logic | None]) -> Logic | None:
    out = or_gate(inputs)
    return None if out is None else not_gate(out)


def xor_gate(inputs: Sequence[Logic | None]) -> Logic | None:
    """XOR: needs all inputs defined (section 8); no short-circuit."""
    if any(v is None for v in inputs):
        return None
    if all(v is not None and v.is_defined for v in inputs):
        ones = sum(1 for v in inputs if v is Logic.ONE)
        return Logic.ONE if ones % 2 == 1 else Logic.ZERO
    return Logic.UNDEF


def equal_gate(inputs: Sequence[Logic | None]) -> Logic | None:
    """EQUAL on one bit position: 1 iff all defined and equal.

    Fires ZERO as soon as two defined, differing values are present —
    the comparison is settled no matter what the remaining (unfired or
    undefined) inputs turn out to be (section-8 firing rules).
    """
    first: Logic | None = None
    unknown = undef = False
    for v in inputs:
        if v is None:
            unknown = True
        elif not v.is_defined:
            undef = True
        elif first is None:
            first = v
        elif v is not first:
            return Logic.ZERO
    if unknown:
        return None
    return Logic.UNDEF if undef else Logic.ONE


def not_gate(value: Logic | None) -> Logic | None:
    if value is None:
        return None
    if value is Logic.ZERO:
        return Logic.ONE
    if value is Logic.ONE:
        return Logic.ZERO
    return Logic.UNDEF


def equal_bus_gate(inputs: Sequence[Logic | None]) -> Logic | None:
    """EQUAL as instantiated in a netlist: ``EQUAL(a, b)`` where the
    input list is the concatenation of the two operand buses (first
    half vs. second half, positionally paired).

    A single position with two defined, differing values settles the
    comparison to ZERO no matter what the other (possibly unfired or
    undefined) positions hold — the section-8 firing rule.  This is the
    one table both the simulator and the formal solver evaluate EQUAL
    through, so they cannot drift apart (:mod:`repro.formal.solver`
    cross-checks every op against these functions).
    """
    half = len(inputs) // 2
    unknown = undef = False
    for x, y in zip(inputs[:half], inputs[half:]):
        if x is None or y is None:
            unknown = True
        elif x.is_defined and y.is_defined:
            if x is not y:
                return Logic.ZERO
        else:
            undef = True
    if unknown:
        return None
    return Logic.UNDEF if undef else Logic.ONE


#: Gate evaluators keyed by the predefined component name.  Every entry
#: maps a sequence of per-bit input values (None = not yet fired) to an
#: output value or None (cannot fire yet).
GATE_FUNCTIONS = {
    "AND": and_gate,
    "OR": or_gate,
    "NAND": nand_gate,
    "NOR": nor_gate,
    "XOR": xor_gate,
    "EQUAL": equal_gate,
    "NOT": lambda inputs: not_gate(inputs[0]),
}

#: Gate evaluators as wired by the elaborator: identical to
#: :data:`GATE_FUNCTIONS` except EQUAL, which a netlist instantiates as
#: one comparator over two concatenated operand buses rather than one
#: per-position comparator.  The simulator and the formal solver both
#: evaluate through this table (the single-source-of-truth for gate
#: semantics); RANDOM is the one op not here because it has no function
#: semantics.
NETLIST_GATE_FUNCTIONS = dict(GATE_FUNCTIONS)
NETLIST_GATE_FUNCTIONS["EQUAL"] = equal_bus_gate


def bits_of(value: int, width: int) -> list[Logic]:
    """``BIN(value, width)``: number to bits, index 1 = least significant.

    The paper's examples (``ten = BIN(10,5)`` added to 5-bit scores with a
    ripple adder whose stage 1 consumes bit 1 and carries upward) fix the
    convention: element 1 of the resulting ARRAY[1..width] is the LSB.
    """
    if width < 0:
        raise ValueError("BIN width must be non-negative")
    if value < 0:
        raise ValueError("BIN value must be non-negative")
    if value >= 1 << width:
        raise ValueError(f"BIN({value}, {width}): value does not fit")
    levels = _LEVELS
    return [levels[(value >> i) & 1] for i in range(width)]


_LEVELS = (Logic.ZERO, Logic.ONE)


def num_of(bits: Sequence[Logic]) -> int | None:
    """``NUM(signal)``: bits to number; None when any bit is not defined."""
    total = 0
    for i, bit in enumerate(bits):
        if not bit.is_defined:
            return None
        if bit is Logic.ONE:
            total |= 1 << i
    return total
