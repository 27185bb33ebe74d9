"""Analytic cycle-cost model for bit-serial in-cache operations.

Two presets exist (see DESIGN.md section 5):

* :meth:`CycleCosts.derived` — closed forms that exactly match the cycle
  counts of the algorithms implemented in
  :class:`repro.engine.bitserial.FleetBitSerialUnit` (and so in its
  one-array view :class:`repro.sram.bitserial.BitSerialUnit`). Tests
  assert functional execution and these formulas agree bit-for-bit.
* :meth:`CycleCosts.paper` — the formulas the paper states (Sec. III:
  addition ``n+1``, multiplication ``n^2+5n-2``, division ``1.5n^2+5.5n``)
  plus the two constants its Sec. VI-A worked example implies (236 cycles
  per 8-bit MAC, 660 cycles for a 128-way channel reduction). The analytic
  simulator defaults to this preset so reproduced figures use the paper's
  own deterministic model.

Cost conventions shared by both presets:

* Latch resets (carry/tag clear) happen during instruction issue and are
  free.
* A *move* relocates one wordline of an operand (optionally shifted across
  bitlines through the column mux / sense-amp cycling of Sec. III-D);
  ``move_cycles_per_bit`` charges 1 (derived) or 2 (paper) cycles per bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import SimulationError


@dataclass(frozen=True)
class CycleCosts:
    """Cycle costs of bit-serial primitives on one SRAM array.

    All methods return integer cycle counts for operating on *every bitline
    of the array simultaneously* — the whole point of the architecture is
    that these costs are independent of how many elements (up to 256 per
    array) participate.
    """

    #: Human-readable preset name ("derived" or "paper").
    mode: str = "derived"
    #: Cycles charged per wordline moved during reductions.
    move_cycles_per_bit: int = 1
    #: Fixed-cost overrides, e.g. the paper's 236-cycle 8-bit MAC.
    mac_overrides: dict[int, int] = field(default_factory=dict)
    #: Fixed-cost overrides for (elements, width) reductions.
    reduction_overrides: dict[tuple[int, int], int] = field(
        default_factory=dict)
    #: Use the paper's op formulas instead of the derived ones.
    use_paper_formulas: bool = False
    #: Reduce over the full array width regardless of the live channel
    #: count. The paper's Sec. VI-A example charges ~660 reduction cycles
    #: for both a 32-channel and a 128-channel case, which matches a fixed
    #: 8-step (256-bitline) tree at 2 cycles/bit moves (668 cycles) — the
    #: reduction instruction is array-wide; groups only select which
    #: column's result is meaningful.
    full_array_reduction: bool = False

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def derived(cls) -> "CycleCosts":
        """Costs that exactly match the functional simulator's algorithms."""
        return cls(mode="derived")

    @classmethod
    def paper(cls) -> "CycleCosts":
        """The paper's stated formulas and worked-example constants."""
        return cls(
            mode="paper",
            move_cycles_per_bit=2,
            mac_overrides={8: 236},
            reduction_overrides={(128, 24): 660},
            use_paper_formulas=True,
            full_array_reduction=True,
        )

    # ------------------------------------------------------------------
    # Primitive ops
    # ------------------------------------------------------------------
    def copy(self, nbits: int) -> int:
        """Copy an ``nbits`` operand to another wordline region: 1 cycle/bit."""
        self._check(nbits)
        return nbits

    def const_write(self, nbits: int) -> int:
        """Write a constant (e.g. bulk zero) into ``nbits`` wordlines."""
        self._check(nbits)
        return nbits

    def add(self, nbits: int) -> int:
        """Element-wise addition of two ``nbits`` operands: ``n + 1``.

        ``n`` full-adder cycles plus one final cycle that stores the carry
        (Sec. III-B).
        """
        self._check(nbits)
        return nbits + 1

    def add_into(self, acc_bits: int) -> int:
        """Accumulate a shorter operand into an ``acc_bits`` accumulator.

        The carry must ripple through the full accumulator width, so the
        cost is one cycle per accumulator bit, with no final carry store
        (the accumulator is sized to never overflow).
        """
        self._check(acc_bits)
        return acc_bits

    def complement_copy(self, nbits: int) -> int:
        """Copy the bitwise complement of an operand (free via the BLB rail)."""
        self._check(nbits)
        return nbits

    def sub(self, nbits: int) -> int:
        """Subtraction ``a - b`` with a stored *not-borrow* flag.

        The two sensed rails are symmetric in A and B, so ``A AND (NOT B)``
        cannot be formed in one activation; the derived algorithm first
        complement-copies ``b`` (``n`` cycles, using the BLB rail), then adds
        with carry-in 1 (``n``) and stores the not-borrow (``1``):
        ``2n + 1`` total. The paper preset assumes single-cycle inverted-
        operand sensing and charges ``n + 1`` like addition.
        """
        self._check(nbits)
        if self.use_paper_formulas:
            return nbits + 1
        return 2 * nbits + 1

    def multiply(self, nbits: int) -> int:
        """Predicated shift-add multiplication of two ``nbits`` operands.

        Paper formula: ``n^2 + 5n - 2``. Derived formula (the algorithm in
        :meth:`FleetBitSerialUnit.multiply`): ``n^2 + 4n - 1`` — the product
        region is zeroed (``2n``), the first multiplier bit does a tag load plus
        predicated copy (``1 + n``), and each remaining bit does a tag load,
        an ``n``-bit predicated add and a predicated carry store
        (``(n-1)(n+2)``).
        """
        self._check(nbits)
        if self.use_paper_formulas:
            return nbits * nbits + 5 * nbits - 2
        return nbits * nbits + 4 * nbits - 1

    def divide(self, nbits: int) -> int:
        """Restoring bit-serial division.

        Paper formula: ``1.5 n^2 + 5.5 n`` (always an integer). Derived
        formula for the restoring algorithm we implement:
        ``3 n^2 + 8 n + 1`` (per quotient bit: remainder shift ``n``,
        insert dividend bit ``1``, subtract ``n + 2``, tag load ``1``,
        predicated restore ``n + 1`` and quotient-bit write ``1``; plus
        zeroing the remainder ``n + 1`` and one divisor complement-copy
        ``n``; see DESIGN.md section 5).
        """
        self._check(nbits)
        if self.use_paper_formulas:
            value = 1.5 * nbits * nbits + 5.5 * nbits
            return int(round(value))
        return 3 * nbits * nbits + 8 * nbits + 1

    def sub_into(self, nbits: int) -> int:
        """In-place two's complement subtraction ``acc -= b``.

        Complement-copy plus a full-width carry-in-1 add; no borrow store.
        """
        self._check(nbits)
        if self.use_paper_formulas:
            return nbits
        return 2 * nbits

    def tag_load(self) -> int:
        """Latch one wordline into the tag latches: 1 cycle."""
        return 1

    def carry_store(self) -> int:
        """Write the carry latches back into a wordline: 1 cycle."""
        return 1

    # ------------------------------------------------------------------
    # Compute Cache heritage ops (Sec. II-B)
    # ------------------------------------------------------------------
    def logical(self, nbits: int) -> int:
        """AND / NOR / XOR of two operands: one cycle per bit pair."""
        self._check(nbits)
        return nbits

    def logical_or(self, nbits: int) -> int:
        """OR = NOR + complement write-back: ``2n``."""
        self._check(nbits)
        return 2 * nbits

    def equality_compare(self, nbits: int) -> int:
        """Per-column equality flag: ``n`` XOR cycles + 1 tag store."""
        self._check(nbits)
        return nbits + 1

    def search(self, nbits: int) -> int:
        """Key search across all columns: ``n`` cycles + 1 tag store."""
        self._check(nbits)
        return nbits + 1

    # ------------------------------------------------------------------
    # Composite ops
    # ------------------------------------------------------------------
    def mac(self, nbits: int, acc_bits: int) -> int:
        """Multiply two ``nbits`` operands and accumulate into ``acc_bits``.

        The paper's Sec. VI-A example implies 236 cycles for the 8-bit MAC
        with a 3-byte partial sum; the paper preset pins that value. The
        derived cost is ``multiply(n) + add_into(acc)``.
        """
        self._check(nbits)
        self._check(acc_bits)
        override = self.mac_overrides.get(nbits)
        if override is not None:
            return override
        return self.multiply(nbits) + self.add_into(acc_bits)

    def move(self, nbits: int) -> int:
        """Move ``nbits`` wordlines (optionally shifted across bitlines)."""
        self._check(nbits)
        return nbits * self.move_cycles_per_bit

    def reduction(self, elements: int, width: int) -> int:
        """Tree-reduce ``elements`` partial sums of ``width`` bits.

        ``log2(elements)`` steps; step ``s`` moves the right half of each
        group under the left half (``width + s`` wordlines) and adds
        (``width + s + 1`` cycles). Matches Sec. III-D. ``elements`` must be
        a power of two (the mapper pads channels to powers of two).
        """
        if elements <= 0:
            raise SimulationError(
                f"reduction needs at least one element, got {elements}")
        self._check(width)
        if elements & (elements - 1):
            raise SimulationError(
                f"reduction expects a power-of-two element count, got "
                f"{elements}; the mapper pads channels before reducing")
        override = self.reduction_overrides.get((elements, width))
        if override is not None:
            return override
        steps = int(math.log2(elements))
        total = 0
        for step in range(steps):
            bits = width + step
            total += self.move(bits) + self.add(bits)
        return total

    def max_update(self, nbits: int) -> int:
        """Fold one candidate into a running maximum (Sec. IV-D).

        Subtract (cost per preset, including the stored not-borrow), load
        the tag from the not-borrow row (1), then predicated-copy the
        candidate over the maximum (``n``).
        """
        self._check(nbits)
        return self.sub(nbits) + 1 + nbits

    def min_update(self, nbits: int) -> int:
        """Same data path as :meth:`max_update` with the tag inverted."""
        return self.max_update(nbits)

    def relu(self, nbits: int) -> int:
        """ReLU: tag from the sign row, then predicated zero-fill: ``n + 1``."""
        self._check(nbits)
        return 1 + nbits

    def selective_copy(self, nbits: int) -> int:
        """Tag load plus predicated copy of ``nbits`` wordlines."""
        self._check(nbits)
        return 1 + nbits

    # ------------------------------------------------------------------
    def _check(self, nbits: int) -> None:
        if nbits <= 0:
            raise SimulationError(f"bit width must be positive, got {nbits}")
