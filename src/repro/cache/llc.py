"""Last-level cache facade: coordinates, set decoding and functional arrays.

:class:`LastLevelCache` ties the static geometry to live
:class:`~repro.sram.bitserial.BitSerialUnit` instances (one-array views
of the fleet unit, one per touched array). Arrays are created
lazily — a 35 MB cache has 4480 of them, and the functional executor only
ever touches the handful a small layer maps to.

The set-address decoding mirrors the structure the paper reverse-engineered
for filter loading: a 64-byte line maps to a slice (address-interleaved),
a set within the slice, and within each way a set occupies one
2-wordline stripe of a specific array. The exact Intel hash is proprietary;
the model preserves what the architecture depends on — which sets a way's
filter image touches and how many distinct arrays that walks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.geometry import CacheGeometry, xeon_e5_2697_v3
from repro.common.errors import GeometryError
from repro.sram.array import SRAMArray
from repro.sram.bitserial import BitSerialUnit

LINE_BYTES = 64


@dataclass(frozen=True, order=True)
class ArrayCoordinate:
    """Position of one 8KB array inside the cache hierarchy."""

    slice_id: int
    way: int
    bank: int
    array: int  # index within the bank (0..arrays_per_bank-1)

    def shares_sense_amps_with(self, other: "ArrayCoordinate") -> bool:
        """True when the two arrays form one 16KB sub-array (paired SAs).

        Arrays (0, 1) and (2, 3) of a bank form the two sub-arrays.
        """
        return (self.slice_id == other.slice_id and self.way == other.way
                and self.bank == other.bank
                and self.array // 2 == other.array // 2
                and self.array != other.array)


@dataclass(frozen=True)
class SetLocation:
    """Where one cache set's line lives inside a given way."""

    coordinate: ArrayCoordinate
    row: int  # first of the two wordlines the 64-byte line occupies


class LastLevelCache:
    """Geometry + lazily instantiated functional compute arrays."""

    def __init__(self, geometry: CacheGeometry | None = None):
        self.geometry = geometry if geometry is not None else xeon_e5_2697_v3()
        self._units: dict[ArrayCoordinate, BitSerialUnit] = {}

    # -- functional arrays -----------------------------------------------------
    def unit_at(self, coordinate: ArrayCoordinate) -> BitSerialUnit:
        """The live bit-serial unit for ``coordinate`` (created on demand)."""
        self._check_coordinate(coordinate)
        unit = self._units.get(coordinate)
        if unit is None:
            unit = BitSerialUnit(SRAMArray(rows=self.geometry.array_rows,
                                           cols=self.geometry.array_cols))
            self._units[coordinate] = unit
        return unit

    @property
    def live_units(self) -> int:
        """How many arrays have been instantiated so far."""
        return len(self._units)

    def compute_coordinates(self, limit: int | None = None) -> list[ArrayCoordinate]:
        """Coordinates of compute arrays (ways 0..compute_ways-1), in
        slice-major order, optionally truncated to ``limit`` entries."""
        geometry = self.geometry
        out: list[ArrayCoordinate] = []
        for slice_id in range(geometry.slices):
            for way in range(geometry.compute_ways):
                for bank in range(geometry.banks_per_way):
                    for array in range(geometry.arrays_per_bank):
                        out.append(ArrayCoordinate(slice_id, way, bank, array))
                        if limit is not None and len(out) >= limit:
                            return out
        return out

    # -- set decoding -----------------------------------------------------------
    @property
    def sets_per_slice(self) -> int:
        """Cache sets per slice: one 64-byte line per way per set."""
        return self.geometry.way_bytes // LINE_BYTES

    @property
    def lines_per_array(self) -> int:
        """64-byte lines held by one 8KB array."""
        return self.geometry.array_bytes // LINE_BYTES

    def decode(self, address: int, way: int) -> SetLocation:
        """Map a physical address (and a way choice) to its array stripe.

        Lines interleave across slices first (the slice hash), then across
        the arrays of the way, then down the wordlines of one array — the
        pattern a sequential set walk follows during filter loading.
        """
        if address < 0:
            raise GeometryError(f"address must be non-negative, got {address}")
        if not 0 <= way < self.geometry.ways_per_slice:
            raise GeometryError(
                f"way {way} outside 0..{self.geometry.ways_per_slice - 1}")
        geometry = self.geometry
        line = address // LINE_BYTES
        slice_id = line % geometry.slices
        set_index = (line // geometry.slices) % self.sets_per_slice
        array_in_way = set_index % geometry.arrays_per_way
        stripe = set_index // geometry.arrays_per_way
        bank = array_in_way // geometry.arrays_per_bank
        array = array_in_way % geometry.arrays_per_bank
        rows_per_line = LINE_BYTES * 8 // geometry.array_cols
        return SetLocation(
            coordinate=ArrayCoordinate(slice_id, way, bank, array),
            row=stripe * rows_per_line,
        )

    def load_filter_image(self, way: int, image: np.ndarray,
                          start_address: int = 0) -> dict[ArrayCoordinate, int]:
        """Walk the sets of ``way`` writing a pre-transposed filter image.

        ``image`` is a uint8 byte stream laid out exactly as DRAM would
        hold it (Sec. IV-C: "filter weights are preprocessed to a
        transpose format and laid out in DRAM such that they map to
        correct bitlines and word-lines"). Each 64-byte line lands on the
        two wordlines its set decodes to, in the array the set decodes to
        — the same walk the paper's micro-benchmark times.

        Returns the number of lines written per array coordinate.
        """
        image = np.asarray(image, dtype=np.uint8).reshape(-1)
        if image.size % LINE_BYTES:
            padded = np.zeros(
                (image.size // LINE_BYTES + 1) * LINE_BYTES, dtype=np.uint8)
            padded[:image.size] = image
            image = padded
        touched: dict[ArrayCoordinate, int] = {}
        cols = self.geometry.array_cols
        for line_index in range(image.size // LINE_BYTES):
            address = start_address + line_index * LINE_BYTES
            location = self.decode(address, way)
            unit = self.unit_at(location.coordinate)
            line = image[line_index * LINE_BYTES:(line_index + 1) * LINE_BYTES]
            bits = np.unpackbits(line, bitorder="little").reshape(-1, cols)
            unit.array.load_bits(location.row, bits)
            touched[location.coordinate] = touched.get(location.coordinate,
                                                       0) + 1
        return touched

    def arrays_touched_by_footprint(self, nbytes: int) -> int:
        """Distinct arrays a sequential ``nbytes`` footprint walks in one way.

        Filter loading walks sets sequentially; because sets interleave
        across a way's arrays, even small footprints spread over many
        arrays — exactly why the micro-benchmark in Sec. V walks sets
        rather than bytes.
        """
        if nbytes < 0:
            raise GeometryError(f"footprint must be non-negative, got {nbytes}")
        lines = -(-nbytes // LINE_BYTES)
        sets = -(-lines // self.geometry.slices)
        return min(sets, self.geometry.arrays_per_way)

    # ------------------------------------------------------------------
    def _check_coordinate(self, coordinate: ArrayCoordinate) -> None:
        geometry = self.geometry
        if not 0 <= coordinate.slice_id < geometry.slices:
            raise GeometryError(f"slice {coordinate.slice_id} out of range")
        if not 0 <= coordinate.way < geometry.ways_per_slice:
            raise GeometryError(f"way {coordinate.way} out of range")
        if not 0 <= coordinate.bank < geometry.banks_per_way:
            raise GeometryError(f"bank {coordinate.bank} out of range")
        if not 0 <= coordinate.array < geometry.arrays_per_bank:
            raise GeometryError(f"array {coordinate.array} out of range")
