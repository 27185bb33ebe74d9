"""Neural Cache analytic simulator: whole-model latency, energy, batching.

This is the reproduction of the paper's "cycle-accurate simulator based on
the deterministic computation model discussed in Section IV": every layer
is mapped (Sec. IV-A/B), scheduled (Sec. IV-C/D), and the phase times and
energies aggregate into the quantities the evaluation section reports —
per-layer latency (Fig. 13), the execution breakdown (Fig. 14), total
latency (Fig. 15), throughput vs batch size (Fig. 16), energy and power
(Table III) and cache-capacity scaling (Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.common.errors import SimulationError
from repro.config import NeuralCacheConfig
from repro.core.mapping import LayerMapping, map_node
from repro.core.schedule import LayerSchedule, PhaseBreakdown, schedule_layer
from repro.nn.graph import Network


@dataclass(frozen=True)
class LayerResult:
    """One layer's schedule plus its Table-I group for reporting."""

    name: str
    group: str
    schedule: LayerSchedule

    @property
    def latency(self) -> float:
        return self.schedule.latency


@dataclass(frozen=True)
class InferenceResult:
    """Aggregate results of simulating one batch."""

    layers: tuple[LayerResult, ...]
    batch_size: int
    spill_time: float          # DRAM dumps when batched outputs overflow
    spill_energy: float

    @property
    def total_time(self) -> float:
        """Wall-clock seconds for the whole batch on one socket."""
        return sum(r.latency for r in self.layers) + self.spill_time

    @property
    def latency_per_image(self) -> float:
        return self.total_time / self.batch_size

    @property
    def total_energy(self) -> float:
        return (sum(r.schedule.total_energy for r in self.layers)
                + self.spill_energy)

    @property
    def energy_per_image(self) -> float:
        return self.total_energy / self.batch_size

    @property
    def average_power(self) -> float:
        """Watts while the batch executes."""
        total = self.total_time
        if total <= 0:
            raise SimulationError("cannot compute power for zero time")
        return self.total_energy / total

    def breakdown(self) -> PhaseBreakdown:
        """Phase times summed over layers (Figure 14)."""
        total = PhaseBreakdown()
        for result in self.layers:
            total = total + result.schedule.time
        return total

    def group_latency(self) -> dict[str, float]:
        """Per-Table-I-group latency in network order (Figure 13)."""
        out: dict[str, float] = {}
        for result in self.layers:
            out[result.group] = out.get(result.group, 0.0) + result.latency
        return out

    def group_breakdown(self) -> dict[str, PhaseBreakdown]:
        """Per-group phase breakdowns."""
        out: dict[str, PhaseBreakdown] = {}
        for result in self.layers:
            current = out.get(result.group, PhaseBreakdown())
            out[result.group] = current + result.schedule.time
        return out


class NeuralCacheSimulator:
    """Maps and schedules a network on a Neural Cache configuration.

    Construction maps every layer. The first :meth:`run` or
    :meth:`throughput` schedules each mapped layer once at batch 1;
    every batch size after that re-weights those cached schedules.
    """

    def __init__(self, network: Network,
                 config: NeuralCacheConfig | None = None):
        self.network = network
        self.config = config if config is not None else NeuralCacheConfig()
        self._mappings: list[tuple[str, str, LayerMapping]] = []
        for node in network.layer_nodes():
            mapping = map_node(self.config, network, node)
            if mapping is None:
                continue
            self._mappings.append((node.name, node.group, mapping))
        if not self._mappings:
            raise SimulationError("network has no mappable layers")

    # ------------------------------------------------------------------
    @property
    def mappings(self) -> list[LayerMapping]:
        return [mapping for _, _, mapping in self._mappings]

    def mapping_for(self, name: str) -> LayerMapping:
        for node_name, _, mapping in self._mappings:
            if node_name == name:
                return mapping
        raise SimulationError(f"no mapping for layer {name!r}")

    # ------------------------------------------------------------------
    @cached_property
    def _schedules(self) -> tuple[LayerSchedule, ...]:
        """Each mapped layer's batch-1 schedule, built on first use.

        Only the first mapped layer streams its input from DRAM.
        """
        return tuple(
            schedule_layer(self.config, mapping, input_from_dram=index == 0)
            for index, (_, _, mapping) in enumerate(self._mappings))

    def run(self, batch_size: int = 1) -> InferenceResult:
        """Simulate one batch (filters loaded once per layer, Sec. IV-E).

        No layer is rescheduled: a batch re-weights each cached batch-1
        schedule. Filters stay resident, so ``filter_load`` is charged
        once, and every other phase repeats per image.
        """
        if batch_size <= 0:
            raise SimulationError(
                f"batch size must be positive, got {batch_size}")
        results = []
        spill_time = 0.0
        spill_energy = 0.0
        buffer_bytes = self.config.output_buffer_bytes
        dram = self.config.dram
        for (name, group, mapping), schedule in zip(self._mappings,
                                                    self._schedules):
            if batch_size > 1:
                schedule = LayerSchedule(
                    mapping=mapping,
                    time=_batched(schedule.time, batch_size),
                    energy=_batched(schedule.energy, batch_size),
                    compute_cycles_per_pass=schedule.compute_cycles_per_pass)
                # Heavy layers overflow the reserved way and dump to DRAM
                # (Sec. IV-E: "the first five require dumping").
                overflow = batch_size * mapping.output_bytes - buffer_bytes
                if overflow > 0:
                    spilled = 2.0 * overflow  # dump + reload
                    spill_time += dram.transfer_time(spilled)
                    spill_energy += dram.transfer_energy(spilled)
            results.append(LayerResult(name=name, group=group,
                                       schedule=schedule))
        return InferenceResult(layers=tuple(results), batch_size=batch_size,
                               spill_time=spill_time,
                               spill_energy=spill_energy)

    def throughput(self, batch_size: int = 1) -> float:
        """Inferences per second for the node (Sec. VI-B, Fig. 16).

        Neural Cache scales linearly with host CPUs; a dual-socket node
        runs two independent caches. Every batch size goes through
        :meth:`run`, so it re-weights the same cached schedules.
        """
        result = self.run(batch_size)
        return self.config.sockets * batch_size / result.total_time

    def latency(self, batch_size: int = 1) -> float:
        """Seconds for one batch on one socket."""
        return self.run(batch_size).total_time


def _batched(per_image: PhaseBreakdown, batch_size: int) -> PhaseBreakdown:
    """A batch's phases: ``filter_load`` once, every other phase per image."""
    return PhaseBreakdown(
        filter_load=per_image.filter_load,
        input_stream=per_image.input_stream * batch_size,
        mac=per_image.mac * batch_size,
        reduction=per_image.reduction * batch_size,
        quantization=per_image.quantization * batch_size,
        pooling=per_image.pooling * batch_size,
        output_move=per_image.output_move * batch_size)


def simulate_inference(network: Network,
                       config: NeuralCacheConfig | None = None,
                       batch_size: int = 1) -> InferenceResult:
    """One-call convenience wrapper."""
    return NeuralCacheSimulator(network, config).run(batch_size)
