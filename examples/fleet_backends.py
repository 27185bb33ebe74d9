"""One Backend API, three engines: analytic, vectorized fleet, sharded.

Every execution engine in the reproduction sits behind
``Backend.run(network, batch_size)``:

* the *analytic* backend runs the paper's deterministic latency/energy
  model on Inception v3 (Fig. 13-16 scale);
* the *fleet-packed* backend executes a verification-scale network bit
  by bit on the packed plane store
  (:class:`~repro.engine.packed.PackedArrayFleet`, one bit-column per
  word bit, words sized to the array width) — every bit-serial cycle
  runs on all arrays of the layer at once — and checks each output
  against the golden NumPy executor;
* the *sharded* backend splits the batch round-robin across socket
  shards (Sec. VI-B's multi-socket node), each shard a fleet executor on
  its own packed plane store, and aggregates per-shard cycle reports —
  bit-exact and cycle-identical to the unsharded run.

The functional backends fold the whole batch into the fleet's array
axis: one fleet pass per layer computes every image, with outputs and
merged cycle reports identical to one ``run_requests`` call per image —
batching changes wall-clock, not modeled cycles.

The unpacked byte-per-bit :class:`~repro.engine.fleet.ArrayFleet` is
the test and debug reference; it has no registry name, and the last
section below builds it explicitly.

Run:  python examples/fleet_backends.py
"""

from repro import ShardedBackend, get_backend
from repro.core.functional import CycleReport
from repro.engine import (
    ArrayFleet,
    FleetBitSerialUnit,
    Operand,
    PackedArrayFleet,
)
from repro.engine.backend import available_backends, deterministic_images


def main() -> None:
    # -- the engines through the one protocol -----------------------------
    for name in available_backends():
        backend = get_backend(name)
        result = backend.run(backend.default_network(), batch_size=2)
        print(result.summary())
        print()

    # -- sharding is lossless: any shard count, same answer ---------------
    fleet_packed = get_backend("fleet-packed")
    net = fleet_packed.default_network()
    reference = fleet_packed.run(net, batch_size=5)
    for shards in (2, 3):        # divides the batch and does not
        sharded = ShardedBackend(shards=shards).run(net, batch_size=5)
        assert sharded.report == reference.report
        per_shard = [s.report.total for s in sharded.shard_reports]
        print(f"{shards} shards over batch 5: per-shard cycles "
              f"{per_shard}, aggregate {sharded.report.total} == "
              f"unsharded {reference.report.total}")
    print()

    # -- batch-in-fleet execution is invisible except in wall-clock -------
    weights = fleet_packed.weights_for(net)
    images = deterministic_images(net, weights, fleet_packed.seed, 5)
    batched = fleet_packed.run_requests(net, images)
    per_image = [fleet_packed.run_requests(net, [image])
                 for image in images]
    merged = CycleReport()
    for one, response in zip(per_image, batched.responses):
        assert (one.responses[0].data == response.data).all()
        merged = merged.merged(one.report)
    assert merged == batched.report == reference.report
    print(f"one run_requests call vs one per image over batch 5: "
          f"identical outputs and {reference.report.total} compute "
          f"cycles either way")
    print()

    # -- the fleet primitive underneath ------------------------------------
    # 4 arrays x 256 bitlines = 1024 bit-serial ALU lanes; one multiply
    # sequence executes on all of them in the cycles of a single array.
    unit = FleetBitSerialUnit(ArrayFleet(n_arrays=4))
    a, b = Operand(0, 8), Operand(8, 8)
    product = Operand(16, 16)
    unit.write_values(a, 23)
    unit.write_values(b, 11)
    unit.multiply(a, b, product)
    values = unit.read_values(product)      # (n_arrays, cols)
    assert (values == 253).all()
    print(f"fleet multiply: {values.size} lanes x (23 * 11) in "
          f"{unit.cycles} lockstep cycles "
          f"({unit.fleet.compute_cycles} array compute cycles)")

    # -- the packed store runs the same sequence on packed word planes ----
    packed = FleetBitSerialUnit(PackedArrayFleet(n_arrays=4))
    packed.write_values(a, 23)
    packed.write_values(b, 11)
    packed.multiply(a, b, product)
    assert (packed.read_values(product) == 253).all()
    assert packed.cycles == unit.cycles
    print(f"packed store: same result in the same {packed.cycles} cycles, "
          f"{packed.fleet.nbytes} resident bytes vs {unit.fleet.nbytes} "
          f"unpacked ({unit.fleet.nbytes // packed.fleet.nbytes}x smaller)")


if __name__ == "__main__":
    main()
