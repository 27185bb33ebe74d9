"""Extract the bit-serial programs of a registered model's layers.

Bit-serial sequences are data-independent — the cycles and the
read/write structure of a layer's program depend only on the mapping
(shapes, bit widths, geometry), never on activation values. Running one
deterministic image through the functional executor under the recorder
therefore yields each layer's *canonical* program, which is exactly what
the static verifier checks.

Models whose functional execution is out of scope (e.g. Inception-v3's
multi-array filter mappings exceed the functional engine's bounds) are
reported as skipped with the engine's reason rather than failed — the
analytic model still covers them, there is just no program to lift.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ReproError
from repro.nn.models import model_zoo, model_zoo_configs
from repro.verify.facts import ProgramFacts
from repro.verify.recorder import record_programs

__all__ = ["ModelPrograms", "extract_model_programs", "registered_models"]


@dataclass(frozen=True)
class ModelPrograms:
    """The lifted per-layer programs of one model, or the skip reason."""

    model: str
    programs: tuple[ProgramFacts, ...] = ()
    skipped: str | None = None


def _networks() -> dict[str, object]:
    """Every checkable network: the zoo plus the tiny verification net.

    The tiny conv+maxpool network is the one guaranteed-extractable
    program source (full-scale zoo layers can exceed the functional
    engine's bounds), and the only zoo-independent MaxPool coverage.
    """
    from repro.engine.backend import tiny_verification_network

    networks: dict[str, object] = dict(model_zoo())
    networks["tiny-verification"] = tiny_verification_network()
    return networks


def registered_models() -> list[str]:
    """Names of every checkable model, in registration order."""
    return list(_networks())


def extract_model_programs(name: str) -> ModelPrograms:
    """Record one functional inference of model ``name`` and lift it.

    Returns a :class:`ModelPrograms` with one
    :class:`~repro.verify.facts.ProgramFacts` per (layer, fleet) —
    chunked layers contribute one program per fleet, labelled with the
    layer name (a conv fleet may stack several skip-equivalent chunks).
    """
    from repro.core.functional import FunctionalExecutor
    from repro.engine.backend import FleetExecutor, deterministic_images

    network = _networks()[name]
    # Models with a companion configuration (e.g. inception-span's
    # spanning geometry) record under it, so the lifted programs cover
    # the mapping the model exists to exercise.
    config = model_zoo_configs().get(name)
    backend = FleetExecutor(config=config, verify=False)
    weights = backend.weights_for(network)
    image = deterministic_images(network, weights, backend.seed, 1)[0]

    executor = FunctionalExecutor(network, weights, config=config,
                                  packed=True)
    original_run_node = executor._run_node

    with record_programs() as recorder:
        def labelled_run_node(node, inputs):  # noqa: ANN001 - mirror target
            recorder.annotate(node.name)
            return original_run_node(node, inputs)

        executor._run_node = labelled_run_node  # type: ignore[method-assign]
        try:
            executor.run(image)
        except ReproError as exc:
            return ModelPrograms(model=name,
                                 skipped=f"{type(exc).__name__}: {exc}")
        finally:
            executor._run_node = original_run_node  # type: ignore[method-assign]

    return ModelPrograms(model=name, programs=tuple(recorder.programs()))
