"""Model-zoo sweep: the architecture model beyond the paper's benchmark.

Not a paper figure — it demonstrates the library generalises: every
bundled topology (including the residual network with in-cache adds) maps
and schedules, and per-MAC efficiency stays in a sane band across wildly
different shapes.
"""

from repro.core.executor import NeuralCacheSimulator
from repro.nn import model_zoo


def simulate_zoo():
    results = {}
    for name, net in model_zoo().items():
        sim = NeuralCacheSimulator(net)
        results[name] = (sim.run(), net.total_macs())
    return results


def test_model_zoo_simulation(benchmark, record):
    results = benchmark(simulate_zoo)
    assert set(results) == {"lenet5", "vgg-tiny", "resnet-tiny", "mlp",
                            "inception-span", "inception-v3"}
    for name, (result, macs) in results.items():
        assert result.total_time > 0, name
        assert result.total_energy > 0, name
    # Inception dominates everything else by orders of magnitude.
    inception_time = results["inception-v3"][0].total_time
    for name in ("lenet5", "vgg-tiny", "resnet-tiny", "mlp",
                 "inception-span"):
        assert results[name][0].total_time < inception_time / 50
    lines = ["Model zoo on the 35 MB Neural Cache",
             f"{'model':14s} {'MACs':>12s} {'latency':>12s} {'energy':>10s}"]
    for name, (result, macs) in results.items():
        lines.append(f"{name:14s} {macs:12,d} "
                     f"{result.total_time * 1e6:10.1f}us "
                     f"{result.total_energy * 1e6:8.1f}uJ")
    record("\n".join(lines))
