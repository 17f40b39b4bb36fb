"""The benchmark's workloads. Each is a pure function of its name and seed:
the seed reaches the program only through the scenario file it builds.
"""

from dataclasses import dataclass, replace

from zooadapt.synthzoo import DomainTransform, reference_scenario


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kernel: str  # the `select --kernel` token

    def scenario(self, seed: int):
        return _SCENARIOS[self.name](seed)


def _large_zoo(seed: int):
    # Twelve domains interpolated linearly between the reference's first and
    # third domain, so the zoo has 144 models at the reference n=400.
    first, third = (0.15, 0.3, 0.4), (1.6, 2.5, 1.0)
    domains = [DomainTransform(*(a + (b - a) * k / 11 for a, b in zip(first, third)))
               for k in range(12)]
    return replace(reference_scenario(seed), num_domains=12,
                   domain_transforms=domains)


def _wide_target(seed: int):
    # The reference zoo at n=1000 target samples: HSIC's n x n grams and
    # all-pairs median dominate select.
    return replace(reference_scenario(seed), target_samples=1000)


_SCENARIOS = {
    "reference": reference_scenario,
    "large_zoo": _large_zoo,
    "wide_target": _wide_target,
}

WORKLOADS = {w.name: w for w in (
    Workload("reference",
             "acceptance scenario: 36 models at n=400, rbf kernel, every stage has a visible share",
             "rbf"),
    Workload("large_zoo",
             "144 models at n=400 with the linear kernel: per-model I/O, scoring, greedy trials and recycle mining dominate",
             "linear"),
)}
# Measured by record.py and kept out of BENCHMARK.json; RECORD.json holds
# its figures and pipebench/README.md the reason.
DROPPED = {w.name: w for w in (
    Workload("wide_target",
             "reference zoo at n=1000 with the rbf kernel: HSIC grams dominate select and set peak memory",
             "rbf"),
)}
