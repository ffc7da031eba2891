"""The four CLI sweep workloads and the prediction table.

The inputs are the acceptance and README inputs, so they are fixed; the
pinned sha256 of each report is the correctness oracle. Why each workload
was chosen is in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    sha256: str  # of the report bytes on stdout
    items: int  # sweep items one run processes
    item: str
    setup: str  # builds the map, family or S-set through the public constructors
    idle: tuple[str, ...]  # layers that must record zero calls


WORKLOADS = {
    "q_wander": Workload(
        argv=("nmax", "--map", "pell(2)", "--s", "", "--b", "100",
              "--height-budget-bits", "10000", "--workers", "1"),
        sha256="80918401cf24ab847174cf9d6e95e16f10b1c1117b0993ea3b32c048d86d97a0",
        items=12176,
        item="basepoints",
        setup=("from dynctl.parsing import parse_map, resolve_map_text\n"
               "from dynctl.points import SIntSpec\n"
               "parse_map(resolve_map_text('pell(2)')).to_rational_map()\n"
               "SIntSpec()\n"),
        idle=("families", "funcfield"),
    ),
    "q_box": Workload(
        argv=("avg3", "--n1", "6", "--n2", "6", "--n3", "6", "--b", "5,10",
              "--height-budget-bits", "10000", "--workers", "1"),
        sha256="61619a7596b111c86365baa6ab5f0bbe0d3e22d9bdca7e50c464ee8d0233fea6",
        items=9261,
        item="triples",
        setup=("from dynctl.families import three_param_family\n"
               "from dynctl.points import EMPTY_S\n"
               "three_param_family()\n"),
        idle=("canonical", "funcfield", "parsing"),
    ),
    "ff_sweep": Workload(
        argv=("ffavg", "--p", "2", "--d", "2", "--beta-coeffs", "0,0,0,0,1", "--s", "",
              "--b", "1,2,3,4"),
        sha256="c9a68347fc771dc749766e547eee64dcb7fa39217920f4d711493e3cc0c075eb",
        items=510,
        item="f values",
        setup=("from dynctl.funcfield import FFPoly, FFRat, ff_family_map, validate_s_set\n"
               "validate_s_set([])\n"
               "ff_family_map(2, FFRat.from_poly(FFPoly.t_var(2)))\n"),
        # Not idle: points (is_prime on p), polynomials (the generic Bareiss
        # resultant builds every F_p(t) map) and parallel (argument parsing
        # calls default_workers).
        idle=("canonical", "maps", "families", "orbits", "parsing"),
    ),
    "q_density": Workload(
        argv=("density", "--map", "(x-1)/(x^3+1)", "--s", "", "--b", "100,200,400",
              "--workers", "2"),
        sha256="2aee719860330aa106f0d0873cdc0ae1e7569593de8a44c24e9a40514117e039",
        items=194712,
        item="points",
        setup=("from dynctl.parsing import parse_map\n"
               "from dynctl.points import SIntSpec\n"
               "parse_map('(x-1)/(x^3+1)').to_rational_map()\n"
               "SIntSpec()\n"),
        idle=("canonical", "families", "funcfield"),
    ),
}

# Prediction table: per-layer metrics -> the end-to-end metrics they should
# move -> the workloads on which they should move them. After every traced
# run, each layer named here for the workload must record at least one call.
PREDICTIONS = (
    (("canonical.is_preperiodic_calls", "canonical.is_preperiodic_s",
      "canonical.wandering_frac", "canonical.cofactor_solves_per_map"),
     ("wall_s",), ("q_wander",)),
    (("maps.cofactors_calls", "maps.cofactors_s",
      "polynomials.solve_exact_calls", "polynomials.solve_exact_s"),
     ("wall_s",), ("q_wander",)),
    (("maps.evaluate_calls", "maps.evaluate_s", "maps.peak_coord_bits"),
     ("wall_s",), ("q_box", "q_density", "q_wander")),
    (("families.specialize_calls", "families.specialize_s", "maps.make_map_calls",
      "maps.make_map_s", "polynomials.resultant_calls", "polynomials.resultant_s"),
     ("wall_s", "items_per_s"), ("q_box",)),
    (("orbits.scan_calls", "orbits.scan_s", "orbits.completed",
      "orbits.truncated_height_budget", "orbits.truncated_iteration_cap"),
     ("wall_s",), ("q_box", "q_wander")),
    (("orbits.density_s", "points.enumerate_s", "points.enumerated"),
     ("wall_s", "peak_rss_mb"), ("q_density",)),
    (("parallel.map_s", "parallel.tasks", "parallel.worker_busy_s",
      "parallel.overhead_frac"),
     ("wall_s", "cpu_s"), ("q_density",)),
    (("funcfield.mul_calls", "funcfield.mul_s", "funcfield.divmod_calls",
      "funcfield.divmod_s", "funcfield.gcd_calls", "funcfield.gcd_s",
      "funcfield.evaluate_ff_s", "funcfield.scan_s", "funcfield.enumerate_s"),
     ("wall_s",), ("ff_sweep",)),
    (("parsing.parse_s",), ("setup_s",), ("q_wander", "q_density")),
    (("reports.emit_s", "cli.main_s"), ("wall_s",),
     ("q_wander", "q_box", "ff_sweep", "q_density")),
)


def named_layers(workload: str) -> set[str]:
    """Layers the prediction table names for a workload."""
    return {metric.partition(".")[0]
            for metrics, _, workloads in PREDICTIONS if workload in workloads
            for metric in metrics}


def check_predictions(workload: str, layer_calls: dict[str, int]) -> list[str]:
    """Violations of the prediction table for one traced run (empty when it holds)."""
    problems = []
    for layer in sorted(named_layers(workload)):
        if layer_calls.get(layer, 0) < 1:
            problems.append(f"{layer}: named for {workload} but recorded no calls")
    for layer in WORKLOADS[workload].idle:
        if layer_calls.get(layer, 0) != 0:
            problems.append(f"{layer}: idle on {workload} but recorded "
                            f"{layer_calls[layer]} calls")
    return problems
