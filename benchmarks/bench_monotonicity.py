"""Section 5.4 — monotonicity analysis on evolving snapshots.

Two snapshots differing by ~5.2% added and ~1.8% deleted triples are
converted (a) from scratch with the parsimonious and non-parsimonious
models, and (b) by applying only the delta to the existing
non-parsimonious PG.  The paper reports a ~70% time reduction for the
delta-only conversion and bitwise-equivalent output.  The equivalence is
asserted; the seconds and the savings are written to the JSON artifact
and not gated, since a wall-clock ratio on shared hardware is not a
correctness property.
"""

from __future__ import annotations

from conftest import write_json_result, write_result

from repro.eval import monotonicity_experiment, render_table


def test_monotonicity(benchmark, dbpedia2022_bundle):
    """Run the Section 5.4 experiment and assert its equivalence claim."""

    def run_experiment():
        return monotonicity_experiment(dbpedia2022_bundle)

    report = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    rows = report.as_rows()
    rows.append({
        "run": "savings of delta vs full re-conversion",
        "seconds": f"{report.savings_percent:.1f}%",
    })
    write_result("monotonicity.txt", render_table(
        rows, title="Section 5.4: Monotonicity analysis"
    ))
    write_json_result(
        "monotonicity", report.as_rows(),
        savings_percent=round(report.savings_percent, 2),
        delta_matches_full=report.delta_matches_full,
        n_added=report.n_added, n_removed=report.n_removed,
    )

    # Monotonicity (Definition 3.4): the incrementally maintained PG is
    # structurally identical to a from-scratch conversion.
    assert report.delta_matches_full

    # The snapshots actually differ as configured.
    assert report.n_added > 0 and report.n_removed > 0
