"""Run the golden battery through every theorem check and print the lines.

Each battery entry carries hand-assigned expected labels; the run first
verifies those labels against the definitional oracle, then exercises the
implication and equivalence checks that apply to the entry.
"""

from dinicvx import golden_battery, random_battery, run_battery

if __name__ == "__main__":
    entries = list(golden_battery()) + list(random_battery(25, seed=7))
    result = run_battery(entries, pairs=6)

    for line in result.cases:
        tag = f"[{line.theorem}]"
        detail = f"  ({line.detail})" if line.detail else ""
        print(f"{tag:<8} {line.function:<28} {line.status}{detail}")

    print(f"\ncases={len(result.cases)}  vacuous={result.n_vacuous}"
          f"  inconclusive={result.n_inconclusive}"
          f"  label_mismatches={len(result.label_mismatches)}  ok={result.ok}")
