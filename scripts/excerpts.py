#!/usr/bin/env python3
"""Append representative measured excerpts from results/studies.txt to
EXPERIMENTS.md. Idempotent: wipes anything after the excerpt marker first."""
import re
import sys

MARKER = "## Measured excerpts (artifacts run)"

WANTED = [
    "Table 5.1: Properties of Each Matrix",
    "Study 1 (Figs 5.1/5.2): all formats, serial kernels, Arm",
    "Study 1 (Figs 5.1/5.2): all formats, omp kernels, Arm",
    "Study 1 (Fig 5.1): all formats, gpu kernels",
    "Study 3.1: matrices per format best at 72 threads, Arm",
    "Study 3.1: matrices per format best at 72 threads, x86",
    "Study 6 (Fig 5.13): all formats serial",
    "Study 7 (Figs 5.15/5.16): cuSparse-equivalent vs offload kernels, Arm",
    "Study 8 (Figs 5.17/5.18): transposing B, csr parallel, Arm",
    "Study 9 (Fig 5.19): manual optimisations (aligned k), serial",
    "Memory study (§6.3.5): format footprints",
]


def main():
    studies = open("results/studies.txt").read()
    sections = re.split(r"^## ", studies, flags=re.M)
    picked = []
    for want in WANTED:
        for sec in sections:
            if sec.startswith(want):
                picked.append("### " + sec.rstrip() + "\n")
                break
        else:
            print(f"warning: section not found: {want}", file=sys.stderr)

    exp = open("EXPERIMENTS.md").read()
    head, _, _ = exp.partition(MARKER)
    body = (
        head
        + MARKER
        + "\n\nSee `results/studies.txt` for the full output and `results/csv/` for"
        + "\nthe raw series. Representative excerpts:\n\n"
        + "\n".join("```\n" + p + "```\n" for p in picked)
    )
    open("EXPERIMENTS.md", "w").write(body)
    print(f"inserted {len(picked)} excerpts")


if __name__ == "__main__":
    main()
