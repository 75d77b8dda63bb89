"""Write reference.txt: outcomes of the first problems of the reference seeds.

    python3 bench/reference.py

Run it from a source checkout at a commit whose outcomes are trusted.
Each problem is solved through the library; its basis must be accepted by
``is_groebner_basis`` and pass every check of a benchmark run (certificate,
residuals, physical flags, angles) before its line is written.  The
bundled problems are left out: ``tests/golden.py`` pins them.
"""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parents[1] / "src"))

from parapose import is_groebner_basis, solve_posture  # noqa: E402

import corpus  # noqa: E402
import verify  # noqa: E402

SEEDS = (*range(32), *range(101, 111))
PROBLEMS = 12  # per corpus, counted from its first problem


def main() -> int:
    lines = [
        "# workload seed problem basis-sha256-prefix physical-count angles (deg, 4 per posture)",
    ]
    for workload in sorted(corpus.WORKLOADS):
        for seed in SEEDS:
            for name, doc in islice(corpus.WORKLOADS[workload](seed), PROBLEMS):
                if name in verify.GOLDEN:
                    continue
                report = solve_posture(corpus.to_problem(doc))
                out = verify.from_report(report)
                basis = list(report.basis.elements)
                error = verify.check(name, doc, out, basis)
                if error is None and not is_groebner_basis(basis):
                    error = "is_groebner_basis rejects the basis"
                if error:
                    sys.exit(f"error: {workload} seed {seed} {name}: {error}")
                lines.append(verify.reference_line(workload, seed, name, out))
    verify.REFERENCE_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 1} references to {verify.REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
