"""Check that the working tree's ``steepen`` writes every output byte for
byte as a git revision's does.

    python tools/compare_outputs.py REV

Extracts ``src/`` at REV with ``git archive`` into a temporary directory.
Then, for both sources, with ``PYTHONDONTWRITEBYTECODE=1``, it runs
``run`` and ``certify`` on each of ``configs/*.cfg`` and ``run`` on each
perfbench workload at seeds 0 and 7 (its config rendered by
``perfbench/workloads.render_config``).  Both sides read the working
tree's configs, so only the sources differ.  Each command's exit code,
stdout and stderr are compared too.  Prints every file that differs or
exists on one side only and exits 1; exits 0 when none does.  For a file
that differs it also prints the largest absolute and relative difference
over the numbers that differ, and the first line that differs in anything
but its numbers, so that a difference in rounding shows as one.
"""

from __future__ import annotations

import filecmp
import math
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)
# a number that stands alone: not the digits of a name such as seed0 or E1
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\d.])|(?:nan|inf)\b))")

sys.dont_write_bytecode = True  # import the workloads without writing into perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, Workload, render_config  # noqa: E402


def cases():
    """``(case, command, workload, seed)`` for every run to compare."""
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        # at seed 0 with no overrides, render_config changes only output.directory
        demo = Workload(path.stem, path.name, "", "", exact_t_blow=False, t_star_check=False)
        for command in ("run", "certify"):
            yield f"configs/{path.stem}/{command}", command, demo, 0
    for workload in WORKLOADS.values():
        for seed in SEEDS:
            yield f"perfbench/{workload.name}/seed{seed}", "run", workload, seed


def extract_src(rev: str, dest: Path) -> Path:
    """Extract ``src/`` at git revision ``rev`` into ``dest``; return ``dest / "src"``."""
    dest.mkdir(parents=True)
    archive = dest / "rev.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest / "src"


def run_all(src: Path, configs: Path, out: Path) -> None:
    """Write every case's outputs, and its ``exit`` record, under ``out``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for case, command, workload, seed in cases():
        out_dir = out / case
        cfg = configs / f"{case.replace('/', '_')}.cfg"
        cfg.write_text(render_config((ROOT / "configs" / workload.config).read_text(), workload, seed,
                                     str(out_dir)))
        proc = subprocess.run([sys.executable, "-m", "steepen.cli", command, str(cfg)],
                              env=env, capture_output=True, text=True)
        out_dir.mkdir(parents=True, exist_ok=True)
        record = f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
        (out_dir / "exit").write_text(record.replace(str(out), "<out>"))


def how_it_differs(a: Path, b: Path) -> str:
    """The numbers that differ between text files ``a`` and ``b``, their
    largest absolute and relative difference, and the first line that
    differs in anything else."""
    lines_a = a.read_text("latin-1").splitlines()
    lines_b = b.read_text("latin-1").splitlines()
    changed, abs_max, rel_max, other = 0, 0.0, 0.0, None
    for i, (la, lb) in enumerate(zip(lines_a, lines_b), 1):
        if la == lb:
            continue
        parts_a, parts_b = NUMBER.split(la), NUMBER.split(lb)
        if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
            other = other or f"line {i}: {la[:120]!r} against {lb[:120]!r}"
            continue
        for va, vb in zip(map(float, parts_a[1::2]), map(float, parts_b[1::2])):
            if va == vb or (math.isnan(va) and math.isnan(vb)):
                continue
            changed += 1
            diff = abs(va - vb)
            if math.isfinite(diff):
                rel = diff / max(abs(va), abs(vb))
            else:  # a nan or an infinity on one side
                diff = rel = math.inf
            abs_max, rel_max = max(abs_max, diff), max(rel_max, rel)
    if other is None and len(lines_a) != len(lines_b):
        other = f"{len(lines_a)} lines against {len(lines_b)}"
    found = f"{changed} numbers differ, by at most {abs_max:.3g} absolute and {rel_max:.3g} relative"
    return found + (f"; other text differs, first at {other}" if other else "")


def differing(a: Path, b: Path) -> list[str]:
    """Every file under ``a`` or ``b`` that is not byte-identical on the
    other side, as a path relative to both, with why."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    found = []
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            found.append(f"{rel}: only at the revision")
        elif rel not in files_a:
            found.append(f"{rel}: only in the working tree")
        elif not filecmp.cmp(a / rel, b / rel, shallow=False):
            found.append(f"{rel}: differs: {how_it_differs(a / rel, b / rel)}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        rev_src = extract_src(argv[0], tmp / "rev")
        configs = tmp / "configs"
        shutil.copytree(ROOT / "configs", configs)  # a `file:` input resolves beside its config
        run_all(rev_src, configs, tmp / "out_rev")
        run_all(ROOT / "src", configs, tmp / "out_tree")
        found = differing(tmp / "out_rev", tmp / "out_tree")
        compared = sum(1 for p in (tmp / "out_tree").rglob("*") if p.is_file())
    for line in found:
        print(line)
    print(f"{len(found)} of {compared} files differ from {argv[0]}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
