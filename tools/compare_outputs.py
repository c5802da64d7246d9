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
exists on one side only and exits 1; exits 0 when none does.
"""

from __future__ import annotations

import filecmp
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)

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
            found.append(f"{rel}: differs")
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
