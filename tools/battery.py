#!/usr/bin/env python3
"""A fixed battery of curvlab command lines, run on one source tree and
compared between two.

    python3 tools/battery.py run TREE OUT
    python3 tools/battery.py diff OUT_A OUT_B

``run`` executes every entry of ``BATTERY`` in order, each as a fresh
``python`` process with ``PYTHONPATH=TREE/src`` and
``OPENBLAS_NUM_THREADS=1``, in the working directory OUT (created, and
required to be empty).  The first entries build the tensor files the later
ones read.  It keeps each entry's exit code, stdout without the
``"timestamp"`` line and stderr in ``OUT/battery.json``, and every file the
entries write stays in OUT.

``diff`` compares two such directories entry by entry and prints one line
per contract:

- exit codes, and the flags ``decision``, ``boundary``, ``certified`` and
  ``converged`` of every report, must be equal; any difference is listed
  and makes the exit status 1;
- ``lower_bound``, ``min_value`` and ``kmax`` of ``check`` and ``minimize``
  reports, the eight trace columns of every ``flow`` and the numbers of
  every ``report`` and ``identity`` summary print their largest move
  relative to max(1, max|R|) of the input tensor, with the entry it comes
  from; moves of certified and of uncertified searches are printed apart,
  since an uncertified minimum may move by round-off alone;
- the share of entries whose stdout, stderr and written files are
  byte-identical.

To compare a change with its parent, export the parent into a directory
of its own, for example with ``git worktree add ../parent HEAD~1`` or
``git archive HEAD~1 | tar -x -C ../parent``, run the battery on both
trees and diff the two outputs.  The whole battery takes a few minutes on
one core.
"""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

FLAGS = ("decision", "boundary", "certified", "converged")
VALUES = ("min_value", "kmax")


def _models() -> list[list[str]]:
    """Tensor files: closed-form models, products, padded tensors, random
    tensors at two seeds, perturbed spheres and one tensor at scale 1e7."""
    cli = [
        ["model", "--kind", "sphere", "--n", "4", "--kappa", "1.0", "--out", "s4.json"],
        ["model", "--kind", "sphere", "--n", "5", "--kappa", "1.0", "--out", "s5.json"],
        ["model", "--kind", "sphere", "--n", "6", "--kappa", "0.5", "--out", "s6.json"],
        ["model", "--kind", "sphere", "--n", "2", "--kappa", "1.0", "--out", "s2.json"],
        ["model", "--kind", "sphere", "--n", "3", "--kappa", "1.0", "--out", "s3.json"],
        ["model", "--kind", "sphere", "--n", "2", "--kappa", "-1.0", "--out", "h2.json"],
        ["model", "--kind", "cpm", "--m", "2", "--c", "4.0", "--out", "cp2.json"],
        ["model", "--kind", "cpm", "--m", "3", "--c", "4.0", "--out", "cp3.json"],
        ["model", "--kind", "product", "--factor", "s2.json", "--factor", "s2.json", "--out", "s2xs2.json"],
        ["model", "--kind", "product", "--factor", "s2.json", "--factor", "s3.json", "--out", "s2xs3.json"],
        ["model", "--kind", "product", "--factor", "h2.json", "--factor", "s4.json", "--out", "h2xs4.json"],
        ["model", "--kind", "pad", "--tensor", "s4.json", "--k", "2", "--out", "s4pad2.json"],
    ]
    cli += [["model", "--kind", "random", "--n", str(n), "--seed", "3", "--out", f"r{n}.json"] for n in range(3, 13)]
    cli += [["model", "--kind", "random", "--n", str(n), "--seed", "7", "--out", f"q{n}.json"] for n in range(4, 10)]
    cli.append(["model", "--kind", "pad", "--tensor", "r4.json", "--k", "2", "--out", "r4pad2.json"])
    entries = [["-m", "curvlab", *argv] for argv in cli]
    write = "from curvlab.serialization import write_tensor; from curvlab.tensors import combine, random_tensor, sphere; "
    for n in (5, 6, 7):
        entries.append(["-c", write + f"write_tensor('p{n}.json', combine(1.0, sphere({n}, 1.0), 0.1, random_tensor([5, {n}], {n})))"])
    entries.append(["-c", write + "write_tensor('large6.json', combine(1e7, random_tensor(3, 6), 0.0, sphere(6, 1.0)))"])
    return entries


CHECKED = (
    ["s4", "s5", "s6", "s3", "h2", "cp2", "cp3", "s2xs2", "s2xs3", "h2xs4", "s4pad2"]
    + [f"r{n}" for n in range(3, 13)]
    + [f"q{n}" for n in range(4, 10)]
    + ["r4pad2", "p5", "p6", "p7", "large6"]
)


def _checks() -> list[list[str]]:
    """nic, pic2 and quarter-pinch on every checked tensor, at the default
    64 restarts and at 8 restarts with another seed and margin."""
    out = []
    for tag in CHECKED:
        for cond in ("nic", "pic2", "quarter-pinch"):
            base = ["-m", "curvlab", "check", "--condition", cond, "--tensor", f"{tag}.json"]
            out += [base, base + ["--restarts", "8", "--seed", "7", "--margin", "1e-6"]]
    return out


def _minimizations() -> list[list[str]]:
    out = []
    for tag in ("s4", "cp2", "s2xs2", "r5", "r7", "r9"):
        for objective in ("isotropic", "sectional"):
            out.append(["minimize", "--objective", objective, "--tensor", f"{tag}.json"])
    for tag in ("s4", "cp2", "r4", "r6", "r8"):
        out.append(["minimize", "--objective", "lambda-mu", "--tensor", f"{tag}.json", "--lambda", "0.5", "--mu", "-0.3"])
    out += [
        ["minimize", "--objective", "lambda-mu", "--tensor", "r4.json", "--lambda", "1", "--mu", "-1"],
        ["minimize", "--objective", "lambda-mu", "--tensor", "r6.json", "--lambda", "0.5", "--mu", "0.5"],
        ["minimize", "--objective", "isotropic", "--tensor", "r9.json", "--restarts", "32"],
        ["minimize", "--objective", "sectional", "--tensor", "r10.json", "--restarts", "8", "--seed", "5"],
    ]
    return [["-m", "curvlab", *argv] for argv in out]


def _flows() -> list[list[str]]:
    """Adaptive, fixed-step, normalized and few-row flows, each with its report."""
    flows = [
        ("s4", ["--t-end", "0.04"]),
        ("cp2", ["--t-end", "0.04"]),
        ("r4pad2", ["--t-end", "0.04"]),
        ("s2xs2", ["--t-end", "0.04", "--fixed-step", "--dt", "0.01"]),
        ("r4", ["--t-end", "0.04", "--fixed-step", "--dt", "0.01"]),
        ("r6", ["--t-end", "0.05", "--restarts", "4"]),
        ("r12", ["--t-end", "0.05", "--restarts", "4"]),
        ("r9", ["--t-end", "0.05", "--normalize", "--stride", "2"]),
        ("r10", ["--t-end", "0.05", "--normalize", "--stride", "2"]),
        ("r9", ["--t-end", "0.1", "--stride", "1000000000", "--restarts", "1"]),
        ("s6", ["--t-end", "0.02", "--dt", "0.002", "--stride", "1000000000", "--restarts", "1"]),
    ]
    out = []
    for i, (tag, opts) in enumerate(flows):
        trace = f"flow{i}_{tag}.csv"
        out.append(["-m", "curvlab", "flow", "--tensor", f"{tag}.json", *opts, "--out", trace])
        out.append(["-m", "curvlab", "report", "--trace", trace])
    return out


IDENTITIES = [
    ["-m", "curvlab", "identity", "--suite", "lift", "--trials", "200"],
    ["-m", "curvlab", "identity", "--suite", "cyclic", "--trials", "200"],
    ["-m", "curvlab", "identity", "--suite", "decomposition", "--trials", "100"],
]

BATTERY = _models() + _checks() + _minimizations() + _flows() + IDENTITIES


def _strip_timestamp(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if not line.lstrip().startswith('"timestamp":'))


def run(tree: Path, out: Path) -> int:
    tree, out = tree.resolve(), out.resolve()
    if not (tree / "src" / "curvlab").is_dir():
        sys.exit(f"battery: {tree} has no src/curvlab")
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        sys.exit(f"battery: {out} is not empty")
    env = {k: v for k, v in os.environ.items() if k != "CURVLAB_SEED"}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    runs = []
    start = time.perf_counter()
    for i, argv in enumerate(BATTERY):
        proc = subprocess.run([sys.executable, *argv], cwd=out, env=env, capture_output=True, text=True)
        runs.append({
            "argv": argv,
            "code": proc.returncode,
            "stdout": _strip_timestamp(proc.stdout),
            "stderr": proc.stderr.replace(str(tree), "TREE"),
        })
        print(f"{i + 1}/{len(BATTERY)} exit {proc.returncode}: {' '.join(argv[2:] if argv[0] == '-m' else argv[:1])}", flush=True)
    (out / "battery.json").write_text(json.dumps({"tree": str(tree), "runs": runs}, indent=1) + "\n")
    print(f"{len(runs)} entries in {time.perf_counter() - start:.1f} s")
    return 0


def _option(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _scale(out: Path, argv: list[str], cache: dict) -> float:
    """max(1, max|R|) of the entry's input tensor (of the flow behind a report)."""
    name = _option(argv, "--tensor")
    if name is None and "report" in argv:
        for other in BATTERY:
            if _option(other, "--out") == _option(argv, "--trace"):
                name = _option(other, "--tensor")
    if name is None:
        return 1.0
    if name not in cache:
        data = json.loads((out / name).read_text())
        cache[name] = max([1.0] + [abs(x) for x in data.get("operator", data.get("components", []))])
    return cache[name]


def _json(text: str):
    """The report on stdout; without its timestamp line the line before
    may end in a comma."""
    try:
        return json.loads(re.sub(r",(\s*)}\s*$", r"\1}", text))
    except ValueError:
        return None


def _trace(path: Path) -> list[list[float]] | None:
    if not path.is_file():
        return None
    with path.open() as fh:
        return [[float(x) for x in row] for row in list(csv.reader(fh))[1:] if row]


class _Moves:
    """Largest relative move per contract, with the entry it comes from."""

    def __init__(self):
        self.worst: dict[str, tuple[float, str]] = {}

    def add(self, name: str, a, b, scale: float, where: str) -> None:
        if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return
        move = abs(a - b) / scale if a != b else 0.0
        if move >= self.worst.get(name, (-1.0, ""))[0]:
            self.worst[name] = (move, where)


def diff(a: Path, b: Path) -> int:
    runs_a = json.loads((a / "battery.json").read_text())["runs"]
    runs_b = json.loads((b / "battery.json").read_text())["runs"]
    if [r["argv"] for r in runs_a] != [r["argv"] for r in runs_b]:
        sys.exit("battery: the two outputs ran different argv lists")
    total = len(runs_a)
    codes = []
    flags = {flag: [0, []] for flag in FLAGS}
    moves, cache = _Moves(), {}
    same = {"stdout": 0, "stderr": 0}
    rows = []
    for ra, rb in zip(runs_a, runs_b):
        argv = ra["argv"]
        where = " ".join(argv[2:] if argv[0] == "-m" else argv[:1])
        for key in same:
            same[key] += ra[key] == rb[key]
        if ra["code"] != rb["code"]:
            codes.append(f"{where}: {ra['code']} -> {rb['code']}")
        ja, jb = _json(ra["stdout"]), _json(rb["stdout"])
        if not (isinstance(ja, dict) and isinstance(jb, dict)):
            continue
        scale = _scale(a, argv, cache)
        for flag in FLAGS:
            if flag in ja or flag in jb:
                flags[flag][0] += 1
                if ja.get(flag) != jb.get(flag):
                    flags[flag][1].append(f"{where}: {ja.get(flag)} -> {jb.get(flag)}")
        command = argv[2]
        if command in ("check", "minimize"):
            group = "certified" if ja.get("certified") and jb.get("certified") else "uncertified"
            for key in VALUES:
                moves.add(f"{key} ({group} searches)", ja.get(key), jb.get(key), scale, where)
            for key in ("lower_bound", "kmax_upper_bound"):
                moves.add(key, ja.get(key), jb.get(key), scale, where)
        elif command in ("report", "identity"):
            for key, value in ja.items():
                if key not in ("timestamp", "seed", "trials", "tolerance"):
                    moves.add(f"{command} {key}", value, jb.get(key), scale, where)
    for ra in runs_a:
        argv = ra["argv"]
        if argv[0] == "-m" and argv[2] == "flow" and ra["code"] == 0:
            name, where = _option(argv, "--out"), " ".join(argv[2:])
            ta, tb = _trace(a / name), _trace(b / name)
            if ta is None or tb is None or len(ta) != len(tb):
                rows.append(f"{where}: {None if ta is None else len(ta)} -> {None if tb is None else len(tb)}")
                continue
            scale = _scale(a, argv, cache)
            columns = ("t", "kmin", "kmax", "min_iso", "min_pic2", "scalar", "dt", "err_est")
            for row_a, row_b in zip(ta, tb):
                for column, x, y in zip(columns, row_a, row_b):
                    moves.add(f"trace {column}", x, y, scale, where)
    names = sorted(({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}) - {"battery.json"})
    files = sum((a / x).is_file() and (b / x).is_file() and (a / x).read_bytes() == (b / x).read_bytes() for x in names)
    print(f"entries: {total}")
    print(f"exit codes equal: {total - len(codes)}/{total}" + "".join(f"\n  {line}" for line in codes))
    print(f"trace row counts equal: {len(rows) == 0}" + "".join(f"\n  {line}" for line in rows))
    for flag, (count, bad) in flags.items():
        print(f"{flag} equal: {count - len(bad)}/{count}" + "".join(f"\n  {line}" for line in bad))
    for name in sorted(moves.worst):
        move, where = moves.worst[name]
        print(f"largest move of {name}: {move:.3g}" + (f" ({where})" if move > 0.0 else ""))
    print(f"stdout byte-identical: {same['stdout']}/{total}")
    print(f"stderr byte-identical: {same['stderr']}/{total}")
    print(f"written files byte-identical: {files}/{len(names)}")
    return 1 if codes or rows or any(bad for _, bad in flags.values()) else 0


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in ("run", "diff"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return (run if argv[0] == "run" else diff)(Path(argv[1]), Path(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
