"""CLI fuzz test: mutated command lines give exit 0, 2 or 3 and never raise.

Each token of a valid argv is replaced in turn by each bad value; then
random chains of one to three mutations (drop, duplicate or replace a token,
or drop or duplicate an option with its value) run with a fixed seed.  Every argv stays cheap (q <= 3, n <= 6; no worker pool, no
golden check, no b-file), so a mutant that still parses runs in milliseconds.
"""

from __future__ import annotations

import random

from ridertypes.cli import main

REPLACEMENTS = ["-1", "0", "1.5", "x", "", "1/0", "poly:0,0;1", "poly:0,0;1/0,1;1,1",
                "poly:a,b", "1,0;2,0", "0,0", "1,2,3", "1;0", "1,x"]


def valid_argvs(data: str) -> list[list[str]]:
    return [
        ["types", "--moves", "queen", "--q", "2", "--engine", "geometric"],
        ["types", "--moves", "semiqueen", "--q", "3", "--engine", "ff"],
        ["types", "--moves", "trident", "--q", "2", "--engine", "grid", "--n", "4",
         "--n-max", "6"],
        ["types", "--moves", "rook", "--q", "2", "--engine", "grid", "--board",
         "triangle", "--n-start", "2", "--n-max", "6"],
        ["types", "--moves=1,0;1,2", "--q", "3", "--engine", "random",
         "--samples", "40", "--seed", "3"],
        ["types", "--moves", "bishop", "--q", "2", "--engine", "geometric",
         "--refinement", "2", "--prime-floor", "13"],
        ["count", "--moves", "queen", "--q", "2", "--n-range", "1:5"],
        ["count", "--moves", "1,1;1,-1", "--q", "3", "--board",
         "poly:0,0;1,1/2;1/2,1", "--n", "6"],
        ["fit", "--data", data, "--q", "2", "--period", "1"],
        ["fit", "--data", data, "--q", "2", "--kind", "labelled"],
    ]


def mutated_argv(rng: random.Random, argv: list[str]) -> list[str]:
    """argv with one token, or one option and its value, dropped or
    duplicated, or with one token replaced."""
    out = list(argv)
    i = rng.randrange(len(out))
    # an option with its value; --samples is never dropped whole, since its
    # default would make the call expensive
    pair = out[i].startswith("--") and "=" not in out[i] and i + 1 < len(out)
    op = rng.choice(("drop", "duplicate", "replace", "replace")
                    + (("drop option", "duplicate option") if pair else ()))
    if op == "drop":
        del out[i]
    elif op == "duplicate":
        out.insert(i, out[i])
    elif op == "drop option" and out[i] != "--samples":
        del out[i:i + 2]
    elif op == "duplicate option":
        out.extend(out[i:i + 2])
    else:
        out[i] = rng.choice(REPLACEMENTS)
    return out


def test_mutated_argvs_exit_cleanly(tmp_path, capsys):
    data = tmp_path / "rows.txt"
    data.write_text("".join(f"{n} {n * (n - 1) * (n - 2) * (3 * n - 1) // 6}\n"
                            for n in range(1, 9)))
    bases = valid_argvs(str(data))
    for argv in bases:
        assert main(argv) == 0, argv
    # every single-token replacement, then random chains of one to three mutations
    argvs = [argv[:i] + [bad] + argv[i + 1:]
             for argv in bases for i in range(len(argv)) for bad in REPLACEMENTS]
    rng = random.Random(20261018)
    for _ in range(600):
        argv = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            argv = mutated_argv(rng, argv)
        argvs.append(argv)
    codes = set()
    for argv in argvs:
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 2, 3), argv
        codes.add(code)
    assert codes >= {0, 2}
