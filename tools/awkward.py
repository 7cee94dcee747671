"""The awkward inputs: graph shapes near the edges of what the commands take, two belief
files for each, and every command that reads them.

tests/test_cli.py checks that each run finishes cleanly or refuses in one line;
tools/sweep.py records what each run gives. Both take the inputs and the runs from here.
"""

from pathlib import Path

STAR_400 = "401 400\n" + "".join(f"0 {k} 1\n" for k in range(1, 401))
AWKWARD = {  # name -> (edge list, graph kind)
    "single node": ("1 0\n", "unsigned"),
    "isolated nodes": ("5 2\n0 1 1\n1 2 1\n", "unsigned"),
    "disconnected parts": ("6 4\n0 1 1\n1 2 1\n3 4 2\n4 5 2\n", "unsigned"),
    "400-leaf star": (STAR_400, "unsigned"),
    "path": ("4 3\n0 1 1\n1 2 2\n2 3 0.5\n", "unsigned"),
    "path 1e-300": ("4 3\n0 1 1e-300\n1 2 1e-300\n2 3 1e-300\n", "unsigned"),
    "path 1e300": ("4 3\n0 1 1e300\n1 2 1e300\n2 3 1e300\n", "unsigned"),
    "path 5e307": ("3 2\n0 1 5e307\n1 2 5e307\n", "unsigned"),
    "path 1e-300 by 1e300": ("4 3\n0 1 1e-300\n1 2 1e300\n2 3 1e-300\n", "unsigned"),
    "path subnormal": ("4 3\n0 1 1e-310\n1 2 5e-324\n2 3 1e-310\n", "unsigned"),
    "signed path": ("4 3\n0 1 1\n1 2 -2\n2 3 0.5\n", "signed"),
    "signed 1e300": ("4 3\n0 1 1e300\n1 2 -1e300\n2 3 1e300\n", "signed"),
}
AWKWARD_RESPONSES = {"diffusion": ["--tau", "2"], "highpass": ["--beta", "1"],
                     "gaussian_bandpass": ["--center", "1", "--width", "0.5"], "identity": [],
                     "polynomial": ["--coeffs", "1,0.5"]}
BELIEFS = ("x.txt", "big.txt")  # beliefs of +-1.5^k, and of +-1e200


def write_inputs(directory: Path, shape: str) -> str:
    """The shape's graph as g.txt and its two belief files, in directory; returns its kind."""
    text, kind = AWKWARD[shape]
    n = int(text.split()[0])
    (directory / "g.txt").write_text(text)
    (directory / "x.txt").write_text("".join(f"{(-1.5) ** (k % 5)}\n" for k in range(n)))
    (directory / "big.txt").write_text("".join(f"{(-1) ** k * 1e200}\n" for k in range(n)))
    return kind


def awkward_runs(kind: str) -> list[list[str]]:
    """Every command on g.txt, of that kind, under each of its variants and responses, with
    each belief file. Infer runs served from the operator.npz fit wrote, then parsed from
    the text: call unserve(argv) before each run."""
    graph = ["--graph", "g.txt", "--graph-kind", kind]
    runs = []
    for variant in (("signed",) if kind == "signed" else ("combinatorial", "normalized")):
        graph_args = [*graph, "--variant", variant]
        for response, params in AWKWARD_RESPONSES.items():
            model = ["--response", response, *params]
            fit = f"fit-{variant}-{response}"
            runs.append(["fit", *graph_args, *model, "--order", "8", "--out-dir", fit])
            runs += [["infer", *graph_args, "--filter", f"{fit}/filter.json",
                      "--beliefs", x, "--out-dir", f"{fit}-{x}-{how}"]
                     for how in ("served", "text") for x in BELIEFS]
            runs += [["attribute", *graph_args, "--beliefs", x, *model,
                      "--out-dir", f"attribute-{variant}-{response}-{x}"] for x in BELIEFS]
        for x in BELIEFS:
            runs += [["perturb", *graph_args, "--beliefs", x,
                      "--out-dir", f"perturb-{variant}-{x}"],
                     ["transfer", "--source-graph", "g.txt", "--source-beliefs", x,
                      "--target-graph", "g.txt", "--target-beliefs", x, "--graph-kind", kind,
                      "--variant", variant, "--out-dir", f"transfer-{variant}-{x}"]]
    return runs


def unserve(argv: list[str]) -> None:
    """Before a run of awkward_runs: a text run's filter loses the operator.npz beside it,
    so infer parses the graph."""
    if argv[-1].endswith("-text"):
        Path(argv[argv.index("--filter") + 1]).with_name("operator.npz").unlink(missing_ok=True)
