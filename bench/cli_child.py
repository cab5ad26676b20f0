"""Run one dettree CLI command in a fresh interpreter, as the ``dettree``
console script does.

    python3 bench/cli_child.py SPANS -- ARGS...

With SPANS ``-`` the command runs untraced: import ``dettree.cli`` and call
``main(ARGS)``, nothing else. Otherwise the import is timed, the functions
``dettree.cli`` imported are wrapped so each call records a span (plus the
``validate_tree`` call inside ``read_tree`` and the conditioned-leaf search
inside ``sample_conditional``), and the spans are written to the file SPANS
when the command returns. Needs ``src`` on PYTHONPATH.
"""

import sys

CLI_NAMES = (
    "read_csv",
    "write_csv",
    "build_tree",
    "write_tree",
    "read_tree",
    "sample_conditional",
    "det_density_many",
    "sample_gaussian",
)


def main() -> int:
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: cli_child.py SPANS -- ARGS...")
    argv = sys.argv[3:]
    if spans_path == "-":
        from dettree.cli import main as cli_main

        return cli_main(argv)

    from spans import Tracer

    tracer = Tracer()
    with tracer.span("cli.import") as record:
        import dettree.cli as cli
    record["attrs"]["scipy_modules"] = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import dettree.io
    import dettree.sampling

    for name in CLI_NAMES:
        setattr(cli, name, tracer.wrap(getattr(cli, name)))
    dettree.io.validate_tree = tracer.wrap(dettree.io.validate_tree)
    dettree.sampling.find_conditioned_leaves = tracer.wrap(dettree.sampling.find_conditioned_leaves)

    with tracer.span("cli.main"):
        code = cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
