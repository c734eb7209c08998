"""One set-up measurement in a fresh process: what a CLI call pays first.

Times the import of the package, the generation of the workload's inputs
and one warm-up operation, then prints a JSON line with the seconds and
any problem the warm-up report showed.

    python3 perfbench/probe.py --workload small-specs --seed 1
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import bench_env  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    bench_env.prepare()
    cli = bench_env.import_cli()
    import workloads

    op = workloads.make_ops(args.workload, args.seed)[0]
    report = workloads.execute(cli, op)
    setup_s = time.perf_counter() - START
    print(json.dumps({"setup_s": setup_s, "problems": workloads.check(op, report)}))


if __name__ == "__main__":
    main()
