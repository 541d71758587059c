"""Record the golden outputs that bench/run.py compares against.

For every ``fixtures`` job, every random ``mine`` job of the seed pool and
the exhaustive ``mine`` job it stores the exit code and the sha256 of
stdout and of stderr in bench/golden.json.  Re-run it only when the
engine's output is meant to change:

    python3 bench/make_golden.py
"""

import json

import run


def main():
    eng = run.import_engine()
    _, jobs = run.fixture_jobs(eng, seed=0)
    argvs = [run.mine_random_argv(k) for k in run.MINE_SEED_POOL]
    argvs.append(run.MINE_EXHAUSTIVE)
    jobs += [run.Job(" ".join(argv), argv) for argv in argvs]
    golden = {}
    for job in jobs:
        code, out, err = run.run_job(eng["weakcp.cli"], job)
        golden[job.key] = {"exit": code, "sha256": run._sha256(out),
                           "stderr_sha256": run._sha256(err)}
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = [g["exit"] for g in golden.values()]
    print(f"wrote {len(golden)} goldens to {run.GOLDEN}: "
          + ", ".join(f"{codes.count(c)} exit {c}" for c in sorted(set(codes))))


if __name__ == "__main__":
    main()
