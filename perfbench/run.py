#!/usr/bin/env python3
"""doduo end-to-end benchmark: one run of one workload.

    python3 perfbench/run.py --workload web_batch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. On the first run it builds the
doduo libraries, doduo_serve, doduo_convert, the benchmark program and its
self-test into $CARGO_TARGET_DIR (default .bench_build), runs the self-test,
checks the checked-in model against perfbench/model/SHA256SUMS and derives
the int8 copy of the model with doduo_convert --int8. Then it runs the
benchmark program, whose last stdout line is the JSON result. Trace files and layer
tables go to <build dir>/artifacts/.

Exit codes: 0 ok; 2 bad usage or no doduo sources here; 3 model hash
mismatch; 4 build failed; 5 self-test failed; 6 int8 conversion failed;
7 the benchmark program timed out; 8 metric names differ from BENCHMARK.json; other
non-zero: the benchmark program's own.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MODEL_DIR = BENCH_DIR / "model"
WORKLOADS = ("web_batch", "lake_dirty")
TARGETS = ("perfbench_run", "perfbench_selftest", "perfbench_serve",
           "perfbench_convert")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_model():
    """Refuses to run on a model whose files differ from SHA256SUMS."""
    sums = MODEL_DIR / "SHA256SUMS"
    if not sums.is_file():
        fail(3, f"missing {sums}")
    for line in sums.read_text().splitlines():
        if not line.strip():
            continue
        want, name = line.split()
        path = MODEL_DIR / name
        if not path.is_file() or sha256(path) != want:
            fail(3, f"model file {path} does not match its recorded sha256")
    return sha256(MODEL_DIR / "model.ckpt")


def run_logged(cmd, log, env=None):
    with open(log, "ab") as out:
        return subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                              env=env, check=False).returncode


def build(build_dir):
    """Configures once, then builds incrementally; self-test on a new build."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    if not (build_dir / "CMakeCache.txt").is_file():
        if run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            fail(4, f"cmake configure failed, see {log}")
    jobs = str(min(4, os.cpu_count() or 1))
    before = (build_dir / "perfbench_run").stat().st_mtime_ns \
        if (build_dir / "perfbench_run").exists() else None
    if run_logged(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                   *TARGETS], log) != 0:
        fail(4, f"build failed, see {log}")
    stamp = build_dir / "selftest.ok"
    after = (build_dir / "perfbench_run").stat().st_mtime_ns
    if before != after or not stamp.exists():
        stamp.unlink(missing_ok=True)
        if run_logged([str(build_dir / "perfbench_selftest")], log) != 0:
            fail(5, f"benchmark self-test failed, see {log}")
        stamp.write_text("ok\n")


def int8_model(build_dir, ckpt_hash):
    """The int8 copy of the checked-in model, derived before any timing."""
    out = build_dir / "model_int8"
    stamp = out / "SOURCE_SHA256"
    if stamp.is_file() and stamp.read_text().strip() == ckpt_hash:
        return out
    tmp = build_dir / "model_int8.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    if run_logged([str(build_dir / "doduo_convert"), str(MODEL_DIR), str(tmp),
                   "--int8"], build_dir / "build.log") != 0:
        fail(6, "doduo_convert --int8 failed")
    (tmp / "SOURCE_SHA256").write_text(ckpt_hash + "\n")
    tmp.rename(out)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "doduo_serve.cc").is_file():
        fail(2, f"no doduo sources under {ROOT}; run from a source checkout")
    ckpt_hash = check_model()
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(build_dir)
    int8_dir = int8_model(build_dir, ckpt_hash)
    artifacts = build_dir / "artifacts"
    artifacts.mkdir(exist_ok=True)

    # The program's own knobs (thread count, quant, metrics off, ...) would
    # change what is measured; the program sets what it needs explicitly.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DODUO_")}
    cmd = [str(build_dir / "perfbench_run"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--model", str(MODEL_DIR), "--int8-model", str(int8_dir),
           "--serve-bin", str(build_dir / "doduo_serve"),
           "--artifacts", str(artifacts)]
    # Its own process group, so a timeout also stops any doduo_serve it
    # started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                              stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(7, f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(proc.returncode, "benchmark program failed")
    lines = out.rstrip("\n").split("\n")
    check_metric_names(json.loads(lines[-1]), args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()


def check_metric_names(result, trace):
    """The result must carry exactly the BENCHMARK.json metrics of its mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != want:
        fail(8, f"metric set differs from BENCHMARK.json: missing "
                f"{sorted(want - got)}, unexpected {sorted(got - want)}")


if __name__ == "__main__":
    main()
