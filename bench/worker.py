"""Benchmark processes.

``python3 worker.py setup JSON-ARGS`` measures set-up in a fresh
interpreter: the import of gf2m, plus the workload's untimed preparation.

``python3 worker.py serve`` imports gf2m once and then reads one JSON job
per line from stdin.  It runs each job in a child forked for that job
alone, so every job starts from library state that nothing has used yet
(cold caches, as in a fresh interpreter) without paying for the import
again, and prints the job's result as one JSON line: timings, operation
counts, the child's own peak RSS and, when traced, its layer summary.
Outputs are checked after each timed region, never inside it.

Jobs:
  costs     gate counts and depth of the reference circuits
  arith     closed loop over seeded pairs: six multiplication paths, inverse
  cli       one ``gf2m.cli.main(argv)`` with stdout captured
  bigfield  one ``GF2m(m)`` build, then table and element checks
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH))

import numpy as np  # noqa: E402

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

ARITH_DEGREES = (9, 12, 16)
# Reference log/antilog tables for arith, built once by the job server so
# that each arith slice does not rebuild them.
ORACLE = {}


def import_gf2m():
    start = time.perf_counter()
    import gf2m
    import gf2m.cli  # noqa: F401
    seconds = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(gf2m.__file__).resolve().parents:
        raise SystemExit(f"gf2m imported from {gf2m.__file__}, not {src}")
    return gf2m, seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def job_setup(args: dict) -> dict:
    start = time.perf_counter()
    gf2m, import_s = import_gf2m()
    if args["workload"] == "arith":
        for m in ARITH_DEGREES:
            gf2m.GF2m(m)
    return {"import_s": import_s, "setup_s": time.perf_counter() - start,
            "peak_rss_mb": peak_rss_mb()}


def job_costs(args: dict, tracer: Tracer | None) -> dict:
    gf2m, _ = import_gf2m()
    costs = {}
    for m in (4, 8, 16):
        field = gf2m.GF2m(m)
        circuits = {
            "general": gf2m.general_multiplier_netlist(field),
            "serial_xor": gf2m.emit_netlist(gf2m.SerialStepSpec(field, "xor")),
            "serial_nand": gf2m.emit_netlist(gf2m.SerialStepSpec(field, "nand")),
        }
        for name, netlist in circuits.items():
            counts = netlist.gate_counts()
            costs[f"{name}_m{m}"] = {"and": counts["AND"], "xor": counts["XOR"],
                                     "nand": counts["NAND"],
                                     "depth": netlist.depth}
    return {"costs": costs}


def job_arith(args: dict, tracer: Tracer | None) -> dict:
    """Rounds of ``batch`` seeded pairs per degree until ``seconds`` pass
    (at least ``min_rounds``); one rate sample per round.

    Per pair: mul_power, mul_poly, Z-matrix times vector, and the serial
    multiplier in xor and nand mode.  Per degree and round: the general
    multiplier netlist, serialized, parsed back and simulated on all pairs
    at once.  Every nonzero a is also inverted, timed separately.
    """
    gf2m, _ = import_gf2m()
    if tracer:
        tracer.install()
    from gf2m.mastrovito import (build_z_matrix, general_multiplier_netlist,
                                 mat_vec_mul, serial_interleaved_multiply)
    from gf2m.netlist import XorNetlist
    pause = tracer.pause if tracer else nullcontext
    fields = {m: gf2m.GF2m(m) for m in ARITH_DEGREES}
    bad_poly = [m for m, f in fields.items()
                if f.prime_poly.bits != reference.PHI[m]]
    rng = np.random.default_rng([args["seed"], 1, args["slice"]])
    batch, attempted, failed = args["batch"], 0, 0
    pair_rates, inv_rates, errors = [], [], []
    deadline = time.perf_counter() + args["seconds"]
    rounds = 0
    while rounds < args["min_rounds"] or time.perf_counter() < deadline:
        rounds += 1
        pair_time = inv_time = 0.0
        good_pairs = good_inv = 0
        for m, field in fields.items():
            a_bits = rng.integers(0, 1 << m, batch)
            b_bits = rng.integers(0, 1 << m, batch)
            a_list, b_list = a_bits.tolist(), b_bits.tolist()
            planes = {f"a_{i}": (a_bits >> i & 1).astype(np.uint8) for i in range(m)}
            planes |= {f"b_{i}": (b_bits >> i & 1).astype(np.uint8) for i in range(m)}
            got = [None] * batch
            start = time.perf_counter()
            for k in range(batch):
                try:
                    a = field.element(a_list[k])
                    b = field.element(b_list[k])
                    got[k] = (field.mul_power(a, b).bits,
                              field.mul_poly(a, b).bits,
                              mat_vec_mul(build_z_matrix(a), b).bits,
                              serial_interleaved_multiply(a, b, "xor")[0].bits,
                              serial_interleaved_multiply(a, b, "nand")[0].bits)
                except Exception:  # noqa: BLE001 - counted as a failed pair
                    pass
            try:
                text = general_multiplier_netlist(field).serialize()
                out = XorNetlist.parse(text).simulate(planes)
            except Exception:  # noqa: BLE001 - every pair fails its netlist path
                out = None
            pair_time += time.perf_counter() - start

            nonzero = [x for x in a_list if x]
            inverses = [None] * len(nonzero)
            start = time.perf_counter()
            for k, x in enumerate(nonzero):
                try:
                    inverses[k] = field.inverse(field.element(x)).bits
                except Exception:  # noqa: BLE001 - counted as a failed inverse
                    pass
            inv_time += time.perf_counter() - start

            with pause():
                log, antilog = ORACLE[m]
                want = reference.products(log, antilog, a_bits, b_bits)
                if out is None:
                    netlist_bits = [None] * batch
                else:
                    netlist_bits = sum(out[f"c_{i}"].astype(np.int64) << i
                                       for i in range(m)).tolist()
                ok_pairs = 0
                for k, w in enumerate(want.tolist()):
                    if (got[k] is not None and m not in bad_poly
                            and all(v == w for v in got[k])
                            and netlist_bits[k] == w):
                        ok_pairs += 1
                    elif len(errors) < 5:
                        errors.append(f"m={m} a={a_list[k]} b={b_list[k]}: "
                                      f"{got[k]} netlist {netlist_bits[k]}, want {w}")
                ok_inv = 0
                for x, inv in zip(nonzero, inverses):
                    if inv is None:
                        continue
                    try:
                        trace_inv = field.inversion_trace(field.element(x))[-1].bits
                        unit = field.mul_poly(field.element(x), field.element(inv)).bits
                    except Exception:  # noqa: BLE001 - counted as failed
                        continue
                    if unit == 1 and inv == trace_inv \
                            and reference.mulmod(x, inv, reference.PHI[m]) == 1:
                        ok_inv += 1
                    elif len(errors) < 5:
                        errors.append(f"m={m} inverse({x}) = {inv}")
                attempted += batch + len(nonzero)
                failed += batch - ok_pairs + len(nonzero) - ok_inv
                good_pairs += ok_pairs
                good_inv += ok_inv
        pair_rates.append(good_pairs / pair_time)
        inv_rates.append(good_inv / inv_time)
    return {"mul_pairs_per_s": pair_rates, "inv_per_s": inv_rates,
            "rounds": rounds, "attempted": attempted, "failed": failed,
            "errors": errors, "peak_rss_mb": peak_rss_mb()}


def job_cli(args: dict, tracer: Tracer | None) -> dict:
    gf2m, _ = import_gf2m()
    if tracer:
        tracer.install()
    real = sys.stdout
    captured = io.BytesIO()
    sys.stdout = wrapper = io.TextIOWrapper(captured, encoding="utf-8")
    try:
        start = time.perf_counter()
        code = gf2m.cli.main(args["argv"])
        sys.stdout.flush()
        seconds = time.perf_counter() - start
    finally:
        sys.stdout = real
        wrapper.detach()
    data = captured.getvalue()
    if tracer:
        tracer.counters["cli.output_bytes"] = len(data)
    return {"seconds": seconds, "exit": code, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "peak_rss_mb": peak_rss_mb()}


def job_bigfield(args: dict, tracer: Tracer | None) -> dict:
    gf2m, _ = import_gf2m()
    if tracer:
        tracer.install()
    m = args["m"]
    start = time.perf_counter()
    field = gf2m.GF2m(m)
    seconds = time.perf_counter() - start
    rss = peak_rss_mb()
    with tracer.pause() if tracer else nullcontext():
        errors, attempted = _check_big_field(gf2m, field, m, args["seed"])
    return {"seconds": seconds, "attempted": attempted, "failed": len(errors),
            "errors": errors[:5], "peak_rss_mb": rss}


def _check_big_field(gf2m, field, m: int, seed: int) -> tuple[list[str], int]:
    phi = reference.PHI[m]
    n = (1 << m) - 1
    rng = np.random.default_rng([seed, 3, m])
    if field.prime_poly.bits != phi:
        return [f"m={m} defined over {field.prime_poly.bits:b}"], 1
    errors = []
    checks = [("tables", lambda: reference.table_errors(
        field.log_table, field.antilog_table, phi))]

    def mul_check(a, b):
        got = field.mul_power(field.element(a), field.element(b)).bits
        return [] if got == reference.mulmod(a, b, phi) else [f"{a}*{b} = {got}"]

    def inv_check(a):
        got = field.inverse(field.element(a)).bits
        return [] if reference.mulmod(a, got, phi) == 1 else [f"1/{a} = {got}"]

    def matrix_check(name, matrix, constant, vectors):
        bad = [v for v in vectors
               if gf2m.mat_vec_mul(matrix, field.element(v)).bits
               != reference.mulmod(constant(v), v, phi)]
        return [f"{name} wrong on {bad[0]}"] if bad else []

    pairs = rng.integers(1, n + 1, (64, 2)).tolist()
    checks += [("mul", lambda a=a, b=b: mul_check(a, b)) for a, b in pairs]
    checks += [("inverse", lambda a=a: inv_check(a))
               for a in rng.integers(1, n + 1, 16).tolist()]
    vectors = rng.integers(0, n + 1, 8).tolist()
    checks.append(("squaring", lambda: matrix_check(
        "squaring_matrix", gf2m.squaring_matrix(field), lambda v: v, vectors)))
    for power in rng.integers(0, n, 4).tolist():
        constant = reference.alpha_power(power, phi)
        checks.append(("constant", lambda p=power, c=constant: matrix_check(
            f"constant_mul_matrix({p})", gf2m.constant_mul_matrix(field, p),
            lambda v: c, vectors)))
    for name, check in checks:
        try:
            errors += [f"m={m} {name}: {e}" for e in check()]
        except Exception as exc:  # noqa: BLE001 - counted as a failed check
            errors.append(f"m={m} {name}: {type(exc).__name__}: {exc}")
    return errors, len(checks)


JOBS = {"costs": job_costs, "arith": job_arith, "cli": job_cli,
        "bigfield": job_bigfield}


def run(job: str, args: dict) -> dict:
    tracer = Tracer() if args.get("trace") else None
    try:
        result = JOBS[job](args, tracer)
    except Exception:  # noqa: BLE001 - reported to the parent as a failure
        result = {"crashed": traceback.format_exc(), "peak_rss_mb": peak_rss_mb()}
    if tracer:
        result["trace"] = tracer.summary()
        if args.get("spans_out"):
            tracer.write_spans(args["spans_out"])
    return result


def serve() -> None:
    import_gf2m()
    ORACLE.update((m, reference.log_tables(reference.PHI[m])) for m in ARITH_DEGREES)
    for line in sys.stdin:
        request = json.loads(line)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            try:
                data = json.dumps(run(request["job"], request["args"]))
            except BaseException:  # noqa: BLE001 - the child must not return
                data = json.dumps({"crashed": traceback.format_exc()})
            with os.fdopen(write_end, "w") as fh:
                fh.write(data)
            os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as fh:
            data = fh.read()
        _, status, _ = os.wait4(pid, 0)
        print(data or json.dumps({"crashed": f"job exited with status {status}"}),
              flush=True)


def main() -> None:
    if sys.argv[1] == "serve":
        serve()
    else:
        print(json.dumps(job_setup(json.loads(sys.argv[2]))))


if __name__ == "__main__":
    main()
