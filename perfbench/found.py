#!/usr/bin/env python3
"""Two measurements behind open findings, made with the benchmark's harness.

    python3 perfbench/found.py threads [--clusters 2000] [--pairs 30]
    python3 perfbench/found.py ip [--seed 1]

threads: one LikelihoodEngine evaluation of the joint_ev model at
--clusters clusters (64 clusters per chunk), threads=1 against threads=2 in
interleaved pairs, alternating which runs first; wall time.
ip: the joint_ev marginal log-likelihood at the fitted estimates of the
seed's first dataset with ip = 7 (the workload's rule), 15 and 61.
"""

import benchenv

benchenv.pin(__file__)

import argparse
import statistics
import time

import numpy as np

import workloads as W
from run import import_program


def threads(args):
    jf = import_program()
    cols = W.sim_joint_ev(W.rng_for("joint_ev", args.seed, 0), args.clusters)
    data = jf.build_levels(jf.Dataset(cols, len(cols["id"])), ("id",))
    spec = jf.validate_spec(jf.parse_spec_text(W.JOINT_EV_SPEC), data)
    ev = jf.Evaluator(spec, data)
    engines = {n: jf.LikelihoodEngine(ev, threads=n) for n in (1, 2)}
    theta = jf.start_values(engines[1])
    # plain wall time: the speed clock's in-operation kernel samples pause
    # only the main thread, so they cannot time the worker threads
    res = {n: [] for n in engines}
    lls = set()
    for _ in range(3):
        for eng in engines.values():
            eng.total_loglik(theta)
    for i in range(args.pairs):
        for n in ((1, 2) if i % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            lls.add(engines[n].total_loglik(theta))
            res[n].append(time.perf_counter() - t0)
    wins = sum(a < b for a, b in zip(res[2], res[1]))
    print(f"{args.clusters} clusters, {len(engines[1].chunks)} chunks, "
          f"{len(lls)} distinct logliks across thread counts")
    print(f"median threads=1 {1e3 * statistics.median(res[1]):.2f} ms, "
          f"threads=2 {1e3 * statistics.median(res[2]):.2f} ms, "
          f"threads=2 faster in {wins}/{args.pairs} pairs")


def ip(args):
    jf = import_program()
    cols = W.sim_joint_ev(W.rng_for("joint_ev", args.seed, 0))
    data = jf.build_levels(jf.Dataset(cols, len(cols["id"])), ("id",))
    spec = jf.validate_spec(jf.parse_spec_text(W.JOINT_EV_SPEC), data)
    fit = jf.maximize(spec, data, jf.FitControls())
    for n in (7, 15, 61):
        text = W.JOINT_EV_SPEC.replace("ip = 7", f"ip = {n}")
        s = jf.validate_spec(jf.parse_spec_text(text), data)
        ev = jf.Evaluator(s, data, bases=jf.estimation.deserialize_bases(fit.bases))
        ll = jf.LikelihoodEngine(ev).total_loglik(np.asarray(fit.estimates))
        print(f"seed {args.seed}: ip = {n:2d}: loglik at the ip = 7 estimates {ll:.4f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("what", choices=("threads", "ip"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--clusters", type=int, default=2000)
    p.add_argument("--pairs", type=int, default=30)
    args = p.parse_args()
    {"threads": threads, "ip": ip}[args.what](args)


if __name__ == "__main__":
    main()
