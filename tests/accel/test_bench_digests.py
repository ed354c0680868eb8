"""Pinned digests of the functional phase on every bench-profile pair.

Graph generation, functional execution and trace emission feed every
simulated number.  Any change to them that moves a bit of a graph array,
a trace column, a final property or CF's rmse fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.accel.algorithms import run_workload
from repro.graphs import datasets


def sha1_prefix(*arrays) -> str:
    digest = hashlib.sha1()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


#: (graph arrays, trace content_token, prop) sha1 prefixes and iteration
#: counts for every bench-profile pair, with run_workload's defaults.
BENCH_DIGESTS = {
    ("bfs", "FR"): ("6e1fd49926a7377b", "85a730285d97553e",
                    "3201d5c50037f0f6", 5),
    ("bfs", "Wiki"): ("b06ab75037f67549", "f7cb6a2762985cc5",
                      "a45adf5117030f38", 5),
    ("bfs", "LJ"): ("f3fdda3bafd9e7f3", "c2e647e42a8756dd",
                    "f0be8c4e558782f0", 5),
    ("bfs", "S24"): ("75176bfdbf27796e", "283f4e39b8cf9f87",
                     "c21916bc55ce52c6", 5),
    ("pagerank", "FR"): ("6e1fd49926a7377b", "fb4d535a3c47286b",
                         "fdc6f0b50bcc12af", 1),
    ("pagerank", "Wiki"): ("b06ab75037f67549", "098b35cd2f32a634",
                           "515c9dec3b38e5e8", 1),
    ("pagerank", "LJ"): ("f3fdda3bafd9e7f3", "9dc0d567c6f7dbbc",
                         "e60a2d3699069d6a", 1),
    ("pagerank", "S24"): ("75176bfdbf27796e", "41d529c00bcb386f",
                          "7434313cdefec254", 1),
    ("sssp", "FR"): ("6e1fd49926a7377b", "19a47c5546c4dc35",
                     "082b4250f2a0ecd0", 5),
    ("sssp", "Wiki"): ("b06ab75037f67549", "9d19449ce44ab141",
                       "07f9bcb8bfbf9eab", 5),
    ("sssp", "LJ"): ("f3fdda3bafd9e7f3", "6cd83b2aa5600c73",
                     "21b4768cb05e70c2", 5),
    ("sssp", "S24"): ("75176bfdbf27796e", "0b740d1a8cf44b1d",
                      "c94cdad6f8a317f9", 5),
    ("cf", "NF"): ("bdb9853aae87af53", "928d241d094abd9c",
                   "69961feeca5e0c83", 1),
    ("cf", "Bip1"): ("18637314fac33161", "1574cab6ad03044b",
                     "729e56b3841c42f5", 1),
    ("cf", "Bip2"): ("dec795373abb4398", "de84f78051e2610d",
                     "11548887ae368b90", 1),
}

#: CF's per-pass rmse on the same pairs.
BENCH_CF_RMSE = {
    "NF": [3.312913797495835],
    "Bip1": [3.314868560891227],
    "Bip2": [3.3130822953797834],
}


def test_digest_table_covers_every_pair():
    assert set(BENCH_DIGESTS) == set(datasets.WORKLOAD_PAIRS)


@pytest.mark.parametrize("pair", datasets.WORKLOAD_PAIRS,
                         ids=lambda pair: "/".join(pair))
def test_bench_pair_digests_are_pinned(pair):
    workload, dataset = pair
    graph, shape = datasets.load(dataset, "bench")
    result = run_workload(workload, graph, shape=shape)
    got = (sha1_prefix(graph.offsets, graph.dst, graph.weight),
           result.trace.content_token()[:16],
           sha1_prefix(result.prop),
           result.iterations)
    assert got == BENCH_DIGESTS[pair]
    if workload == "cf":
        assert result.aux["rmse"] == BENCH_CF_RMSE[dataset]
