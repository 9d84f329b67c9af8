"""One-off phase timings at the ROADMAP baseline size (not part of the runs).

    PYTHONPATH=src python3 bench/reference.py rt 0 [--levels 6]

Times one solve of the ``smooth`` case on unit_square(2) refined ``levels``
times (6 gives 32,768 triangles), phase by phase: mesh build and refinement,
element maps, assembly, hybridized solve, Stenberg postprocessing and error
norms.  Prints one JSON object.
"""

import argparse
import json
import resource
import time

import hybridfem
from hybridfem import harness, postprocess


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("method", choices=("rt", "bdm", "hdg"))
    parser.add_argument("degree", type=int)
    parser.add_argument("--levels", type=int, default=6)
    args = parser.parse_args()

    case = hybridfem.CASES["smooth"]
    space = hybridfem.SpaceDescriptor(args.method, args.degree)
    phases = {}
    clock = time.perf_counter()

    def phase(name):
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    mesh = hybridfem.unit_square(2)
    for _ in range(args.levels):
        mesh = hybridfem.uniform_refine(mesh)
    phase("mesh_s")
    mesh.element_maps()
    phase("element_maps_s")
    tau = hybridfem.StabilizationFunction.constant(mesh) if space.is_hdg else None
    blocks = hybridfem.assemble(mesh, space, case.data(), tau=tau)
    phase("assemble_s")
    triple = hybridfem.solve_hybridized(blocks)
    phase("solve_s")
    post = postprocess.stenberg(triple, case.data())
    phase("stenberg_s")
    norms = harness.compute_error_norms(triple, case, postprocessed=[post])
    phase("error_norms_s")
    print(json.dumps({
        "method": args.method,
        "degree": args.degree,
        "triangles": mesh.num_triangles,
        **phases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eq": norms["eq"],
    }))


if __name__ == "__main__":
    main()
