"""The repo's benchmark harness (see ``perfbench/README.md``).

* :mod:`glbench.cells`   -- executor: workloads, input materialisation, legs, rounds, daemons;
* :mod:`glbench.oracle`  -- reference results and order/id-insensitive digests;
* :mod:`glbench.metrics` -- sample statistics and the end-to-end metric plug-ins;
* :mod:`glbench.layers`  -- the per-layer probes behind ``--trace 1``;
* :mod:`glbench.report`  -- ``BENCHMARK.json`` view, tables, history, self-check.

End-to-end legs use only ``repro.api``, ``repro.workloads`` and
``repro.provstore``; only the layer probes reach into engine internals, and
each of those degrades to ``null`` when its target moves.
"""
