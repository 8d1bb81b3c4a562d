"""repro.dist — the distributed execution plane.

Everything the engine needs to run on more than one box.  ``dist``
depends on ``engine``, never the reverse: the ``Transport`` seam lives in
:mod:`repro.engine.executors`, and ``make_executor("cluster")`` imports
:mod:`repro.dist.cluster` only when that backend is selected.

- :mod:`repro.dist.protocol` — the stdlib-socket wire protocol:
  length-prefixed frames wrapping the existing ``GPFB`` crc32 framing.
- :mod:`repro.dist.shipping` — closure shipping: a pickler that sends
  lineage closures by value (marshalled code objects + cells) and swaps
  the driver context for the worker's.
- :mod:`repro.dist.worker` — the ``gpf worker`` daemon and the
  worker-side context/shuffle machinery.
- :mod:`repro.dist.cluster` — the driver side: ``FleetServer`` (worker
  registry, slot pool, block serving; a worker is live while its task
  channels are open) and ``ClusterExecutor``, the one remote
  ``Transport``.
- :mod:`repro.dist.spec` — shared ``--workers``-style spec parsers for
  ``gpf worker`` / ``gpf serve``.
"""
