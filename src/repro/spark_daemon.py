"""The PySpark worker daemon of this program's Spark sessions, set as
``spark.python.daemon.module`` by ``spark_session.session_conf()``.

PySpark 4.1 calls ``importlib.invalidate_caches()`` at the start of every
task (``worker_util.setup_spark_files``). On Python 3.11 that makes every
``zipimporter`` on the worker's path re-read its archive's whole directory:
16 importers in a UDF worker (12–13 over ``pyspark.zip``, two over the
15 MB spark-core jar, the rest over py4j), 175–245 ms of CPU per task on
a 4-core host before the UDF runs. (CPython 3.13's zipimport only drops
its cache entry there.) This daemon makes a zipimporter re-read its
archive only when the archive's ``(st_mtime_ns, st_size)`` changed since
that importer last read it, records every importer's stamp once before
it forks a worker, and then runs PySpark's own daemon.

Run: ``python -m repro.spark_daemon`` (Spark starts it). The hook is the
daemon, not ``spark.python.worker.module``: ``pyspark/daemon.py`` ignores a
worker module whose name does not start with ``pyspark``.
"""
import importlib
import os
import zipimport

_read_archive = zipimport.zipimporter.invalidate_caches


def invalidate_caches(self: zipimport.zipimporter) -> None:
    """Re-read the archive's directory unless its ``(st_mtime_ns,
    st_size)`` is the one this importer last read it at."""
    try:
        st = os.stat(self.archive)
        stamp = (st.st_mtime_ns, st.st_size)
    except OSError:
        stamp = None
    if stamp is None or stamp != getattr(self, "_stamp", None):
        _read_archive(self)
        self._stamp = stamp


def main() -> None:
    from pyspark import daemon

    zipimport.zipimporter.invalidate_caches = invalidate_caches
    importlib.invalidate_caches()
    daemon.manager()


if __name__ == "__main__":
    main()
