"""Tests of the Spark session plumbing: the Python worker daemon's
stat-checked zip invalidation, and its use by the session's workers."""
import importlib
import os
import sys
import zipfile
import zipimport

from repro import spark_daemon


def _write_zip(path, modules):
    with zipfile.ZipFile(path, "w") as z:
        for name, source in modules.items():
            z.writestr(f"{name}.py", source)


class TestStatCheckedInvalidation:
    def test_unchanged_archive_is_not_reread(self, tmp_path):
        archive = tmp_path / "lib.zip"
        _write_zip(archive, {"zmod_a": "X = 1\n"})
        importer = zipimport.zipimporter(str(archive))
        spark_daemon.invalidate_caches(importer)  # records the stamp
        files = importer._files
        spark_daemon.invalidate_caches(importer)
        assert importer._files is files

    def test_rewritten_archive_is_reread(self, tmp_path, monkeypatch):
        """A module added to an archive on the path imports after the
        next ``importlib.invalidate_caches()``, as PySpark's workers
        rely on for files shipped while they run."""
        archive = tmp_path / "lib.zip"
        _write_zip(archive, {"zmod_a": "X = 1\n"})
        monkeypatch.setattr(zipimport.zipimporter, "invalidate_caches", spark_daemon.invalidate_caches)
        monkeypatch.syspath_prepend(str(archive))
        try:
            assert importlib.import_module("zmod_a").X == 1
            _write_zip(archive, {"zmod_a": "X = 1\n", "zmod_b": "Y = 2\n"})
            importlib.invalidate_caches()
            assert importlib.import_module("zmod_b").Y == 2
        finally:
            for name in ("zmod_a", "zmod_b"):
                sys.modules.pop(name, None)


def _probe(batches):
    """Run in a Python worker: which ``invalidate_caches`` its zip
    importers have, how many there are, and how many of them one
    ``importlib.invalidate_caches()`` re-reads."""
    import pyarrow as pa

    for _ in batches:
        pass
    zips = [f for f in sys.path_importer_cache.values() if isinstance(f, zipimport.zipimporter)]
    before = [f._files for f in zips]
    importlib.invalidate_caches()
    yield pa.RecordBatch.from_pydict({
        "code": [zipimport.zipimporter.invalidate_caches.__code__.co_filename],
        "zips": [len(zips)],
        "reread": [sum(f._files is not b for f, b in zip(zips, before))],
    })


def test_workers_run_the_stat_checked_invalidation(spark):
    rows = spark.range(4).mapInArrow(_probe, "code string, zips long, reread long").collect()
    assert rows
    for row in rows:
        assert os.path.realpath(row.code) == os.path.realpath(spark_daemon.__file__)
        assert row.zips > 0 and row.reread == 0
