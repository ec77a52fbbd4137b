"""Crash-safe output: a writer that fails leaves no partial file."""

import os

import pytest

from lexinduct import read_links, write_links
from lexinduct.fileio import atomic_write


def leftovers(directory, name):
    return [p for p in os.listdir(directory) if p != name]


class TestAtomicWrite:
    def test_complete_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with atomic_write(path) as fh:
            fh.write("new\n")
            assert path.read_text(encoding="utf-8") == "old\n"
        assert path.read_text(encoding="utf-8") == "new\n"
        assert leftovers(tmp_path, "out.txt") == []

    def test_writer_raising_mid_write_leaves_nothing_behind(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("half a line")
                raise RuntimeError("killed")
        assert os.listdir(tmp_path) == []

    def test_writer_raising_keeps_the_previous_output(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"complete")
        with pytest.raises(RuntimeError):
            with atomic_write(path, binary=True) as fh:
                fh.write(b"partial")
                raise RuntimeError("killed")
        assert path.read_bytes() == b"complete"
        assert leftovers(tmp_path, "out.bin") == []

    def test_stage_writer_failing_mid_file(self, tmp_path):
        path = tmp_path / "links.txt"
        # The second sentence's links cannot be sorted: the writer raises
        # after the first line was written.
        with pytest.raises(TypeError):
            write_links([{(0, 0)}, {(0, 1), (0, "x")}], path)
        assert os.listdir(tmp_path) == []
        write_links([{(0, 0)}, {(1, 0), (0, 1)}], path)
        assert read_links(path) == [{(0, 0)}, {(0, 1), (1, 0)}]
        assert leftovers(tmp_path, "links.txt") == []

    def test_non_regular_target_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with atomic_write(fifo) as fh:
                fh.write("through\n")
            assert os.read(reader, 100) == b"through\n"
        finally:
            os.close(reader)
        assert leftovers(tmp_path, "pipe") == []
