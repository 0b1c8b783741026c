"""Tests for plain-text table rendering."""

from repro.util.tables import format_table


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["name", "v"], [["a", 1], ["longer", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "-" in lines[1]
        # Columns align: 'v' column starts at the same offset everywhere.
        assert lines[2].startswith("a")
        assert lines[3].startswith("longer")
        offset = lines[0].index("v")
        assert lines[2][offset] == "1"

    def test_title(self):
        out = format_table(["h"], [["x"]], title="T")
        assert out.splitlines()[0] == "T"

    def test_ragged_rows_padded(self):
        out = format_table(["a", "b"], [["1"], ["2", "3"]])
        assert "3" in out

    def test_empty_rows(self):
        out = format_table(["only", "headers"], [])
        assert "only" in out and "headers" in out

    def test_non_string_cells(self):
        out = format_table(["x"], [[3.5], [None]])
        assert "3.5" in out and "None" in out
