"""Helpers shared by the test modules."""


def timeline_text(rows):
    """The CSV text of timeline rows, header excluded. It packs the pending
    rows and reads the rows' file from its start; the read ends at the end of
    the file, where the next pack writes."""
    rows.pack()
    rows._file.seek(0)
    return rows._file.read()
