"""Outside-in benchmark of the PDS reproduction (see NOTES.md)."""
