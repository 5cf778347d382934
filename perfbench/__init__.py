"""One benchmark for the admission path (see ``perfbench/README.md``)."""
