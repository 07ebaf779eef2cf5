"""Subgroup perfect codes in Cayley graphs of small finite groups."""
