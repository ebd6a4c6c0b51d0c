"""Lexing, parsing, and pretty-printing of the textual model language."""
