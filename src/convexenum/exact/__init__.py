"""Exact arithmetic kernel: polynomials, truncated series, rational
functions, linear algebra over those rings, and certified real root
isolation."""
