"""Size caps for the symbolic engine and the brute-force verifier.

Every bound that keeps a computation desk-scale is a constant here, read by
the one module that enforces it.  The values are generous enough for every
shipped example and test; input past a cap is rejected with a QfiltError.
"""

INF = float("inf")

MAX_PRIME = 257                     # largest prime modulus for a coefficient field
MAX_POLY_ENUMERATION = 2_000_000    # candidate count guard for irreducible sieves; a point
                                    # of degree n over F_p is checked only while p^n is within it
MAX_POLY_DEGREE = 1024              # degree of a polynomial read from a literal or --ring
MAX_QUOTIENT_DEGREE = 6             # modulus degree for divisor-lattice enumeration
MAX_UNION_COMPONENTS = 64           # explicit disjoint-union component count
MAX_ORACLE_ELEMENTS = 4096          # finite-ring size for exhaustive tables, and the size of
                                    # the largest module the oracle builds at its length bound
MAX_ORACLE_IDEALS = 24              # ideal count for filter enumeration
MAX_SUBCAT_LENGTH = 8               # composition-length bound for module enumeration
