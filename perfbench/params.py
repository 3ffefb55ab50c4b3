"""Inputs of the benchmark workloads that the harness needs without
importing the program."""

WORKLOADS = ("extend_heis", "identities_heis", "covering_heis")

# Input sizes.  "full" is the benchmark; "tiny" only exercises the harness
# (its outputs are not expected to pass the gates).
#   extend_heis: the a list and grids of acceptance 09, cut to four scales
#     and a 13^3 outer grid so that one job list takes seconds, not minutes
#   identities_heis: the Heisenberg smooth block of acceptance 04 with
#     1 <= |alpha| <= 2 (order 3 alone would add about 50 s)
#   covering_heis: the Heisenberg measure and parameters of acceptance 11
SIZES = {
    "full": dict(outer=13, inner=21, zeta=21, identities_grid=41,
                 max_order=2, depth=4),
    "tiny": dict(outer=5, inner=7, zeta=7, identities_grid=13,
                 max_order=1, depth=1),
}
EXTEND_A_LIST = [1.0, 0.5, 0.25, 0.125]
COVERING_ATOMS = [[0.0, 0.0, 0.0], [2.5, 0.0, 0.3]]

# the benchmark seed selects input variant seed % VARIANTS; every variant
# has a stored extend_heis reference
VARIANTS = 64
# largest move per axis of a density centre, or of the covering's second
# atom before it is dilated back onto its gauge sphere, away from its
# acceptance position
SHIFT_JITTER = 0.05
