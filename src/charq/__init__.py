"""Exact computation and cross-verification of factorial characters of the
classical groups GL(n), Sp(2n), SO(2n+1) and of factorial Q-functions.

Everything is computed in exact rational arithmetic over a shared
variable table; every headline object is available by at least two
independent routes whose agreement the test and verify suites check as
exact polynomial identities.
"""

from .algebra import (AIndexOutOfRange, AlgebraError, ExponentOverflow,
                      MultiPoly, NonExactDivision, NonInvertibleBinding,
                      TruncatedSeries, VarTable, VarTableMismatch, av,
                      determinant, exact_div, factorial_power, monomial,
                      permute_variables, poly_from_json, poly_from_obj,
                      poly_to_json, poly_to_obj, poly_to_text, specialize,
                      vartable, vartable_for, xbar, xv, ybar, yv)
from .characters import (GROUP_KINDS, char_combinatorial, char_definitional,
                         char_flagged_jt, char_hdet, character, h_factorial,
                         h_one_var, h_range, one_part_expansion)
from .lattice import Edge, Path, PathTuple, tableau_to_paths
from .partitions import (Partition, StrictPartition, enumerate_partitions)
from .qfunctions import (QFUNC_KINDS, TokuyamaReport, f_mpqn, q_determinantal,
                         q_md, q_tableaux, qfunction, qtilde, verify_tokuyama)
from .tableaux import (ALL_KINDS, CHAR_KINDS, Q_KINDS, Entry, Tableau,
                       ValidationReport, alphabet, count_tableaux,
                       enumerate_tableaux, tableau_from_obj, tableau_weight,
                       tableau_weight_sum, validate_tableau)
from .verify import SUITES, SuiteReport, run_suite

__version__ = "0.1.0"
