"""Acceptance suite: one test per acceptance criterion, so the verbose
report shows a single pass/fail line for each.  Each criterion calls the
check functions of the unit modules that own its layers, and the unit tests
call the same functions, so a criterion and its unit test cannot drift
apart.

1.  basis closure at ranks 2..5 with exactly (2n-1)!! normal words
2.  defining relations hold in the regular representation, ranks 2..5
3.  agreement with the free-quotient oracle on all products, ranks 2..3
4.  commuting family: commutativity, non-centrality witness, triangular
    action with content eigenvalues, rank-2 closed form
5.  cell module dimensions match up-down tableau counts, ranks 2..6
6.  restriction filtration identified for every label, ranks 2..5
7.  bad-exponent scans, ranks 2..4 (rank 5 in a separate optional test)
8.  non-semisimplicity at small quantum characteristic
9.  radical is nonzero exactly at admissible exponents, with the factor
    shape identified by its spectrum, ranks 3..4
10. form on the deficiency-one layer: commutation and entry shapes
11. classical limit reproduces the diagram-algebra structure constants
12. image dimension under the corner-idempotent functor, ranks 2..5
"""

import pytest
from test_algebra import (
    check_basis_closure,
    check_e1_relations,
    check_jm_commute,
    check_jm_sum_not_central,
    check_relations_on_basis,
)
from test_cells import (
    check_dimensions,
    check_filtration,
    check_functor_image,
    check_radical_iff_admissible,
    check_triangularity,
    check_v_form_entry_shapes,
    check_v_layer_form,
)
from test_oracle import check_classical_limit, check_oracle_agreement
from test_semisimple import check_scan, check_small_quantum_characteristic

from qbrauer.cells import cell_module
from qbrauer.coefficients import ONE, Q, QINV, ZINV


def test_criterion_01_basis_closure():
    for n in (2, 3, 4, 5):
        check_basis_closure(n)


def test_criterion_02_defining_relations():
    for n in (2, 3, 4, 5):
        check_relations_on_basis(n)
        check_e1_relations(n)


def test_criterion_03_oracle_agreement():
    for n in (2, 3):
        check_oracle_agreement(n)


def test_criterion_04_commuting_family():
    for n in (2, 3, 4, 5):
        check_jm_commute(n)
    check_jm_sum_not_central(4)
    for n in (2, 3, 4, 5):
        check_triangularity(n)
    # rank-2 closed form: eigenvalue (q^2 z^-2 - 1)/(q - q^-1)
    val = cell_module(2, 1, ()).jm_matrix(2)[0][0]
    assert val == (Q * Q * ZINV * ZINV - ONE) / (Q - QINV)


def test_criterion_05_dimensions():
    for n in range(2, 7):
        check_dimensions(n)


def test_criterion_06_branching_filtration():
    for n in (2, 3, 4, 5):
        check_filtration(n)


def test_criterion_07_bad_exponent_scan():
    for n in (2, 3, 4):
        check_scan(n)


@pytest.mark.slow
def test_criterion_07_optional_rank_five_scan():
    check_scan(5)


def test_criterion_08_small_quantum_characteristic():
    check_small_quantum_characteristic()


def test_criterion_09_admissibility_iff_radical():
    for n in (3, 4):
        check_radical_iff_admissible(n)


def test_criterion_10_deficiency_one_form():
    for n in (3, 4):
        check_v_layer_form(n)
        check_v_form_entry_shapes(n)


def test_criterion_11_classical_limit():
    for a in (-2, -1, 0, 1, 2, 3):
        check_classical_limit(3, a)


def test_criterion_12_functor_image_dimension():
    for n in (2, 3, 4, 5):
        check_functor_image(n)
