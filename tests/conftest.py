import sys
from functools import cached_property
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import (fraction_associators, fraction_canonical_product,
                     fraction_first_curvature_violation, fraction_symplectic_violations,
                     fraction_validate, reference_associators,
                     reference_curvature_witness, reference_flatness)
from symplie import catalog, double_extend
from symplie.catalog import (admissible_family, classify_upto6, family_names,
                             family_parameter_grid)
from symplie.lie import LieAlgebra
from symplie.symplectic import SkewForm


@pytest.fixture(scope="session")
def entries():
    """Catalog entries built once per test session."""
    return {name: catalog.get(name) for name in catalog.names()}


@pytest.fixture(scope="session")
def family_sweep():
    """Every family grid point, extended and classified; shared because
    the sweep is the most expensive fixture in the suite."""
    results = {}
    for fam in family_names():
        base_name = catalog.FAMILY_BASES[fam]
        base = catalog.get(base_name).algebra
        points = []
        for params in family_parameter_grid(fam):
            got_base_name, pair = admissible_family(fam, params)
            assert got_base_name == base_name
            ext = double_extend(base, pair)
            points.append((params, pair, ext, classify_upto6(ext)))
        results[fam] = points
    return results


class References:
    """The oracle values for one (algebra, form) pair, each computed on
    first use.  They are computed on a copy of the bracket table and the
    Gram matrix, so no object under test, and no cache on one, is shared
    with them; the session fixtures below keep them, so that each
    reference of the sweep and of the dense bases is computed once."""

    def __init__(self, s):
        self._source = s

    @cached_property
    def parts(self) -> tuple:
        s = self._source
        return LieAlgebra(s.algebra.basis_names, s.algebra.table), SkewForm(s.form.matrix)

    @cached_property
    def validate(self) -> tuple:
        return fraction_validate(self.parts[0])

    @cached_property
    def violations(self) -> list:
        return fraction_symplectic_violations(*self.parts)

    @cached_property
    def product(self):
        return fraction_canonical_product(*self.parts)

    @cached_property
    def fraction_witness(self):
        return fraction_first_curvature_violation(self.product, self.parts[0].table)

    @cached_property
    def fraction_associators(self) -> tuple:
        return fraction_associators(self.product)

    @cached_property
    def witness(self):
        return reference_curvature_witness(self.product, self.parts[0])

    @cached_property
    def associators(self) -> tuple:
        return reference_associators(self.product)

    @cached_property
    def flatness(self):
        return reference_flatness(self.product, self.witness, self.associators)


@pytest.fixture(scope="session")
def sweep_references(family_sweep):
    """{family: [References of each point's extension]}, in sweep order."""
    return {fam: [References(ext) for _, _, ext, _ in points]
            for fam, points in family_sweep.items()}


@pytest.fixture(scope="session")
def dense_references(entries):
    """{label: References} for the 36 dense bases of test_sparse_kernels,
    built from their own copy of the bases."""
    from test_sparse_kernels import dense_bases
    return {label: References(s) for label, s in dense_bases(entries)}
