import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from buckbounds import Domain, assemble_forms

import oracles

EDGE = st.floats(min_value=0.3, max_value=3.0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(edges=st.tuples(EDGE, EDGE), l=st.integers(2, 6), m=st.integers(1, 3))
def test_rectangle_forms_equal_the_laplacian_expansion(edges, l, m):
    # the package builds each form from equal-order blocks; the oracle expands
    # the Laplacian power entry by entry, and both round the same rational
    forms = assemble_forms(Domain(edges), l, m)
    reference = oracles.reference_forms(edges, l, m)
    assert len(forms.matrices) == len(reference) == l
    for ours, theirs in zip(forms.matrices, reference):
        assert np.array_equal(ours, theirs)
