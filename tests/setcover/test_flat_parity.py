"""Flat-solver parity: the registry's solvers match the object reference.

The contract of :mod:`repro.setcover.flat` is *byte equality* with the
per-object reference solvers: same ``selected`` order, same float
``weight``, same ``algorithm`` label, same ``iterations``, and the same
``stats`` - flat covers merely add the ``incidence`` size, which
:func:`without_incidence` projects away.  Hypothesis drives the funnel
over random instances covering empty sets, exact weight ties, zero
weights, duplicate contents, single- and many-component shapes, and
uncoverable elements.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SetCoverError, UncoverableError
from repro.setcover import (
    SOLVERS,
    FlatSetCover,
    SetCoverInstance,
    exact_cover,
    flat_exact_cover,
    flat_greedy_cover,
    flat_layer_cover,
    flat_modified_greedy_cover,
    flat_modified_layer_cover,
    get_solver,
    greedy_cover,
    is_cover,
    layer_cover,
    modified_greedy_cover,
    modified_layer_cover,
)
from repro.setcover.decompose import solve_by_components
from repro.setcover.flat import NUMPY_MIN_NNZ
from repro.setcover.solvers import component_solver

PAIRS = [
    (greedy_cover, flat_greedy_cover),
    (modified_greedy_cover, flat_modified_greedy_cover),
    (layer_cover, flat_layer_cover),
    (modified_layer_cover, flat_modified_layer_cover),
    (exact_cover, flat_exact_cover),
]

#: Small weight pool with repeats so exact ties are common, plus zero
#: weights (free sets) and non-representable fractions.
WEIGHTS = (0.0, 0.25, 0.5, 1.0, 1.0, 1.5, 2.0, 10.0 / 3.0)

APPROX_PAIRS = PAIRS[:4]


@st.composite
def instances(draw, max_universe=24, max_sets=40, coverable=True):
    """Random instances: empty sets, ties, many shapes; coverable on demand."""
    n = draw(st.integers(min_value=0, max_value=max_universe))
    if n:
        elements = st.frozensets(
            st.integers(min_value=0, max_value=n - 1), max_size=min(8, n)
        )
    else:
        elements = st.just(frozenset())
    pool = draw(
        st.lists(
            st.tuples(st.sampled_from(WEIGHTS), elements), max_size=max_sets
        )
    )
    collections = [(w, tuple(sorted(els))) for w, els in pool]
    if coverable and n:
        collections.append((draw(st.sampled_from(WEIGHTS)), tuple(range(n))))
    return SetCoverInstance.from_collections(n, collections)


@st.composite
def blocky_instances(draw):
    """Many-component shapes: disjoint blocks plus their singleton sets."""
    blocks = draw(st.integers(min_value=1, max_value=6))
    block_size = draw(st.integers(min_value=1, max_value=4))
    n = blocks * block_size
    collections = []
    for b in range(blocks):
        base = b * block_size
        collections.append(
            (draw(st.sampled_from(WEIGHTS)), tuple(range(base, base + block_size)))
        )
        for e in range(base, base + block_size):
            collections.append((draw(st.sampled_from(WEIGHTS)), (e,)))
    return SetCoverInstance.from_collections(n, collections)


def without_incidence(stats):
    """A flat cover's stats minus ``incidence``, comparable to the reference."""
    return {k: v for k, v in stats.items() if k != "incidence"}


def assert_byte_identical(instance, object_solver, flat_solver):
    obj = object_solver(instance)
    flat = flat_solver(instance)
    assert flat.selected == obj.selected
    assert flat.weight == obj.weight  # bitwise, not approx
    assert flat.algorithm == obj.algorithm
    assert flat.iterations == obj.iterations
    assert without_incidence(flat.stats) == dict(obj.stats)
    assert isinstance(flat.stats["incidence"], int)
    assert is_cover(instance, flat.selected) or instance.n_elements == 0


class TestFlatParityProperty:
    @pytest.mark.parametrize("object_solver,flat_solver", APPROX_PAIRS)
    @settings(max_examples=60, deadline=None)
    @given(instance=instances())
    def test_random_instances(self, object_solver, flat_solver, instance):
        assert_byte_identical(instance, object_solver, flat_solver)

    @pytest.mark.parametrize("object_solver,flat_solver", APPROX_PAIRS)
    @settings(max_examples=30, deadline=None)
    @given(instance=blocky_instances())
    def test_many_components(self, object_solver, flat_solver, instance):
        assert_byte_identical(instance, object_solver, flat_solver)

    @settings(max_examples=40, deadline=None)
    @given(instance=instances(max_universe=14, max_sets=22))
    def test_exact_parity(self, instance):
        assert_byte_identical(instance, exact_cover, flat_exact_cover)

    @pytest.mark.parametrize("object_solver,flat_solver", PAIRS)
    @settings(max_examples=25, deadline=None)
    @given(instance=instances(max_universe=10, max_sets=12, coverable=False))
    def test_uncoverable_parity(self, object_solver, flat_solver, instance):
        """Both engines agree on coverability - and on the error message."""
        try:
            expected = object_solver(instance)
        except UncoverableError as error:
            with pytest.raises(UncoverableError) as caught:
                flat_solver(instance)
            assert str(caught.value) == str(error)
        else:
            got = flat_solver(instance)
            assert got.selected == expected.selected
            assert got.weight == expected.weight


class TestFlatParityEdges:
    @pytest.mark.parametrize("object_solver,flat_solver", PAIRS)
    def test_empty_universe(self, object_solver, flat_solver):
        instance = SetCoverInstance.from_collections(0, [])
        assert_byte_identical(instance, object_solver, flat_solver)

    @pytest.mark.parametrize("object_solver,flat_solver", PAIRS)
    def test_empty_sets_are_skipped(self, object_solver, flat_solver):
        instance = SetCoverInstance.from_collections(
            2, [(1.0, []), (1.0, [0, 1]), (0.5, [])]
        )
        cover = flat_solver(instance)
        assert cover.selected == (1,)
        assert_byte_identical(instance, object_solver, flat_solver)

    @pytest.mark.parametrize("object_solver,flat_solver", PAIRS)
    def test_exact_weight_ties_break_by_id(self, object_solver, flat_solver):
        instance = SetCoverInstance.from_collections(
            2, [(1.0, [0, 1]), (1.0, [0, 1]), (1.0, [0, 1])]
        )
        cover = flat_solver(instance)
        assert cover.selected == (0,)
        assert_byte_identical(instance, object_solver, flat_solver)

    @pytest.mark.parametrize("object_solver,flat_solver", PAIRS)
    def test_duplicate_contents_tolerated(self, object_solver, flat_solver):
        instance = SetCoverInstance.from_collections(1, [(1.0, [0]), (1.0, [0])])
        assert_byte_identical(instance, object_solver, flat_solver)

    def test_exact_size_guard_matches(self):
        instance = SetCoverInstance.from_collections(
            100, [(1.0, list(range(100)))]
        )
        with pytest.raises(SetCoverError):
            flat_exact_cover(instance, max_elements=64)


class TestFlatView:
    def test_csr_shapes(self):
        instance = SetCoverInstance.from_collections(
            3, [(1.0, [0, 2]), (2.0, []), (1.0, [1, 2])]
        )
        view = instance.flat()
        assert isinstance(view, FlatSetCover)
        assert view.n_elements == 3 and view.n_sets == 3
        assert view.nnz == 4
        assert view.set_start == [0, 2, 2, 4]
        assert view.set_elements == [0, 2, 1, 2]
        # element rows ascend by set id.
        assert view.element_start == [0, 1, 2, 4]
        assert view.element_sets == [0, 2, 0, 2]
        assert view.set_sizes() == [2, 0, 2]
        assert view.max_frequency() == instance.max_frequency == 2

    def test_view_is_cached_on_the_instance(self):
        instance = SetCoverInstance.from_collections(1, [(1.0, [0])])
        assert instance.flat() is instance.flat()

    def test_uncoverable_message_matches_object_engine(self):
        instance = SetCoverInstance.from_collections(2, [(1.0, [1])])
        with pytest.raises(UncoverableError) as flat_error:
            instance.flat().check_coverable()
        with pytest.raises(UncoverableError) as object_error:
            instance.check_coverable()
        assert str(flat_error.value) == str(object_error.value)

    def test_build_span_encloses_the_build(self):
        """The ``setcover:flat-build`` span times the CSR build itself."""
        from repro.obs import Tracer

        instance = SetCoverInstance.from_collections(
            400, [(1.0, sorted({e, (e + 1) % 400, (e * 7) % 400})) for e in range(400)]
        )
        tracer = Tracer("build")
        with tracer.activate():
            view = instance.flat()
        span = tracer.finish().find("setcover:flat-build")
        assert span is not None
        assert span.duration >= view.build_seconds > 0.0
        assert span.tags["nnz"] == view.nnz
        assert span.tags["seconds"] == view.build_seconds

    @pytest.mark.parametrize("nnz", [NUMPY_MIN_NNZ - 1, NUMPY_MIN_NNZ])
    def test_numpy_inversion_starts_at_the_cutoff(self, nnz):
        """Tiny instances (decomposed components) invert in pure Python;
        both inversions produce the same arrays on either side."""
        pytest.importorskip("numpy")
        instance = SetCoverInstance.from_collections(
            7, [(1.0, [(3 * i) % 7]) for i in range(nnz)]
        )
        view = instance.flat()
        assert view.nnz == nnz
        assert view.accelerated == (nnz >= NUMPY_MIN_NNZ)
        built = (view.element_start, view.element_sets)
        assert built == view._invert_pure() == view._invert_numpy()

    def test_build_seconds_not_in_stats(self):
        """Wall clock must never leak into ``Cover.stats`` (determinism)."""
        instance = SetCoverInstance.from_collections(1, [(1.0, [0])])
        cover = flat_greedy_cover(instance)
        assert instance.flat().build_seconds >= 0.0
        assert set(cover.stats) == {"scanned_sets", "incidence"}


class TestDecomposedParity:
    @settings(max_examples=25, deadline=None)
    @given(instance=blocky_instances())
    def test_by_components_flat_matches_object(self, instance):
        obj = solve_by_components(instance, modified_greedy_cover)
        flat = solve_by_components(instance, flat_modified_greedy_cover)
        assert flat.selected == obj.selected
        assert flat.weight == obj.weight
        assert flat.algorithm == obj.algorithm  # flat_ prefix stripped
        assert flat.iterations == obj.iterations
        assert without_incidence(flat.stats) == dict(obj.stats)

    def test_exact_decomposed_parity(self):
        instance = SetCoverInstance.from_collections(
            4, [(1.0, [0, 1]), (2.0, [2, 3]), (1.5, [2]), (1.5, [3])]
        )
        obj = solve_by_components(
            instance,
            exact_cover,
            max_component_elements=64,
            fallback=modified_greedy_cover,
        )
        flat = get_solver("exact-decomposed")(instance)
        assert flat.selected == obj.selected
        assert flat.weight == obj.weight
        assert flat.algorithm == obj.algorithm
        assert without_incidence(flat.stats) == dict(obj.stats)


class TestEngineRegistry:
    def test_registry_maps_to_flat_solvers(self):
        assert get_solver("greedy") is flat_greedy_cover
        assert get_solver("modified-greedy") is flat_modified_greedy_cover
        assert get_solver("layer") is flat_layer_cover
        assert get_solver("modified-layer") is flat_modified_layer_cover
        assert get_solver("exact") is flat_exact_cover

    def test_flat_registry_covers_all_but_lp(self):
        """No registry name reaches an object reference solver."""
        reference = {
            greedy_cover,
            modified_greedy_cover,
            layer_cover,
            modified_layer_cover,
            exact_cover,
        }
        assert not reference & set(SOLVERS.values())

    def test_lp_rounding_falls_back_to_object(self):
        """lp-rounding is scipy-bound and has no flat implementation."""
        pytest.importorskip("scipy")
        from repro.setcover.lp import lp_rounding_cover

        instance = SetCoverInstance.from_collections(2, [(1.0, [0, 1])])
        assert get_solver("lp-rounding")(instance) == lp_rounding_cover(instance)

    def test_callable_passes_through_any_engine(self):
        assert get_solver(greedy_cover) is greedy_cover

    def test_component_solver_flat_exact_decomposed(self):
        solver, max_elements, fallback = component_solver("exact-decomposed")
        assert solver is flat_exact_cover
        assert max_elements == 64
        assert fallback is flat_modified_greedy_cover


class TestInstanceValidation:
    def test_duplicate_set_ids_raise(self):
        from repro.setcover import WeightedSet

        with pytest.raises(SetCoverError, match="duplicate set id"):
            SetCoverInstance(
                1, [WeightedSet(0, 1.0, (0,)), WeightedSet(0, 2.0, (0,))]
            )

    def test_non_consecutive_ids_still_raise(self):
        from repro.setcover import WeightedSet

        with pytest.raises(SetCoverError, match="consecutive"):
            SetCoverInstance(1, [WeightedSet(1, 1.0, (0,))])
