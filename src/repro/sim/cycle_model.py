"""Cycle-level performance and energy model of DB-PIM vs the dense baseline.

This is the analytical counterpart of the paper's cycle-accurate C++
simulator: for every layer of a workload it derives, from the static mapping
and the layer's sparsity profile, the broadcast cycles, cell activity,
metadata traffic and buffer traffic -- and from those the latency and energy
of the four configurations compared in Fig. 7:

* ``base``            -- dense digital PIM baseline,
* ``input sparsity``  -- baseline mapping + IPU zero-column skipping,
* ``weight sparsity`` -- dyadic-block mapping, no input skipping,
* ``hybrid sparsity`` -- both (the full DB-PIM).

Interchangeable engines back the model, resolved through the engine
registry of :mod:`repro.sim.engines` (see :data:`ENGINES`,
``docs/performance.md`` and ``docs/testing.md``):

* ``"vectorized"`` (default) -- the NumPy batch kernel of
  :mod:`repro.sim.vectorized`, which evaluates whole layers -- and batches
  of (model, variant, config) jobs via :meth:`CycleModel.run_batch` -- as
  array operations;
* ``"scalar"`` -- the original per-layer reference implementation, kept
  selectable for auditing; every other registered cycle-model engine is
  pinned bitwise-equal to it by the auto-applied conformance suite in
  ``tests/engines/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__docformat__ = "numpy"

from ..arch.config import DBPIMConfig, SPARSITY_VARIANTS
from ..arch.energy import EnergyBreakdown, EnergyModel
from ..compiler.mapping import map_layer
from ..workloads.layers import LayerShape
from ..workloads.profiles import LayerSparsityProfile, ModelSparsityProfile
from .engines import (
    EngineSpec,
    cycle_model_engines,
    resolve_cycle_model_engine,
)
from .vectorized import (
    BatchActivity,
    ProfileArrays,
    profile_arrays,
)

__all__ = [
    "LayerPerformance",
    "ModelPerformance",
    "CycleModel",
    "SPARSITY_VARIANTS",
    "ENGINES",
    "DEFAULT_ENGINE",
]

#: The cycle-model-capable engines registered at import time, in
#: registration order.  Kept as a module constant for backwards
#: compatibility; the engine registry (:mod:`repro.sim.engines`) is the
#: live source of truth and also covers engines registered later.
ENGINES = cycle_model_engines()

#: Engine used when none is requested: the NumPy batch kernel.
DEFAULT_ENGINE = "vectorized"


@dataclass
class LayerPerformance:
    """Latency / energy / activity of one layer under one configuration.

    Attributes
    ----------
    layer : LayerShape
        The layer the numbers describe.
    cycles : float
        Bit-serial broadcast cycles of the whole layer.
    cell_activations : float
        6T cells driven over all cycles.
    effective_cell_activations : float
        Cells whose activation did useful work (``U_act`` numerator).
    energy : EnergyBreakdown
        Component-wise energy of the layer (pJ).
    macs : int
        Multiply-accumulate operations of the layer.
    """

    layer: LayerShape
    cycles: float
    cell_activations: float
    effective_cell_activations: float
    energy: EnergyBreakdown
    macs: int

    @property
    def actual_utilization(self) -> float:
        """``U_act`` of Eq. (1) for this layer."""
        if self.cell_activations == 0:
            return 0.0
        return self.effective_cell_activations / self.cell_activations


@dataclass
class ModelPerformance:
    """Aggregated performance of a whole workload under one configuration.

    Attributes
    ----------
    name : str
        Workload name.
    variant : str
        The Fig. 7 configuration the numbers belong to (``"base"``,
        ``"input"``, ``"weight"`` or ``"hybrid"``).
    layers : list of LayerPerformance
        Per-layer results, in network order.
    """

    name: str
    variant: str
    layers: List[LayerPerformance] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        """Broadcast cycles summed over every layer."""
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_energy_pj(self) -> float:
        """Energy summed over every layer, in pJ."""
        return sum(layer.energy.total_pj for layer in self.layers)

    @property
    def total_macs(self) -> int:
        """Multiply-accumulates summed over every layer."""
        return sum(layer.macs for layer in self.layers)

    @property
    def actual_utilization(self) -> float:
        """Model-level ``U_act``: effective / total cell activations."""
        total = sum(layer.cell_activations for layer in self.layers)
        effective = sum(layer.effective_cell_activations for layer in self.layers)
        return effective / total if total else 0.0

    def energy_breakdown(self) -> Dict[str, float]:
        """Component-wise energy of the whole model (pJ)."""
        combined = EnergyBreakdown()
        for layer in self.layers:
            combined.merge(layer.energy)
        return combined.as_dict()


class CycleModel:
    """Analytical latency/energy model over workload sparsity profiles.

    Parameters
    ----------
    config : DBPIMConfig, optional
        Hardware configuration (the paper's DB-PIM default when omitted).
    energy_model : EnergyModel, optional
        Activity-to-energy pricing (shared component library default).
    engine : str, optional
        Name of a registered cycle-model engine (see
        :mod:`repro.sim.engines`): ``"vectorized"`` (default) for the NumPy
        batch kernel or ``"scalar"`` for the per-layer reference
        implementation; all cycle-model engines produce bitwise-identical
        results (pinned by the conformance suite in ``tests/engines/``).

    Raises
    ------
    ValueError
        For an unregistered engine name (listing the registered engines
        sorted), or a registered engine that is not cycle-model-capable.
    """

    def __init__(
        self,
        config: Optional[DBPIMConfig] = None,
        energy_model: Optional[EnergyModel] = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.engine_spec: EngineSpec = resolve_cycle_model_engine(engine)
        self.config = config or DBPIMConfig()
        self.energy_model = energy_model or EnergyModel()
        self.engine = self.engine_spec.name

    # ------------------------------------------------------------------
    # Configuration variants
    # ------------------------------------------------------------------
    @staticmethod
    def variant_config_of(config: DBPIMConfig, variant: str) -> DBPIMConfig:
        """The Fig. 7 variant of an arbitrary base configuration.

        Parameters
        ----------
        config : DBPIMConfig
            Base (hybrid) hardware configuration.
        variant : str
            One of :data:`SPARSITY_VARIANTS`.

        Returns
        -------
        DBPIMConfig
            ``config`` with the variant's sparsity flags applied.
        """
        return config.for_variant(variant)

    def variant_config(self, variant: str) -> DBPIMConfig:
        """The hardware configuration of one Fig. 7 variant."""
        return self.variant_config_of(self.config, variant)

    # ------------------------------------------------------------------
    # Per-layer model (scalar reference; also the single-layer API)
    # ------------------------------------------------------------------
    def run_layer(
        self, profile: LayerSparsityProfile, variant: str = "hybrid"
    ) -> LayerPerformance:
        """Latency/energy of one layer under one configuration.

        Always evaluated by the scalar reference path (a single layer has
        nothing to batch).

        Parameters
        ----------
        profile : LayerSparsityProfile
            The layer's sparsity statistics.
        variant : str, optional
            One of :data:`SPARSITY_VARIANTS` (default ``"hybrid"``).

        Returns
        -------
        LayerPerformance
            The layer's cycles, cell activity and energy.
        """
        config = self.variant_config(variant)
        layer = profile.layer
        mapping = map_layer(
            layer,
            config=config,
            thresholds=profile.thresholds if config.weight_sparsity else None,
            input_active_columns=(
                profile.input_active_columns if config.input_sparsity else None
            ),
        )
        cycles = mapping.total_cycles
        cell_activations = mapping.total_cell_activations
        if config.weight_sparsity:
            # Cells hold Comp. Pattern blocks; padding slots are the only
            # ineffective cells.
            effective = cell_activations * profile.storage_utilization
        else:
            # Cells hold plain binary weights; only the non-zero bits do
            # useful work.
            effective = cell_activations * (1.0 - profile.weight_zero_bit_ratio_binary)
        adder_ops = cell_activations
        post_processing_ops = cycles * mapping.filters_per_pass
        ipu_bits = layer.activation_count * config.macro.input_bits
        weight_bytes = layer.weight_count * (1 if config.weight_sparsity else 1)
        meta_bytes = (
            layer.weight_count if config.weight_sparsity else 0
        )
        feature_bytes = layer.activation_count + layer.out_channels * layer.output_positions
        energy = self.energy_model.layer_energy(
            cycles=cycles,
            cell_activations=cell_activations,
            adder_tree_ops=adder_ops,
            post_processing_ops=post_processing_ops,
            ipu_bits=ipu_bits,
            meta_rf_bytes=meta_bytes,
            buffer_bytes=weight_bytes + feature_bytes,
        )
        return LayerPerformance(
            layer=layer,
            cycles=cycles,
            cell_activations=cell_activations,
            effective_cell_activations=effective,
            energy=energy,
            macs=layer.macs,
        )

    # ------------------------------------------------------------------
    # Whole-model model
    # ------------------------------------------------------------------
    def run_model(
        self, profile: ModelSparsityProfile, variant: str = "hybrid"
    ) -> ModelPerformance:
        """Latency/energy of a whole workload under one configuration.

        Dispatches to the engine selected at construction; every
        registered cycle-model engine returns identical numbers.

        Parameters
        ----------
        profile : ModelSparsityProfile
            The profiled workload.
        variant : str, optional
            One of :data:`SPARSITY_VARIANTS` (default ``"hybrid"``).

        Returns
        -------
        ModelPerformance
            Per-layer and aggregate performance of the workload.
        """
        if not self.engine_spec.batch:
            return self._run_model_scalar(profile, variant)
        return self.run_batch([(profile, variant)])[0]

    def _run_model_scalar(
        self,
        profile: ModelSparsityProfile,
        variant: str,
        base_config: Optional[DBPIMConfig] = None,
    ) -> ModelPerformance:
        """Reference per-layer loop (the original engine)."""
        if base_config is not None and base_config is not self.config:
            reference = CycleModel(
                base_config, self.energy_model, engine="scalar"
            )
            return reference._run_model_scalar(profile, variant)
        performance = ModelPerformance(
            name=profile.workload.name, variant=variant
        )
        for layer_profile in profile.layers:
            performance.layers.append(self.run_layer(layer_profile, variant))
        return performance

    def run_all_variants(
        self, profile: ModelSparsityProfile
    ) -> Dict[str, ModelPerformance]:
        """Run the four Fig. 7 configurations for one workload.

        With the vectorized engine all four variants are evaluated as one
        batched array pass over the profile.

        Parameters
        ----------
        profile : ModelSparsityProfile
            The profiled workload.

        Returns
        -------
        dict of str to ModelPerformance
            One entry per :data:`SPARSITY_VARIANTS` name.
        """
        if not self.engine_spec.batch:
            return {
                variant: self._run_model_scalar(profile, variant)
                for variant in SPARSITY_VARIANTS
            }
        performances = self.run_batch(
            [(profile, variant) for variant in SPARSITY_VARIANTS]
        )
        return dict(zip(SPARSITY_VARIANTS, performances))

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def run_batch(
        self, jobs: Sequence[Tuple[ModelSparsityProfile, str]]
    ) -> List[ModelPerformance]:
        """Evaluate many (profile, variant) jobs in one vectorized pass.

        Dispatches through the engine's registered
        :attr:`~repro.sim.engines.EngineSpec.run_jobs` hook.  With the
        vectorized engine the layers of every job are concatenated into a
        single structure-of-arrays batch -- hardware geometry and sparsity
        flags become per-layer arrays -- so an entire design-space axis
        (models, variants, macro counts, ...) is simulated by one NumPy
        expression instead of nested Python loops.  With the scalar engine
        the jobs fall back to a per-job reference loop.

        Parameters
        ----------
        jobs : sequence of (ModelSparsityProfile, str)
            The (workload profile, Fig. 7 variant) pairs to evaluate under
            this model's configuration.

        Returns
        -------
        list of ModelPerformance
            One result per job, in job order.

        Raises
        ------
        ValueError
            If a variant name is unknown.
        """
        jobs = list(jobs)
        config_list = [self.config] * len(jobs)
        variant_configs = [
            self.variant_config_of(self.config, variant) for _, variant in jobs
        ]
        return self.engine_spec.run_jobs(
            self, jobs, config_list, variant_configs
        )

    def _arrays_for(self, profile: ModelSparsityProfile) -> ProfileArrays:
        """Memoised :class:`ProfileArrays` of one live profile object.

        Delegates to the module-wide keyed cache
        (:func:`repro.sim.vectorized.profile_arrays`), so every engine
        instance -- including the warm sessions the serve daemon keeps --
        shares one flattened view per live profile.
        """
        return profile_arrays(profile)

    @staticmethod
    def _materialize_jobs(
        jobs: Sequence[Tuple[ModelSparsityProfile, str]],
        job_arrays: Sequence[ProfileArrays],
        activity: BatchActivity,
    ) -> List[ModelPerformance]:
        """Slice a batch back into per-job :class:`ModelPerformance`."""
        # ``.tolist()`` converts whole arrays to native Python scalars in C,
        # far cheaper than per-element indexing.
        cycles = activity.cycles.tolist()
        cells = activity.cell_activations.tolist()
        effective = activity.effective_cell_activations.tolist()
        macs = activity.macs.tolist()
        energy_lists = {
            name: values.tolist() for name, values in activity.energy.items()
        }
        results: List[ModelPerformance] = []
        offset = 0
        for (profile, variant), arrays in zip(jobs, job_arrays):
            performance = ModelPerformance(
                name=profile.workload.name, variant=variant
            )
            for index, layer in enumerate(arrays.layers, start=offset):
                energy = EnergyBreakdown(
                    **{
                        name: values[index]
                        for name, values in energy_lists.items()
                    }
                )
                performance.layers.append(
                    LayerPerformance(
                        layer=layer,
                        cycles=cycles[index],
                        cell_activations=cells[index],
                        effective_cell_activations=effective[index],
                        energy=energy,
                        macs=macs[index],
                    )
                )
            offset += len(arrays)
            results.append(performance)
        return results

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @staticmethod
    def speedup(
        baseline: ModelPerformance, improved: ModelPerformance
    ) -> float:
        """Cycle-count speedup of ``improved`` over ``baseline``.

        Raises
        ------
        ValueError
            If the improved configuration reports zero (or negative)
            cycles.
        """
        if improved.total_cycles <= 0:
            raise ValueError("improved configuration reports zero cycles")
        return baseline.total_cycles / improved.total_cycles

    @staticmethod
    def energy_saving(
        baseline: ModelPerformance, improved: ModelPerformance
    ) -> float:
        """Fractional energy saving of ``improved`` over ``baseline``.

        Raises
        ------
        ValueError
            If the baseline configuration reports non-positive energy.
        """
        if baseline.total_energy_pj <= 0:
            raise ValueError("baseline configuration reports zero energy")
        return 1.0 - improved.total_energy_pj / baseline.total_energy_pj


