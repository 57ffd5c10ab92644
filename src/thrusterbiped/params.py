"""Physical parameters of the planar three-link biped.

Point-mass model: hip mass at the hip joint, torso mass a fixed distance up
the torso link, one mass at the midpoint of each leg.  Links are massless
with zero rotary inertia.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Catalog values for the reference vehicle, in grams / centimeters as the
# hardware documentation lists them.  Converted to SI by default_model_params.
CATALOG_GRAMS_CM = {
    "m_T_g": 300.0,   # torso mass
    "m_h_g": 200.0,   # hip mass
    "m_k_g": 100.0,   # each leg mass
    "l_T_cm": 30.0,   # hip -> torso mass point
    "l_cm": 63.25,    # leg length (foot -> hip)
}


@dataclass
class ModelParams:
    """SI parameters shared by every dynamics flavor.

    d is the Baumgarte-style velocity damping used by the double-support
    constraint equations (1/s); f_th_max the thrust magnitude limit (N).
    This dataclass is also the `model` section of a scenario config, so its
    field names are scenario keys.
    """

    m_T: float = 0.300
    m_h: float = 0.200
    m_k: float = 0.100
    l_T: float = 0.30
    l: float = 0.6325
    g: float = 9.81
    d: float = 100.0
    f_th_max: float = 40.0

    @property
    def total_mass(self) -> float:
        return self.m_T + self.m_h + 2.0 * self.m_k

    @property
    def weight(self) -> float:
        return self.total_mass * self.g

    def to_params(self) -> ModelParams:
        """Validated copy, independent of the scenario that holds this one."""
        self.validate()
        return replace(self)

    def validate(self) -> None:
        for name in ("m_T", "m_h", "m_k", "l_T", "l", "g"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"ModelParams.{name} must be positive")
        if self.d < 0.0:
            raise ValueError("ModelParams.d must be non-negative")
        if self.f_th_max < 0.0:
            raise ValueError("ModelParams.f_th_max must be non-negative")


def default_model_params() -> ModelParams:
    """Catalog masses/lengths converted from grams and centimeters to SI."""
    c = CATALOG_GRAMS_CM
    return ModelParams(
        m_T=c["m_T_g"] / 1000.0,
        m_h=c["m_h_g"] / 1000.0,
        m_k=c["m_k_g"] / 1000.0,
        l_T=c["l_T_cm"] / 100.0,
        l=c["l_cm"] / 100.0,
    )
