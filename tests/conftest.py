import math

import pytest

from qwcavity import CavityParams, DipoleParams, PulseParams, SystemConfig


def standard_config(
    *,
    u_over_gamma: float = 1.0,
    f0_over_kappa: float = 0.2,
    n_wells: int = 2,
    gamma: float = 0.6,
    gamma2: float | None = None,
    omega2: float | None = None,
) -> SystemConfig:
    """Operating point used throughout: omega0 = omega_c = omega_d = 40,
    kappa = 12, sqrt(N) g = 1, T = 0.155, t0 = 0.6 (rad/ps and ps).

    U = u_over_gamma * 0.6 whatever `gamma` is (as in cli.two_well_config):
    u_over_gamma is the anharmonicity over the standard gamma = 0.6, so a
    run at gamma = 10 with u_over_gamma = 1 has U/gamma = 0.06.
    """
    omega0, kappa = 40.0, 12.0
    g = 1.0 / math.sqrt(n_wells)
    u = u_over_gamma * 0.6
    wells = []
    for n in range(n_wells):
        wells.append(
            DipoleParams(
                omega=omega2 if (n == 1 and omega2 is not None) else omega0,
                anharmonicity=u,
                gamma=gamma2 if (n == 1 and gamma2 is not None) else gamma,
                coupling=g,
            )
        )
    return SystemConfig(
        cavity=CavityParams(omega_c=omega0, kappa=kappa),
        dipoles=tuple(wells),
        pulse=PulseParams(amplitude=f0_over_kappa * kappa, carrier=omega0, center=0.6, duration=0.155),
    )


@pytest.fixture
def base_config() -> SystemConfig:
    return standard_config()
