"""Link-level Monte Carlo simulator for a BS serving ground users through a
UAV swarm of reflecting surfaces: probabilistic air-to-ground channels,
closed-form joint beamforming, pilot-based cascaded-channel estimation, and
3D swarm deployment optimization.

Names are imported from their modules (``from saris.deployment import
Scenario``); importing a layer loads only the layers below it."""

__version__ = "0.1.0"
