"""Data-center substrate: servers, facilities, fleets, renewables.

Models the warehouse-scale side of the paper (Section IV): server
embodied carbon from a bill of materials, facility PUE and construction
overhead, multi-year fleet simulation with hardware refresh, renewable
procurement with market-based accounting, a diurnal grid-intensity
generator, and the carbon-aware batch scheduler the paper's Section VI
points to.
"""

from .server import ServerConfig, WEB_SERVER, AI_TRAINING_SERVER, STORAGE_SERVER
from .facility import Facility
from .renewable import PPAContract, RenewablePortfolio
from .fleet import (
    FleetBatchResult,
    FleetFrame,
    FleetParameters,
    FleetYearReport,
    simulate_fleet,
    simulate_fleet_batch,
)
from .grid_sim import DiurnalGridModel
from .scheduler import (
    BatchJob,
    ScheduleResult,
    schedule_carbon_agnostic,
    schedule_carbon_aware,
)
from .reporting import fleet_year_to_inventory, fleet_to_report_series
from .heterogeneity import (
    WorkloadClass,
    ServerType,
    ProvisioningPlan,
    BatchProvisioning,
    provision_homogeneous,
    provision_heterogeneous,
    provision_homogeneous_batch,
    provision_heterogeneous_batch,
    compare_provisioning,
)

__all__ = [
    "ServerConfig",
    "WEB_SERVER",
    "AI_TRAINING_SERVER",
    "STORAGE_SERVER",
    "Facility",
    "PPAContract",
    "RenewablePortfolio",
    "FleetParameters",
    "FleetYearReport",
    "FleetBatchResult",
    "FleetFrame",
    "simulate_fleet",
    "simulate_fleet_batch",
    "DiurnalGridModel",
    "BatchJob",
    "ScheduleResult",
    "schedule_carbon_agnostic",
    "schedule_carbon_aware",
    "fleet_year_to_inventory",
    "fleet_to_report_series",
    "WorkloadClass",
    "ServerType",
    "ProvisioningPlan",
    "BatchProvisioning",
    "provision_homogeneous",
    "provision_heterogeneous",
    "provision_homogeneous_batch",
    "provision_heterogeneous_batch",
    "compare_provisioning",
]
