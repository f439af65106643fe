//! # gm-grid — the NorduGrid/ARC-style grid layer over Tycoon
//!
//! Implements the paper's Section 3: the integration of a grid
//! meta-scheduler with the Tycoon market, "fully transparent to the
//! end-users".
//!
//! * [`xrsl`] — parser/printer for the xRSL job-description subset the
//!   paper maps onto the market (`cpuTime` → deadline, transfer token →
//!   budget, `count` → #VMs).
//! * [`identity`] — Grid DNs bound to (simulation-grade) key pairs.
//! * [`token`] — transfer tokens: bank receipts bound to DNs (§3.1); the
//!   bank's durable spent-token set is the double-spend check.
//! * [`vm`] — the virtualized execution layer (creation latency, runtime-
//!   environment installation, per-(host,user) VM reuse).
//! * [`manager`] — the scheduling agent: token redemption, funded
//!   sub-accounts, Best Response bid placement, stage-in/out, boosting,
//!   refunds.
//! * [`monitor`] — a text-mode ARC Grid Monitor (Fig. 2).
//! * [`telemetry`] — `gm_telemetry` instrument handles for the manager's
//!   dispatch/requeue/token hot paths; the fault-recovery counters are
//!   derived from these.

pub mod identity;
pub mod manager;
pub mod monitor;
pub mod telemetry;
pub mod token;
pub mod vm;
pub mod xrsl;

pub use identity::GridIdentity;
pub use manager::{
    AgentConfig, FaultCounters, GridError, Job, JobId, JobManager, JobPhase, JobSpec,
    SpeculationConfig, SubJob,
};
pub use token::{TokenError, TransferToken};
pub use vm::{Vm, VmConfig, VmManager};
pub use xrsl::{ParseError, Xrsl};
