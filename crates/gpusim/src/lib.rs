//! # dagfact-gpusim
//!
//! Discrete-event simulator of the paper's hybrid evaluation platform — the
//! substitution (DESIGN.md §2) for the Mirage nodes (two hexa-core Westmere
//! X5650 + 3× Tesla M2070) that this reproduction has no access to.
//!
//! The simulator executes a task DAG ([`dag::SimDag`]) against a
//! parameterized machine ([`platform::Platform`]) under one of three
//! scheduling policies ([`SimPolicy`]) that mirror the real engines of
//! `dagfact-rt`:
//!
//! * [`SimPolicy::NativeStatic`] — PaStiX: analyze-time static list
//!   schedule of 1D tasks + work stealing, CPU only;
//! * [`SimPolicy::StarPuLike`] — dmda-style earliest-completion placement
//!   from a centralized queue; one CPU worker is *dedicated* to (removed
//!   for) each GPU; single-stream kernels with transfer prefetch;
//! * [`SimPolicy::ParsecLike`] — PTG-style local release with LIFO data
//!   reuse and stealing; GPUs are fed by the submitting cores without
//!   dedicating a thread, and run `streams` concurrent kernels that share
//!   the device (the multi-stream effect of Figures 3/4).
//!
//! Kernel durations come from calibrated performance models
//! ([`kernelmodel`]): a cuBLAS-like dense GEMM curve, its ASTRA-like
//! auto-tuned variant (−15%), the texture-less variant (−5%) and the
//! paper's sparse scatter kernel (penalized by the destination-panel
//! height ratio), plus a roofline-flavoured CPU efficiency curve. Data
//! movement is simulated per GPU over PCIe links with an MSI-style
//! validity protocol, so transfer-bound cases (afshell10 in Figure 4)
//! emerge naturally.
//!
//! The simulation is fully deterministic: same DAG + platform + policy →
//! same schedule, independent of the host machine.

pub mod dag;
pub mod engine;
pub mod events;
pub mod kernelmodel;
pub mod platform;
pub mod report;

pub use dag::{SimDag, SimData, SimTask, TaskShape};
pub use engine::{simulate, SimPolicy};
pub use events::EventQueue;
pub use platform::{CpuModel, GpuModel, LinkModel, Platform, SchedulerCosts};
pub use report::{SimReport, SimResource, SimSpan};
