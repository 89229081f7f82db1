//! # dagfact-serve
//!
//! Solver-as-a-service: a persistent daemon that accepts solve jobs,
//! content-hash-caches ordering/symbolic analyses and numeric factors
//! across requests, and survives bad inputs, panicking jobs, deadlines
//! and memory pressure without dying or contaminating its caches.
//!
//! The paper's task-based runtime argument is strongest when the same
//! sparsity pattern is factorized again and again (FEM time-stepping,
//! circuit simulation); this crate turns the runtime substrate built in
//! `dagfact-rt`/`dagfact-core` — supervisor with panic capture and a
//! watchdog, pivot-escalating refactorization, memory budget pressure
//! ladder, cooperative cancellation — into exactly that serving loop.
//! See DESIGN.md §12 for the service model.
//!
//! ```no_run
//! use dagfact_serve::{JobSpec, ServeConfig, Service};
//!
//! let service = Service::start(ServeConfig::default());
//! let spec = JobSpec::parse("inline=2:0,0,4;1,1,4;1,0,1;0,1,1 refine=3").unwrap();
//! let resp = service.solve_blocking(spec).unwrap();
//! assert_eq!(resp.x.len(), 2);
//! ```

// Errors, not unwraps, in library code (tests: clippy.toml), and no
// console or file I/O and no sleeping but where a site allows it in place
// (clippy.toml's disallowed methods).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro, clippy::disallowed_methods)]

pub mod cache;
pub mod http;
pub mod job;
pub mod service;

pub use cache::{CacheHit, CacheStats, GenCache};
pub use http::serve_http;
pub use job::{JobError, JobResponse, JobSpec, MatrixSource, ReusePolicy, RhsSource};
pub use service::{JobTicket, ServeConfig, Service, ServiceStats};
