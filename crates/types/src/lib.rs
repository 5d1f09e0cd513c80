//! Core identifiers, configuration and quorum arithmetic for the SeeMoRe
//! reproduction.
//!
//! This crate is dependency-light on purpose: every other crate in the
//! workspace (crypto, wire format, network substrate, the protocol itself,
//! the baselines and the benchmark harness) builds on the vocabulary defined
//! here.
//!
//! The paper's system model (Section 3) distinguishes a **private cloud** of
//! `S` trusted replicas (at most `c` of which may crash) from a **public
//! cloud** of `P` untrusted replicas (at most `m` of which may be Byzantine).
//! [`ClusterConfig`] captures that split, [`quorum`] implements the quorum
//! and network-size arithmetic of Section 3.2, and [`planner`] implements the
//! public-cloud sizing methods of Section 4.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
// Quorum and network-size bounds are written exactly as the paper states
// them (e.g. `n >= 3m + 2c + 1`); rewriting them as `n > 3m + 2c` to please
// the lint would obscure the correspondence with Equation 1.
#![allow(clippy::int_plus_one)]

pub mod config;
pub mod error;
pub mod id;
pub mod mode;
pub mod op;
pub mod planner;
pub mod quorum;
pub mod time;

pub use config::{ClusterConfig, FailureBounds, ReplicaRole, Trust};
pub use error::{ConfigError, ProtocolViolation};
pub use id::{ClientId, NodeId, ReplicaId, RequestId, SeqNum, Timestamp, View};
pub use mode::Mode;
pub use op::OpClass;
pub use planner::{PlannerInput, PlannerOutcome};
pub use quorum::QuorumSpec;
pub use time::{Duration, Instant};
