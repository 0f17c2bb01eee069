#![warn(missing_docs)]

//! A cycle-level out-of-order core model — the gem5 O3 stand-in the
//! GhostMinion reproduction runs on.
//!
//! The core executes programs from `gm-isa` both functionally (computing
//! real values, so Spectre gadgets really do read secrets transiently)
//! and temporally (modelling the Table 1 microarchitecture: 8-wide,
//! 192-entry ROB, 64-entry IQ, 32-entry LQ/SQ, 256+256 physical
//! registers, 6 integer ALUs, 4 FP ALUs, 2 mult/div units, tournament
//! branch predictor with BTB and RAS).
//!
//! The core is *mechanism only*: it knows nothing about GhostMinion. The
//! memory system it talks to is abstracted behind [`MemoryBackend`], which
//! the `ghostminion` crate implements once per mitigation scheme. The two
//! security-relevant core-side mechanisms the paper needs — strictness-
//! ordered scheduling of non-pipelined functional units (§4.9) and
//! STT-style taint-delayed loads (baseline) — are configuration options
//! here, because they live in the issue stage.
//!
//! Timestamps (the paper's Temporal Order labels, §4.4) are the global
//! instruction sequence numbers assigned at rename. The simulator keeps
//! them as unbounded `u64`s; the hardware sliding-window encoding (2×ROB
//! entries with wrap-around) is implemented and verified separately in
//! `ghostminion::timestamp`, which proves the window compare agrees with
//! the unbounded compare for all in-flight distances.

mod bpred;
mod config;
mod engine;
mod fu;
mod lsq;
mod mem_if;
mod regfile;
mod rob;
mod trace;
mod wakeup;

pub use bpred::{BpredConfig, BranchUpdate, Prediction, TournamentPredictor};
pub use config::{CoreConfig, TaintMode};
pub use engine::{Core, CoreStats};
pub use fu::FuPool;
pub use lsq::{LoadQueue, StoreQueue};
pub use mem_if::{AccessKind, LoadResp, MemReq, MemoryBackend, Ticket};
pub use regfile::{PhysReg, RegFile};
pub use rob::{Rob, RobEntry, RobStatus};
pub use trace::{SquashCause, TraceEvent, TraceSink};
