//! The MPARM-like multiprocessor SoC platform.
//!
//! Assembles the full system the paper simulates: *n* masters (Srisc CPU
//! cores running benchmark programs, or traffic generators replaying
//! translated traces), one interconnect (AMBA-like bus, ×pipes-like NoC,
//! crossbar or ideal fabric), per-core private memories, a shared memory,
//! a synchronisation-flag memory and a hardware semaphore bank — all
//! behind one fixed [memory map](mem_map).
//!
//! The [`PlatformBuilder`] wires everything, [`Platform::run`] executes
//! the cycle loop and returns a [`RunReport`] with per-core completion
//! cycles ("cumulative execution time" in the paper's Table 2), and —
//! with tracing enabled — per-core OCP traces ready for translation.
//!
//! # The complete paper flow
//!
//! ```text
//! 1. reference run:  PlatformBuilder::new().add_cpu(prog)...  .tracing(true)
//! 2. translate:      platform.translate_traces(TranslationMode::Reactive)
//! 3. exploration:    PlatformBuilder::new().add_tg(assemble(&program))...
//! ```
//!
//! Steps 1 and 3 may use *different* interconnects — that is the point of
//! the whole exercise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mem_map;
mod platform;
mod report;

pub use platform::{
    InterconnectChoice, MasterCtx, MasterFactory, MasterKind, Platform, PlatformBuilder,
    PlatformError, PlatformMaster, TraceTranslationError, ALL_INTERCONNECTS,
};
pub use report::{MasterReport, MetricsReport, RunReport};
