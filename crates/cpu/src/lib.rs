//! `Srisc` — the in-order RISC core model that stands in for the paper's
//! ARM cores.
//!
//! The reproduced paper collects its reference traces from bit- and
//! cycle-true ARMv7 instruction-set simulators inside MPARM. The traffic
//! generator concept only requires the master to be a *deterministic,
//! reactive* producer of OCP transactions — compute gaps between
//! transactions, burst cache refills, posted writes, blocking reads and
//! synchronisation polling. `Srisc` is a from-scratch 32-bit in-order
//! single-issue RISC that produces exactly that traffic class:
//!
//! * [`isa`] — the instruction set with a real 32-bit binary encoding
//!   (programs live in simulated memory as encoded words; the core
//!   decodes each word once, when its line enters the instruction cache);
//! * [`asm`] — an assembler DSL with labels used to write the benchmark
//!   programs in `ntg-workloads`;
//! * [`cache`] — set-associative write-through caches with burst line
//!   refills;
//! * `core` — the cycle-true core model ([`CpuCore`]) driving an OCP
//!   master port.
//!
//! # Timing model
//!
//! One instruction per cycle when all caches hit. Loads and instruction
//! fetches that miss block the pipeline for a whole burst-read line
//! refill; uncached loads block for a single read; stores are posted but
//! stall until the interconnect *accepts* them (so the memory-ordering
//! anchor points the trace translator relies on are identical for CPU
//! cores and traffic generators). A blocked core resumes on the cycle
//! after the unblocking event.
//!
//! Between two bus events nothing outside the core can observe it, so
//! one visit executes the whole compute burst (see [`CpuCore`]); the
//! simulated cycle of every instruction is unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod cache;
mod core;
pub mod interp;
pub mod isa;
#[cfg(test)]
mod refcore;

pub use crate::core::{CpuConfig, CpuCore, CpuFault, CpuStats};
pub use asm::{Asm, AsmError, Program};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use isa::{decode, encode, Cond, DecodeError, Instr, Reg};
