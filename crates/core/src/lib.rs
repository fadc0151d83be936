//! The Traffic Generator (TG) — the primary contribution of the
//! reproduced paper.
//!
//! Mahadevan et al. (DATE 2005) replace bit- and cycle-true IP cores with
//! tiny programmable *traffic generators* that reproduce each core's
//! communication behaviour at its OCP interface, so that subsequent
//! design-space exploration of interconnects runs 2–4× faster at near-100%
//! cycle accuracy. The TG is "a very simple instruction set processor"
//! with an instruction memory and a register file but no data memory
//! (paper §4); its instruction set is the paper's Table 1.
//!
//! This crate implements the complete TG tool flow:
//!
//! | stage | module | artifact |
//! |-------|--------|----------|
//! | trace → symbolic program | [`translate`] | [`TgProgram`] (`.tgp`) |
//! | symbolic ⇄ text          | [`tgp`]       | `.tgp` listing |
//! | symbolic → binary image  | [`assemble`]  | [`TgImage`] (`.bin`) |
//! | binary → symbolic        | [`disassemble`] | round-trip validation |
//! | execution               | [`TgCore`]    | OCP traffic |
//!
//! # The three fidelity levels (paper §3)
//!
//! The translator supports the paper's three traffic-modelling levels as
//! [`TranslationMode`]s, which the ablation benches compare:
//!
//! * **Clone** — replay requests at their recorded absolute times;
//!   inadequate once network latency changes.
//! * **Timeshift** — tie each request to the completion of the previous
//!   one, so latency changes propagate.
//! * **Reactive** (default) — additionally recognise polling of
//!   semaphores/synchronisation flags and regenerate it as a `Semchk`
//!   conditional loop, so the *number* of transactions adapts to the
//!   interconnect, not just their times.
//!
//! # Timing model of the TG core
//!
//! One instruction per cycle; `Idle(n)` costs `n` cycles; OCP
//! instructions assert their request in their execution cycle, block
//! until the response (reads) or the acceptance (posted writes), and the
//! next instruction executes on the cycle after the unblocking event —
//! the exact discipline `ntg-cpu` cores follow, which is what makes the
//! translator's idle-gap arithmetic exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod image;
mod isa;
mod program;
pub mod rng;
mod stochastic;
mod tgcore;
pub mod tgp;
mod tgslave;
pub mod translate;

pub use asm::{assemble, disassemble, TgAsmError};
pub use image::{TgImage, TgImageError};
pub use isa::{TgCond, TgDecodeError, TgInstr, TgReg, RDREG, TEMPREG};
pub use program::{TgItem, TgProgram, TgSymInstr};
pub use stochastic::{GapDistribution, StochasticConfig, StochasticTg};
pub use tgcore::{TgCore, TgFault, TgStats};
pub use tgslave::{TgSlave, TgSlaveBehavior};
pub use translate::{
    TraceTranslator, TranslationError, TranslationMode, TranslatorConfig, STORE_FORMAT_VERSION,
};
