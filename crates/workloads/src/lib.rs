//! The four benchmark workloads of the paper's evaluation (§6), written
//! in Srisc assembly for the `ntg` platform:
//!
//! * [`Workload::SpMatrix`] — single-processor matrix manipulation:
//!   initialise two matrices in private (cacheable) memory, multiply,
//!   checksum into shared memory. Assesses accuracy and speedup in the
//!   simplest environment.
//! * [`Workload::Cacheloop`] — idle loops running entirely from the
//!   instruction cache with only minimal bus interaction; used to assess
//!   TG speedup while scaling the processor count.
//! * [`Workload::MpMatrix`] — multiprocessor matrix multiplication over
//!   *uncached shared memory*, with semaphore-protected mailbox updates
//!   after every row and a final flag barrier: heavy contention and
//!   reactive synchronisation traffic.
//! * [`Workload::Des`] — DES-style encryption: a 16-round Feistel cipher
//!   with S-box table lookups (tables in cacheable private memory,
//!   causing data-cache refill bursts), plaintext/ciphertext in shared
//!   memory, per-block semaphore-protected mailbox updates and a final
//!   barrier.
//!
//! Every workload has a host-side *golden model*; [`Workload::verify`]
//! checks the simulated memory image against it, so the cycle-true
//! platform is validated functionally, not just structurally.
//!
//! # Design constraints (for the paper's validation experiment)
//!
//! Workloads are written so each core's *written data values* are
//! independent of inter-core interleaving: cores write only to their own
//! output regions, to semaphores and to per-core flags/mailbox values
//! derived from their own id. Reads of contended locations (semaphores,
//! mailboxes, barrier flags) are still fully reactive. This makes
//! translated TG programs identical regardless of the interconnect the
//! trace was collected on — the property the paper's first experiment
//! demonstrates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cacheloop;
mod common;
mod des;
mod mp_matrix;
mod sp_matrix;

/// Synthetic pattern × shape traffic (defined in `ntg-platform`, whose
/// builder instantiates it).
pub use ntg_platform::synthetic;
use ntg_platform::{InterconnectChoice, Platform, PlatformBuilder, PlatformError};

/// A benchmark with its size parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Single-processor `n × n` matrix manipulation.
    SpMatrix {
        /// Matrix dimension.
        n: u32,
    },
    /// Cache-resident idle loop.
    Cacheloop {
        /// Loop iterations.
        iterations: u32,
    },
    /// Multiprocessor `n × n` matrix multiplication over shared memory.
    MpMatrix {
        /// Matrix dimension.
        n: u32,
    },
    /// DES-style 16-round Feistel encryption.
    Des {
        /// Blocks encrypted by each core.
        blocks_per_core: u32,
    },
    /// Synthetic pattern × shape traffic (no CPU program, no trace):
    /// every master injects this many packets per the campaign's
    /// [`synthetic::SyntheticSpec`] descriptor.
    Synthetic {
        /// Packets injected per master before halting.
        packets: u32,
    },
}

/// The compact `name:param` spec notation (`sp_matrix:16`,
/// `cacheloop:60000`, `mp_matrix:24`, `des:24`) used by campaign specs,
/// JSONL results and the `ntg-sweep` CLI.
impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Workload::SpMatrix { n } => write!(f, "sp_matrix:{n}"),
            Workload::Cacheloop { iterations } => write!(f, "cacheloop:{iterations}"),
            Workload::MpMatrix { n } => write!(f, "mp_matrix:{n}"),
            Workload::Des { blocks_per_core } => write!(f, "des:{blocks_per_core}"),
            Workload::Synthetic { packets } => write!(f, "synthetic:{packets}"),
        }
    }
}

impl std::str::FromStr for Workload {
    type Err = String;

    /// Parses the `name:param` notation produced by [`Display`].
    fn from_str(s: &str) -> Result<Self, String> {
        let (name, param) = s
            .split_once(':')
            .ok_or_else(|| format!("workload spec `{s}` is not `name:param`"))?;
        let param: u32 = param
            .parse()
            .map_err(|_| format!("workload spec `{s}`: `{param}` is not a number"))?;
        match name {
            "sp_matrix" => Ok(Workload::SpMatrix { n: param }),
            "cacheloop" => Ok(Workload::Cacheloop { iterations: param }),
            "mp_matrix" => Ok(Workload::MpMatrix { n: param }),
            "des" => Ok(Workload::Des {
                blocks_per_core: param,
            }),
            "synthetic" => Ok(Workload::Synthetic { packets: param }),
            _ => Err(format!(
                "unknown workload `{name}` (expected sp_matrix, cacheloop, mp_matrix, des \
                 or synthetic)"
            )),
        }
    }
}

impl Workload {
    /// The benchmark's name as used in the paper's Table 2.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::SpMatrix { .. } => "SP matrix",
            Workload::Cacheloop { .. } => "Cacheloop",
            Workload::MpMatrix { .. } => "MP matrix",
            Workload::Des { .. } => "DES",
            Workload::Synthetic { .. } => "Synthetic",
        }
    }

    /// Small sizes for fast unit/integration testing.
    pub fn test_scale(&self) -> Workload {
        match self {
            Workload::SpMatrix { .. } => Workload::SpMatrix { n: 6 },
            Workload::Cacheloop { .. } => Workload::Cacheloop { iterations: 500 },
            Workload::MpMatrix { .. } => Workload::MpMatrix { n: 8 },
            Workload::Des { .. } => Workload::Des { blocks_per_core: 2 },
            Workload::Synthetic { .. } => Workload::Synthetic { packets: 64 },
        }
    }

    /// Builds the benchmark program for `core` of `cores`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are unsupported (e.g. more cores than
    /// matrix rows); the concrete limits are documented per workload.
    pub fn program(&self, core: usize, cores: usize) -> ntg_cpu::Program {
        match *self {
            Workload::SpMatrix { n } => sp_matrix::program(core, n),
            Workload::Cacheloop { iterations } => cacheloop::program(core, iterations),
            Workload::MpMatrix { n } => mp_matrix::program(core, cores, n),
            Workload::Des { blocks_per_core } => des::program(core, cores, blocks_per_core),
            Workload::Synthetic { .. } => {
                panic!("synthetic workloads have no CPU program; build a SyntheticTg platform")
            }
        }
    }

    /// Applies the workload's shared-memory preload (input data) to a
    /// platform builder.
    pub fn preload(&self, builder: &mut PlatformBuilder, cores: usize) {
        match *self {
            Workload::MpMatrix { n } => mp_matrix::preload(builder, n),
            Workload::Des { blocks_per_core } => des::preload(builder, cores, blocks_per_core),
            Workload::SpMatrix { .. } | Workload::Cacheloop { .. } | Workload::Synthetic { .. } => {
            }
        }
    }

    /// Builds a complete CPU (reference) platform running this workload
    /// on `cores` cores.
    ///
    /// # Errors
    ///
    /// Propagates [`PlatformError`] from the builder.
    pub fn build_platform(
        &self,
        cores: usize,
        interconnect: InterconnectChoice,
        tracing: bool,
    ) -> Result<Platform, PlatformError> {
        let mut b = PlatformBuilder::new();
        b.interconnect(interconnect).tracing(tracing);
        for core in 0..cores {
            b.add_cpu(self.program(core, cores));
        }
        self.preload(&mut b, cores);
        b.build()
    }

    /// Builds a TG platform from pre-assembled images, with this
    /// workload's input preload (slaves must hold the same data so the
    /// reactive traffic sees the same values).
    ///
    /// # Errors
    ///
    /// Propagates [`PlatformError`] from the builder.
    pub fn build_tg_platform(
        &self,
        images: Vec<ntg_core::TgImage>,
        interconnect: InterconnectChoice,
        tracing: bool,
    ) -> Result<Platform, PlatformError> {
        let cores = images.len();
        let mut b = PlatformBuilder::new();
        b.interconnect(interconnect).tracing(tracing);
        for image in images {
            b.add_tg(image);
        }
        self.preload(&mut b, cores);
        b.build()
    }

    /// Checks the simulated result against the host-side golden model.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn verify(&self, platform: &Platform, cores: usize) -> Result<(), String> {
        match *self {
            Workload::SpMatrix { n } => sp_matrix::verify(platform, n),
            Workload::Cacheloop { .. } => Ok(()), // no memory output
            Workload::MpMatrix { n } => mp_matrix::verify(platform, cores, n),
            Workload::Des { blocks_per_core } => des::verify(platform, cores, blocks_per_core),
            // Synthetic traffic carries random payloads with no golden
            // model; determinism is checked at the campaign level.
            Workload::Synthetic { .. } => Ok(()),
        }
    }

    /// Valid core counts for this workload (the paper's Table 2 sweep).
    pub fn paper_core_counts(&self) -> Vec<usize> {
        match self {
            Workload::SpMatrix { .. } => vec![1],
            Workload::Cacheloop { .. } | Workload::MpMatrix { .. } => {
                vec![2, 4, 6, 8, 10, 12]
            }
            Workload::Des { .. } => vec![3, 4, 6, 8, 10, 12],
            Workload::Synthetic { .. } => vec![2, 4, 8],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_strings_round_trip() {
        for w in [
            Workload::SpMatrix { n: 16 },
            Workload::Cacheloop { iterations: 60_000 },
            Workload::MpMatrix { n: 24 },
            Workload::Des {
                blocks_per_core: 24,
            },
        ] {
            let s = w.to_string();
            assert_eq!(s.parse::<Workload>().unwrap(), w, "{s}");
        }
        assert!("nope:1".parse::<Workload>().is_err());
        assert!("sp_matrix".parse::<Workload>().is_err());
        assert!("sp_matrix:x".parse::<Workload>().is_err());
    }

    #[test]
    fn names_match_table2() {
        assert_eq!(Workload::SpMatrix { n: 4 }.name(), "SP matrix");
        assert_eq!(Workload::Cacheloop { iterations: 1 }.name(), "Cacheloop");
        assert_eq!(Workload::MpMatrix { n: 4 }.name(), "MP matrix");
        assert_eq!(Workload::Des { blocks_per_core: 1 }.name(), "DES");
    }

    #[test]
    fn paper_core_counts_match_table2() {
        assert_eq!(Workload::SpMatrix { n: 4 }.paper_core_counts(), vec![1]);
        assert_eq!(
            Workload::Des { blocks_per_core: 1 }.paper_core_counts(),
            vec![3, 4, 6, 8, 10, 12]
        );
    }
}
