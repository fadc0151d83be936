//! Campaign service (`ntg-serve`): a tiered remote artifact store and
//! an HTTP job server for `ntg-sweep` campaigns.
//!
//! The single-machine story ends with `ntg-explore`: a content-
//! addressed [`DiskStore`] builds every trace and TG image once per
//! host, and `run_campaign` fans jobs across local threads. This
//! crate adds the next tier for fleets:
//!
//! * [`http`] — a minimal deterministic HTTP/1.1 server and client on
//!   `std::net` (Content-Length framing only, hard caps, no external
//!   dependencies);
//! * [`remote`] — the artifact tier: server-side write-once
//!   [`BlobStore`] plus the [`HttpRemote`] client that slots into
//!   `DiskStore::with_remote`, making the hierarchy memory → disk →
//!   network with every failure degrading toward a local rebuild;
//! * [`server`] — the [`JobServer`]: accepts `CampaignSpec` JSON,
//!   runs each campaign as one `run_campaign` on its worker pool
//!   (resume-from-journal crash recovery included), publishes NDJSON
//!   progress events, and serves canonical results plus `ntg-report`
//!   views.
//!
//! Determinism contract: a campaign fetched from the service is
//! byte-identical to a local `run_campaign` of the same spec, and the
//! same spec resubmitted lands on the same job id (the campaign
//! fingerprint), so retries and crash recovery are idempotent.
//!
//! [`DiskStore`]: ntg_explore::DiskStore
//! [`BlobStore`]: remote::BlobStore
//! [`HttpRemote`]: remote::HttpRemote
//! [`JobServer`]: server::JobServer

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod remote;
pub mod server;

pub use remote::{normalize_addr, BlobStore, HttpRemote};
pub use server::{Job, JobServer, JobState, ServerConfig};
