//! OCP-style point-to-point interface protocol for the `ntg` platform.
//!
//! The reproduced paper (Mahadevan et al., DATE 2005) attaches every IP
//! core and every traffic generator to the interconnect through an OCP
//! socket; because both speak the same interface, cores and TGs are
//! plug-compatible (the paper's Figure 1). This crate is our OCP: it
//! defines the transaction vocabulary ([`OcpRequest`], [`OcpResponse`]),
//! the arena of single-slot handshaked links that carries them
//! ([`LinkArena`] with its `Copy` [`MasterPort`]/[`SlavePort`] index
//! endpoints), and the observer hook ([`ChannelObserver`]) that
//! `ntg-trace` uses to capture `.trc` traces at the interface boundary.
//!
//! The arena is owned by the simulation harness and lent by reference to
//! every component callback: no `Rc`/`RefCell` shared-ownership
//! bookkeeping on the hot path, and a fully wired platform is a plain
//! `Send` value a worker thread can own.
//!
//! # Handshake timing
//!
//! A channel is a pair of registered slots (request and response). Values
//! written in cycle *t* become visible to the other side in cycle *t + 1*
//! at the earliest, regardless of component tick order — this one rule is
//! what makes the whole simulation deterministic. The protocol is:
//!
//! 1. the master *asserts* a request (`MasterPort::assert_request`);
//! 2. the interconnect *accepts* it one or more cycles later
//!    (`SlavePort::accept_request`); posted writes unblock the master at
//!    this point (`MasterPort::take_accept`);
//! 3. for reads, a response is eventually *pushed* back
//!    (`SlavePort::push_response`) and the master consumes it
//!    (`MasterPort::take_response`).
//!
//! Trace timestamps are defined as: request assert cycle, request accept
//! cycle, response push cycle. A blocked master resumes execution on the
//! cycle *after* the unblocking event, which is exactly the arithmetic the
//! trace-to-program translator in `ntg-core` relies on. A read's master
//! waits for the response, never for the acceptance: its wake hint reads
//! `MasterPort::response_visible_at`, a posted write's reads
//! `MasterPort::accept_visible_at`, and a read's acceptance logs no wake.
//!
//! # Example
//!
//! ```
//! use ntg_ocp::{LinkArena, MasterId, OcpRequest};
//!
//! let mut net = LinkArena::new();
//! let (master, slave) = net.channel("cpu0", MasterId(0));
//! // Cycle 0: the master asserts a read.
//! master.assert_request(&mut net, OcpRequest::read(0x104), 0);
//! // Cycle 1: the slave side can now see and accept it.
//! assert!(slave.peek_request(&net, 1).is_some());
//! let req = slave.accept_request(&mut net, 1).unwrap();
//! assert_eq!(req.addr, 0x104);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod data;
mod observer;
mod types;

pub use channel::{wake_token, LinkArena, LinkId, MasterPort, SlavePort};
pub use data::DataWords;
pub use observer::{ChannelObserver, NullObserver};
pub use types::{MasterId, OcpCmd, OcpRequest, OcpResponse, OcpStatus, SlaveId};
