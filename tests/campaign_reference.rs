//! Tier-1 guard for "one reference simulation per design point": in a
//! campaign that sweeps the CPU reference and its TG replay on the
//! trace fabric, the CPU job's own run collects the trace, so the TG
//! job finds it built. The campaign simulates the CPU model once.
//!
//! A runner that traces in a second CPU simulation for the first
//! consumer (as this engine did before the reference run became the
//! trace run) records `(trace_misses, trace_hits) == (1, 0)` here — the
//! CPU job never asks for the trace — and fails this test.

use ntg::explore::{run_campaign, CampaignSpec, CoreSelection, MasterChoice, RunOptions};
use ntg::platform::InterconnectChoice;
use ntg::workloads::Workload;

#[test]
fn the_cpu_reference_run_is_the_trace_run() {
    let mut spec = CampaignSpec::new("campaign-reference");
    spec.workloads = vec![Workload::MpMatrix { n: 8 }];
    spec.cores = CoreSelection::List(vec![2]);
    spec.interconnects = vec![InterconnectChoice::Amba];
    spec.masters = vec![MasterChoice::Cpu, MasterChoice::Tg];

    let outcome = run_campaign(&spec, &RunOptions::default()).unwrap();
    assert_eq!(
        (outcome.cache.trace_misses, outcome.cache.trace_hits),
        (1, 1),
        "the CPU job builds the trace, the TG job reuses it"
    );
    for r in &outcome.results {
        assert!(r.error.is_none(), "{}: {:?}", r.key, r.error);
        assert_eq!(r.verified, Some(true), "{}", r.key);
    }
    let tg = &outcome.results[1];
    assert_eq!(tg.master, "tg");
    assert!(
        tg.error_pct.is_some_and(|e| e <= 1.52),
        "{:?}",
        tg.error_pct
    );
}
