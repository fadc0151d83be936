//! Spans around the harness's calls into each layer.
//!
//! Kept in memory and written out when the run ends. A layer's self
//! time is its span minus the part its child spans cover. Spans inside
//! the program are a later change; these see only what the harness
//! calls from outside.

use std::time::Instant;

use ntg_explore::Json;

struct Span {
    name: &'static str,
    /// One id per iteration (or campaign job batch), shared by every
    /// span the iteration caused.
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span log of one run. With `enabled` false every call is a
/// branch and nothing is recorded.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }

    /// Switches recording; only between spans, never inside one.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty());
        self.enabled = on;
    }

    /// Starts a new request id; spans opened from here on carry it.
    pub fn next_id(&mut self) {
        self.id += 1;
    }

    /// Opens a span called `name`, child of the innermost open span.
    /// Pair with [`exit`](Self::exit); [`scope`](Self::scope) does both.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            id: self.id,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Total and self time per span name, in first-seen order:
    /// `(name, calls, total_ns, self_ns)`.
    pub fn by_name(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns[i]);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// The whole log as JSON: every span, then the per-name summary.
    pub fn to_json(&self) -> Json {
        let int = |v: u64| Json::Int(v as i64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("id".into(), int(s.id)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| int(p as u64)),
                    ),
                    ("start_ns".into(), int(s.start_ns)),
                    ("end_ns".into(), int(s.end_ns)),
                ])
            })
            .collect();
        let summary = self
            .by_name()
            .into_iter()
            .map(|(name, calls, total, own)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.into())),
                    ("calls".into(), int(calls)),
                    ("total_ns".into(), int(total)),
                    ("self_ns".into(), int(own)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("spans".into(), Json::Arr(spans)),
            ("by_name".into(), Json::Arr(summary)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ids_are_shared() {
        let mut log = SpanLog::new(true);
        log.next_id();
        log.scope("outer", |log| {
            log.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            log.scope("inner", |_| ());
        });
        let rows = log.by_name();
        assert_eq!(rows[0].0, "outer");
        assert_eq!((rows[1].0, rows[1].1), ("inner", 2));
        let (outer_total, outer_self, inner_total) = (rows[0].2, rows[0].3, rows[1].2);
        assert_eq!(outer_self, outer_total - inner_total);
        assert!(inner_total >= 2_000_000);
        assert!(log.spans.iter().all(|s| s.id == 1));
        assert_eq!(log.spans[1].parent, Some(0));
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        assert_eq!(log.scope("x", |_| 3), 3);
        assert!(log.by_name().is_empty());
    }
}
