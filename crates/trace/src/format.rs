//! Text serialisation of traces: the `.trc` format.
//!
//! The format mirrors the paper's Figure 3(a) but is fully specified so
//! it round-trips:
//!
//! ```text
//! ; ntg trace v1
//! MASTER 0
//! PERIOD_NS 5
//! REQ RD 0x00000104 @55
//! ACK @60
//! RESP 0x088000f0 @75
//! REQ WR 0x00000020 0x00000111 @90
//! ACK @95
//! REQ BRD 0x00000100 len=4 @120
//! ACK @125
//! RESP 0x00000001,0x00000002,0x00000003,0x00000004 @150
//! END
//! ```
//!
//! Lines starting with `;` are comments; blank lines are ignored.

use std::fmt::Write as _;

use ntg_ocp::{DataWords, OcpCmd};

use crate::event::{MasterTrace, TraceEvent};

/// A `.trc` parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrcParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for TrcParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, ".trc line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TrcParseError {}

fn fmt_words(words: &[u32]) -> String {
    words
        .iter()
        .map(|w| format!("{w:#010x}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_words(s: &str, line: usize) -> Result<DataWords, TrcParseError> {
    s.split(',').map(|w| parse_u32(w.trim(), line)).collect()
}

fn parse_u32(s: &str, line: usize) -> Result<u32, TrcParseError> {
    let r = if let Some(hex) = s.strip_prefix("0x") {
        u32::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    r.map_err(|_| TrcParseError {
        line,
        reason: format!("invalid number {s:?}"),
    })
}

fn parse_at(s: &str, line: usize) -> Result<u64, TrcParseError> {
    let Some(n) = s.strip_prefix('@') else {
        return Err(TrcParseError {
            line,
            reason: format!("expected @timestamp, found {s:?}"),
        });
    };
    n.parse().map_err(|_| TrcParseError {
        line,
        reason: format!("invalid timestamp {s:?}"),
    })
}

impl MasterTrace {
    /// Serialises the trace to `.trc` text.
    pub fn to_trc(&self) -> String {
        let mut out = String::new();
        out.push_str("; ntg trace v1\n");
        let _ = writeln!(out, "MASTER {}", self.master);
        let _ = writeln!(out, "PERIOD_NS {}", self.period_ns);
        for ev in &self.events {
            match ev {
                TraceEvent::Request {
                    cmd,
                    addr,
                    data,
                    burst,
                    at,
                } => {
                    let _ = write!(out, "REQ {} {addr:#010x}", cmd.mnemonic());
                    if !data.is_empty() {
                        let _ = write!(out, " {}", fmt_words(data));
                    }
                    if *burst != 1 {
                        let _ = write!(out, " len={burst}");
                    }
                    let _ = writeln!(out, " @{at}");
                }
                TraceEvent::Accept { at } => {
                    let _ = writeln!(out, "ACK @{at}");
                }
                TraceEvent::Response { data, at } => {
                    let _ = writeln!(out, "RESP {} @{at}", fmt_words(data));
                }
            }
        }
        if let Some(h) = self.halt_at {
            let _ = writeln!(out, "HALT @{h}");
        }
        out.push_str("END\n");
        out
    }

    /// Parses `.trc` text.
    ///
    /// # Errors
    ///
    /// Returns a [`TrcParseError`] naming the offending line.
    pub fn from_trc(text: &str) -> Result<Self, TrcParseError> {
        let mut trace = MasterTrace::default();
        let mut saw_master = false;
        let mut saw_end = false;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with(';') {
                continue;
            }
            if saw_end {
                return Err(TrcParseError {
                    line: line_no,
                    reason: "content after END".into(),
                });
            }
            let mut parts = line.split_whitespace();
            let head = parts.next().expect("non-empty line");
            let err = |reason: &str| TrcParseError {
                line: line_no,
                reason: reason.into(),
            };
            match head {
                "MASTER" => {
                    let v = parts.next().ok_or_else(|| err("missing master id"))?;
                    trace.master = v.parse().map_err(|_| err("invalid master id"))?;
                    saw_master = true;
                }
                "PERIOD_NS" => {
                    let v = parts.next().ok_or_else(|| err("missing period"))?;
                    trace.period_ns = v.parse().map_err(|_| err("invalid period"))?;
                }
                "REQ" => {
                    let mnem = parts.next().ok_or_else(|| err("missing command"))?;
                    let cmd = match mnem {
                        "RD" => OcpCmd::Read,
                        "WR" => OcpCmd::Write,
                        "BRD" => OcpCmd::BurstRead,
                        "BWR" => OcpCmd::BurstWrite,
                        _ => return Err(err("unknown command mnemonic")),
                    };
                    let addr_s = parts.next().ok_or_else(|| err("missing address"))?;
                    let addr = parse_u32(addr_s, line_no)?;
                    let mut data = DataWords::new();
                    let mut burst: u8 = 1;
                    let mut at = None;
                    for tok in parts {
                        if let Some(l) = tok.strip_prefix("len=") {
                            burst = l.parse().map_err(|_| TrcParseError {
                                line: line_no,
                                reason: format!("invalid burst length {l:?}"),
                            })?;
                        } else if tok.starts_with('@') {
                            at = Some(parse_at(tok, line_no)?);
                        } else {
                            data = parse_words(tok, line_no)?;
                        }
                    }
                    let at = at.ok_or_else(|| err("missing timestamp"))?;
                    trace.events.push(TraceEvent::Request {
                        cmd,
                        addr,
                        data,
                        burst,
                        at,
                    });
                }
                "ACK" => {
                    let at_s = parts.next().ok_or_else(|| err("missing timestamp"))?;
                    trace.events.push(TraceEvent::Accept {
                        at: parse_at(at_s, line_no)?,
                    });
                }
                "RESP" => {
                    let first = parts.next().ok_or_else(|| err("missing payload"))?;
                    let (data, at_s) = if first.starts_with('@') {
                        (DataWords::new(), first)
                    } else {
                        let at_s = parts.next().ok_or_else(|| err("missing timestamp"))?;
                        (parse_words(first, line_no)?, at_s)
                    };
                    trace.events.push(TraceEvent::Response {
                        data,
                        at: parse_at(at_s, line_no)?,
                    });
                }
                "HALT" => {
                    let at_s = parts.next().ok_or_else(|| err("missing timestamp"))?;
                    trace.halt_at = Some(parse_at(at_s, line_no)?);
                }
                "END" => saw_end = true,
                _ => {
                    return Err(TrcParseError {
                        line: line_no,
                        reason: format!("unknown directive {head:?}"),
                    })
                }
            }
        }
        if !saw_end {
            return Err(TrcParseError {
                line: text.lines().count(),
                reason: "missing END".into(),
            });
        }
        if !saw_master {
            return Err(TrcParseError {
                line: 1,
                reason: "missing MASTER header".into(),
            });
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MasterTrace {
        MasterTrace {
            master: 2,
            period_ns: 5,
            events: vec![
                TraceEvent::Request {
                    cmd: OcpCmd::Read,
                    addr: 0x104,
                    data: vec![].into(),
                    burst: 1,
                    at: 55,
                },
                TraceEvent::Accept { at: 60 },
                TraceEvent::Response {
                    data: vec![0x088000f0].into(),
                    at: 75,
                },
                TraceEvent::Request {
                    cmd: OcpCmd::Write,
                    addr: 0x20,
                    data: vec![0x111].into(),
                    burst: 1,
                    at: 90,
                },
                TraceEvent::Accept { at: 95 },
                TraceEvent::Request {
                    cmd: OcpCmd::BurstRead,
                    addr: 0x100,
                    data: vec![].into(),
                    burst: 4,
                    at: 120,
                },
                TraceEvent::Accept { at: 125 },
                TraceEvent::Response {
                    data: vec![1, 2, 3, 4].into(),
                    at: 150,
                },
                TraceEvent::Request {
                    cmd: OcpCmd::BurstWrite,
                    addr: 0x200,
                    data: vec![9, 8].into(),
                    burst: 2,
                    at: 160,
                },
                TraceEvent::Accept { at: 170 },
            ],
            halt_at: Some(500),
        }
    }

    #[test]
    fn round_trips() {
        let tr = sample();
        let text = tr.to_trc();
        let back = MasterTrace::from_trc(&text).unwrap();
        assert_eq!(back, tr);
    }

    #[test]
    fn serialisation_is_stable() {
        // Identical traces must serialise to identical bytes — the
        // paper's validation experiment diffs translated programs, and we
        // additionally diff traces.
        assert_eq!(sample().to_trc(), sample().to_trc());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "; hello\n\nMASTER 1\nPERIOD_NS 5\n; mid comment\nEND\n";
        let tr = MasterTrace::from_trc(text).unwrap();
        assert_eq!(tr.master, 1);
        assert!(tr.events.is_empty());
    }

    #[test]
    fn missing_end_is_error() {
        let text = "MASTER 0\nPERIOD_NS 5\n";
        assert!(MasterTrace::from_trc(text).is_err());
    }

    #[test]
    fn unknown_directive_is_error() {
        let text = "MASTER 0\nPERIOD_NS 5\nBOGUS\nEND\n";
        let e = MasterTrace::from_trc(text).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn bad_number_is_error_with_line() {
        let text = "MASTER 0\nPERIOD_NS 5\nREQ RD 0xZZ @5\nEND\n";
        let e = MasterTrace::from_trc(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.reason.contains("0xZZ"));
    }

    #[test]
    fn content_after_end_is_error() {
        let text = "MASTER 0\nPERIOD_NS 5\nEND\nACK @5\n";
        assert!(MasterTrace::from_trc(text).is_err());
    }

    #[test]
    fn parses_paper_style_listing() {
        let text = "\
; polling a semaphore
MASTER 0
PERIOD_NS 5
REQ RD 0x000000ff @210
ACK @215
RESP 0x00000000 @270
REQ RD 0x000000ff @285
ACK @290
RESP 0x00000000 @310
REQ RD 0x000000ff @315
ACK @320
RESP 0x00000001 @330
END
";
        let tr = MasterTrace::from_trc(text).unwrap();
        let txs = tr.transactions().unwrap();
        assert_eq!(txs.len(), 3);
        assert_eq!(txs[2].resp_word(), 1);
    }

    /// Deterministic generator for the generated-input test below.
    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Generated listings — one in eight arbitrary text of up to 400
    /// characters, the rest a valid listing with a few mutations: the
    /// parser never panics, and whatever it accepts prints back to text
    /// that parses to the same trace. Each case runs on its own seed,
    /// named in every failure.
    #[test]
    fn mutated_listings_never_panic_and_accepted_ones_round_trip() {
        let base: Vec<char> = sample().to_trc().chars().collect();
        let mut accepted = 0;
        for seed in 0..4_000u64 {
            let mut rng = Xorshift((seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let text: String = if rng.below(8) == 0 {
                (0..rng.below(401))
                    .map(|_| char::from_u32(rng.below(0x250) as u32).unwrap_or('?'))
                    .collect()
            } else {
                mutate(&base, &mut rng)
            };
            let parsed = std::panic::catch_unwind(|| MasterTrace::from_trc(&text))
                .unwrap_or_else(|_| panic!("seed {seed}: the parser panicked on {text:?}"));
            if let Ok(trace) = parsed {
                let again = MasterTrace::from_trc(&trace.to_trc())
                    .unwrap_or_else(|e| panic!("seed {seed}: printed listing rejected: {e}"));
                assert_eq!(again, trace, "seed {seed}: {text:?}");
                accepted += 1;
            }
        }
        assert!(accepted > 100, "only {accepted} generated listings parsed");
    }

    /// `base` with one to four random deletions, token insertions or
    /// character insertions.
    fn mutate(base: &[char], rng: &mut Xorshift) -> String {
        const PIECES: [&str; 24] = [
            "REQ ",
            "RD ",
            "WR ",
            "BRD ",
            "BWR ",
            "ACK ",
            "RESP ",
            "HALT ",
            "END\n",
            "MASTER ",
            "PERIOD_NS ",
            "len=",
            "@",
            "0x",
            ",",
            " ",
            "\n",
            ";",
            "7",
            "ff",
            "-1",
            "99999999999999999999",
            "\u{e9}",
            "\u{0}",
        ];
        let mut text = base.to_vec();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(text.len() + 1);
            match rng.below(3) {
                0 => {
                    let end = (at + 1 + rng.below(12)).min(text.len());
                    text.drain(at..end);
                }
                1 => {
                    let piece = PIECES[rng.below(PIECES.len())];
                    text.splice(at..at, piece.chars());
                }
                _ => {
                    let c = char::from_u32(rng.below(0x250) as u32).unwrap_or('?');
                    text.insert(at, c);
                }
            }
        }
        text.into_iter().collect()
    }
}
