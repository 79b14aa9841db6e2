//! Fault schedules: a line-oriented on-disk format for replica fault
//! injection, plus a seeded random generator.
//!
//! A fault schedule is the workload-side twin of a trace: it says *what
//! happens to the fleet* while the trace says what happens to the queue.
//! Like traces, schedules are plain text so they can be produced from any
//! incident log and diffed in code review:
//!
//! ```text
//! #vidur-faults v1
//! # comments and blank lines are ignored
//! 120      crash   2
//! 180.5    recover 2
//! 300      slow    0 1.8
//! 420      restore 0
//! 900      drain   3
//! ```
//!
//! * The first non-blank line must be the `#vidur-faults v1` magic.
//! * Records are whitespace-separated:
//!   `<at-secs> <action> <replica> [<multiplier>]` — timestamps are decimal
//!   seconds with nanosecond precision (parsed exactly, no float
//!   round-trip) and must be non-decreasing.
//! * Actions: `crash` (hard failure: everything on the replica requeues),
//!   `recover` (begin warm-up; the replica becomes routable after the
//!   warm-up delay), `slow <mult>` (straggler episode: stage times scale by
//!   `mult` ≥ 1 until restored), `restore` (end a straggler episode), and
//!   `drain` (graceful: queued work migrates, running work finishes).
//!
//! Malformed input yields a typed [`FaultError`] carrying the 1-based line
//! number — the loader never panics, mirroring
//! [`replay`](crate::replay)'s contract for traces.

use crate::replay::{format_timestamp, parse_timestamp};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{BufRead, Write};
use std::path::Path;
use vidur_core::rng::SimRng;
use vidur_core::time::SimTime;

/// Magic first line of a fault-schedule file.
pub const FAULTS_MAGIC: &str = "#vidur-faults v1";

/// What a fault record does to its replica.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Hard failure: in-flight and queued work requeues, KV blocks are
    /// reclaimed, and the replica leaves the routable set.
    Crash,
    /// Begin recovery: the replica warms up (model load + weight transfer)
    /// and becomes routable when warm-up completes.
    Recover,
    /// Straggler episode: the replica's stage times scale by the factor
    /// (≥ 1) until a [`FaultAction::Restore`].
    Slow(f64),
    /// End a straggler episode (stage-time multiplier back to 1).
    Restore,
    /// Graceful drain: queued work migrates through the routing tier,
    /// running work finishes, then the replica leaves the fleet.
    Drain,
}

/// One scheduled fault: at `at`, `action` happens to `replica`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// When the fault fires.
    pub at: SimTime,
    /// Global replica index the fault applies to.
    pub replica: u32,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic, time-ordered list of replica faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Records in non-decreasing `at` order.
    pub records: Vec<FaultRecord>,
}

/// A typed fault-schedule error. Every parse variant carries the 1-based
/// line number of the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// Underlying I/O failure.
    Io {
        /// File path (or `"<reader>"` for in-memory sources).
        path: String,
        /// The I/O error message.
        message: String,
    },
    /// The file does not start with [`FAULTS_MAGIC`].
    MissingHeader {
        /// Line that should have been the magic.
        line: usize,
    },
    /// A record with the wrong number of fields for its action.
    BadArity {
        /// Offending line.
        line: usize,
        /// Fields actually present.
        found: usize,
    },
    /// An unparseable or negative timestamp.
    BadTimestamp {
        /// Offending line.
        line: usize,
        /// The raw field.
        value: String,
    },
    /// A timestamp earlier than the preceding record's.
    NonMonotonic {
        /// Offending line.
        line: usize,
    },
    /// An unknown action keyword.
    UnknownAction {
        /// Offending line.
        line: usize,
        /// The keyword as written.
        action: String,
    },
    /// An unparseable replica index.
    BadReplica {
        /// Offending line.
        line: usize,
        /// The raw field.
        value: String,
    },
    /// An unparseable or < 1 straggler multiplier.
    BadMultiplier {
        /// Offending line.
        line: usize,
        /// The raw field.
        value: String,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Io { path, message } => write!(f, "{path}: {message}"),
            FaultError::MissingHeader { line } => {
                write!(f, "line {line}: expected `{FAULTS_MAGIC}` header")
            }
            FaultError::BadArity { line, found } => {
                write!(f, "line {line}: wrong field count ({found}) for record")
            }
            FaultError::BadTimestamp { line, value } => {
                write!(f, "line {line}: bad timestamp `{value}`")
            }
            FaultError::NonMonotonic { line } => {
                write!(f, "line {line}: timestamp earlier than the previous record")
            }
            FaultError::UnknownAction { line, action } => write!(
                f,
                "line {line}: unknown action `{action}` \
                 (expected crash/recover/slow/restore/drain)"
            ),
            FaultError::BadReplica { line, value } => {
                write!(f, "line {line}: bad replica index `{value}`")
            }
            FaultError::BadMultiplier { line, value } => {
                write!(f, "line {line}: bad multiplier `{value}` (need ≥ 1)")
            }
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultSchedule {
    /// An empty schedule (no faults ever fire).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// True when the schedule contains no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Parses a schedule from a reader.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultError`] on I/O failure or malformed input; see the
    /// module docs for the format.
    pub fn from_reader<R: BufRead>(mut reader: R) -> Result<Self, FaultError> {
        let mut line_no = 0usize;
        let mut saw_magic = false;
        let mut last_at = SimTime::ZERO;
        let mut records = Vec::new();
        loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).map_err(|e| FaultError::Io {
                path: "<reader>".to_string(),
                message: e.to_string(),
            })?;
            if n == 0 {
                if !saw_magic {
                    return Err(FaultError::MissingHeader { line: line_no + 1 });
                }
                return Ok(FaultSchedule { records });
            }
            line_no += 1;
            let trimmed = line.trim();
            if !saw_magic {
                if trimmed.is_empty() {
                    continue;
                }
                if trimmed != FAULTS_MAGIC {
                    return Err(FaultError::MissingHeader { line: line_no });
                }
                saw_magic = true;
                continue;
            }
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split_whitespace().collect();
            if fields.len() < 3 {
                return Err(FaultError::BadArity {
                    line: line_no,
                    found: fields.len(),
                });
            }
            let nanos = parse_timestamp(fields[0]).ok_or_else(|| FaultError::BadTimestamp {
                line: line_no,
                value: fields[0].to_string(),
            })?;
            let at = SimTime::from_nanos(nanos);
            if at < last_at {
                return Err(FaultError::NonMonotonic { line: line_no });
            }
            last_at = at;
            let replica: u32 = fields[2].parse().map_err(|_| FaultError::BadReplica {
                line: line_no,
                value: fields[2].to_string(),
            })?;
            let (action, arity) = match fields[1] {
                "crash" => (FaultAction::Crash, 3),
                "recover" => (FaultAction::Recover, 3),
                "restore" => (FaultAction::Restore, 3),
                "drain" => (FaultAction::Drain, 3),
                "slow" => {
                    if fields.len() != 4 {
                        return Err(FaultError::BadArity {
                            line: line_no,
                            found: fields.len(),
                        });
                    }
                    let mult: f64 = fields[3].parse().map_err(|_| FaultError::BadMultiplier {
                        line: line_no,
                        value: fields[3].to_string(),
                    })?;
                    if !mult.is_finite() || mult < 1.0 {
                        return Err(FaultError::BadMultiplier {
                            line: line_no,
                            value: fields[3].to_string(),
                        });
                    }
                    (FaultAction::Slow(mult), 4)
                }
                other => {
                    return Err(FaultError::UnknownAction {
                        line: line_no,
                        action: other.to_string(),
                    })
                }
            };
            if fields.len() != arity {
                return Err(FaultError::BadArity {
                    line: line_no,
                    found: fields.len(),
                });
            }
            records.push(FaultRecord {
                at,
                replica,
                action,
            });
        }
    }

    /// Parses a schedule from a string.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultError`] on malformed input.
    pub fn parse(text: &str) -> Result<Self, FaultError> {
        Self::from_reader(text.as_bytes())
    }

    /// Loads a schedule from a file.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultError`] on I/O failure or malformed input.
    pub fn from_file<P: AsRef<Path>>(path: P) -> Result<Self, FaultError> {
        let path = path.as_ref();
        let io = |message| FaultError::Io {
            path: path.display().to_string(),
            message,
        };
        let file = std::fs::File::open(path).map_err(|e| io(e.to_string()))?;
        Self::from_reader(std::io::BufReader::new(file)).map_err(|e| match e {
            FaultError::Io { message, .. } => io(message),
            other => other,
        })
    }

    /// Writes the schedule in the line format; parsing the output yields an
    /// equal schedule.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultError::Io`] on write failure.
    pub fn to_writer<W: Write>(&self, mut w: W) -> Result<(), FaultError> {
        let io_err = |e: std::io::Error| FaultError::Io {
            path: "<writer>".to_string(),
            message: e.to_string(),
        };
        writeln!(w, "{FAULTS_MAGIC}").map_err(io_err)?;
        for rec in &self.records {
            let at = format_timestamp(rec.at.as_nanos());
            match rec.action {
                FaultAction::Crash => writeln!(w, "{at} crash {}", rec.replica),
                FaultAction::Recover => writeln!(w, "{at} recover {}", rec.replica),
                FaultAction::Slow(mult) => writeln!(w, "{at} slow {} {mult}", rec.replica),
                FaultAction::Restore => writeln!(w, "{at} restore {}", rec.replica),
                FaultAction::Drain => writeln!(w, "{at} drain {}", rec.replica),
            }
            .map_err(io_err)?;
        }
        Ok(())
    }

    /// Generates a deterministic crash/recover schedule: each replica fails
    /// independently with exponential inter-failure times (mean
    /// `mtbf_secs`) and recovers after an exponential downtime (mean
    /// `mttr_secs`), truncated at `horizon_secs`. Replica RNG streams are
    /// forked from `seed`, so the schedule for replica `r` does not depend
    /// on how many other replicas exist.
    pub fn random_crashes(
        seed: u64,
        num_replicas: usize,
        horizon_secs: f64,
        mtbf_secs: f64,
        mttr_secs: f64,
    ) -> Self {
        assert!(mtbf_secs > 0.0 && mttr_secs > 0.0, "means must be positive");
        let mut root = SimRng::new(seed);
        let mut records = Vec::new();
        for replica in 0..num_replicas as u32 {
            let mut rng = root.fork(replica as u64);
            let mut t = exp_sample(&mut rng, mtbf_secs);
            while t < horizon_secs {
                records.push(FaultRecord {
                    at: SimTime::from_secs_f64(t),
                    replica,
                    action: FaultAction::Crash,
                });
                t += exp_sample(&mut rng, mttr_secs);
                if t >= horizon_secs {
                    break;
                }
                records.push(FaultRecord {
                    at: SimTime::from_secs_f64(t),
                    replica,
                    action: FaultAction::Recover,
                });
                t += exp_sample(&mut rng, mtbf_secs);
            }
        }
        // Stable ordering: time, then replica index for simultaneous faults.
        records.sort_by_key(|r| (r.at, r.replica));
        FaultSchedule { records }
    }
}

/// One exponential draw with the given mean (inverse-CDF on a (0, 1] draw).
fn exp_sample(rng: &mut SimRng, mean_secs: f64) -> f64 {
    let u = 1.0 - rng.next_f64(); // (0, 1]: ln never sees 0
    -mean_secs * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_actions() {
        let schedule = FaultSchedule::parse(
            "#vidur-faults v1\n\
             # a comment\n\
             10 crash 2\n\
             20.5 recover 2\n\
             30 slow 0 1.75\n\
             40 restore 0\n\
             50 drain 1\n",
        )
        .unwrap();
        assert_eq!(schedule.records.len(), 5);
        assert_eq!(schedule.records[0].action, FaultAction::Crash);
        assert_eq!(schedule.records[0].replica, 2);
        assert_eq!(schedule.records[1].at, SimTime::from_secs_f64(20.5));
        assert_eq!(schedule.records[2].action, FaultAction::Slow(1.75));
        assert_eq!(schedule.records[3].action, FaultAction::Restore);
        assert_eq!(schedule.records[4].action, FaultAction::Drain);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultSchedule::new().is_empty());
        assert!(FaultSchedule::default().is_empty());
    }

    #[test]
    fn read_errors_name_the_file() {
        // Opening a directory succeeds on Linux, so the first read fails;
        // either way the error must name the path.
        let dir = env!("CARGO_MANIFEST_DIR");
        match FaultSchedule::from_file(dir) {
            Err(FaultError::Io { path, .. }) => assert_eq!(path, dir),
            other => panic!("expected an I/O error naming {dir}, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_through_writer() {
        let schedule = FaultSchedule::parse(
            "#vidur-faults v1\n\
             0.000000001 crash 0\n\
             1.5 slow 3 2\n\
             2 recover 0\n",
        )
        .unwrap();
        let mut buf = Vec::new();
        schedule.to_writer(&mut buf).unwrap();
        let reloaded = FaultSchedule::from_reader(&buf[..]).unwrap();
        assert_eq!(schedule, reloaded);
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(
            FaultSchedule::parse("10 crash 0\n"),
            Err(FaultError::MissingHeader { line: 1 })
        );
        assert_eq!(
            FaultSchedule::parse("#vidur-faults v1\n10 crash\n"),
            Err(FaultError::BadArity { line: 2, found: 2 })
        );
        assert_eq!(
            FaultSchedule::parse("#vidur-faults v1\n10 explode 0\n"),
            Err(FaultError::UnknownAction {
                line: 2,
                action: "explode".to_string()
            })
        );
        assert_eq!(
            FaultSchedule::parse("#vidur-faults v1\n10 crash 0\n5 recover 0\n"),
            Err(FaultError::NonMonotonic { line: 3 })
        );
        assert_eq!(
            FaultSchedule::parse("#vidur-faults v1\n10 slow 0 0.5\n"),
            Err(FaultError::BadMultiplier {
                line: 2,
                value: "0.5".to_string()
            })
        );
        assert_eq!(
            FaultSchedule::parse("#vidur-faults v1\n1e3 crash 0\n"),
            Err(FaultError::BadTimestamp {
                line: 2,
                value: "1e3".to_string()
            })
        );
        assert_eq!(
            FaultSchedule::parse("#vidur-faults v1\n10 crash x\n"),
            Err(FaultError::BadReplica {
                line: 2,
                value: "x".to_string()
            })
        );
    }

    #[test]
    fn random_schedule_is_deterministic_and_alternates() {
        let a = FaultSchedule::random_crashes(7, 4, 3600.0, 600.0, 60.0);
        let b = FaultSchedule::random_crashes(7, 4, 3600.0, 600.0, 60.0);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "an hour at 10min MTBF should fault");
        // Per replica, the action stream must alternate crash/recover.
        for replica in 0..4u32 {
            let mut expect_crash = true;
            for rec in a.records.iter().filter(|r| r.replica == replica) {
                let want = if expect_crash {
                    FaultAction::Crash
                } else {
                    FaultAction::Recover
                };
                assert_eq!(rec.action, want);
                expect_crash = !expect_crash;
            }
        }
        // And the merged stream must be time-ordered.
        for pair in a.records.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        // Replica streams are forked: a different seed moves every stream.
        let c = FaultSchedule::random_crashes(8, 4, 3600.0, 600.0, 60.0);
        assert_ne!(a, c);
    }
}
