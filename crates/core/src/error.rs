//! The unified Magellan error taxonomy.
//!
//! Every layer of the stack has its own failure vocabulary — `TableError`
//! for the tabular substrate, `PersistError` for model/workflow text
//! formats, I/O errors from checkpoints — and the execution layer needs
//! one more axis over all of them: **is retrying worth it?**
//! [`MagellanError::transient`] answers that question, and the
//! fault-injected executors ([`crate::exec::ProductionExecutor`] and the
//! Falcon metamanager) base every retry decision on it via the
//! [`magellan_faults::Transience`] trait.

use std::fmt;

use magellan_faults::Transience;
use magellan_ml::persist::PersistError;
use magellan_table::TableError;

/// The workspace-wide error type of the execution layer.
#[derive(Debug)]
pub enum MagellanError {
    /// A tabular-substrate failure (schema, catalog, CSV, I/O).
    Table(TableError),
    /// A model/workflow persistence failure (corrupt or truncated text).
    Persist(PersistError),
    /// A pipeline phase failed. `transient` records whether the failure
    /// was environmental (worth retrying) or logical (fatal).
    Phase {
        /// Which phase failed (`"blocking"`, `"matching"`, ...).
        phase: &'static str,
        /// Human-readable cause.
        message: String,
        /// Whether a retry can plausibly succeed.
        transient: bool,
    },
    /// A checkpoint could not be written, read, or parsed.
    Checkpoint {
        /// Human-readable cause.
        message: String,
        /// Whether a retry can plausibly succeed (I/O blips are
        /// transient; a corrupt checkpoint is not).
        transient: bool,
    },
    /// The caller asked for an impossible configuration (zero scheduler
    /// slots, zero-weight tenant, ...). Always fatal: retrying the same
    /// configuration cannot succeed.
    Config {
        /// Human-readable description of the bad configuration.
        message: String,
    },
    /// The workflow was killed mid-run (used by the chaos suite to model
    /// process death between phases). The checkpoint on disk is the
    /// recovery path — rerunning resumes, so the kill itself is fatal for
    /// *this* invocation.
    Killed {
        /// The last phase whose checkpoint was durably written.
        after_phase: &'static str,
    },
}

impl MagellanError {
    /// True when a retry of the failed operation can plausibly succeed.
    pub fn transient(&self) -> bool {
        match self {
            MagellanError::Table(e) => io_transient(e),
            MagellanError::Persist(_) => false,
            MagellanError::Phase { transient, .. } => *transient,
            MagellanError::Checkpoint { transient, .. } => *transient,
            MagellanError::Config { .. } => false,
            MagellanError::Killed { .. } => false,
        }
    }

    /// True when retrying cannot help.
    pub fn fatal(&self) -> bool {
        !self.transient()
    }

    /// Static variant name, for deterministic telemetry fields (the
    /// flight recorder tags `fatal_error` failures with it).
    pub fn kind_name(&self) -> &'static str {
        match self {
            MagellanError::Table(_) => "table",
            MagellanError::Persist(_) => "persist",
            MagellanError::Phase { .. } => "phase",
            MagellanError::Checkpoint { .. } => "checkpoint",
            MagellanError::Config { .. } => "config",
            MagellanError::Killed { .. } => "killed",
        }
    }
}

/// `TableError`'s only plausibly-transient face is an I/O error of a
/// retryable kind; everything else (schema mismatch, CSV syntax, key
/// violations) is deterministic.
fn io_transient(e: &TableError) -> bool {
    match e {
        TableError::Io(io) => matches!(
            io.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
        ),
        _ => false,
    }
}

impl Transience for MagellanError {
    fn transient(&self) -> bool {
        MagellanError::transient(self)
    }
}

impl fmt::Display for MagellanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MagellanError::Table(e) => write!(f, "table error: {e}"),
            MagellanError::Persist(e) => write!(f, "persistence error: {e}"),
            MagellanError::Phase {
                phase,
                message,
                transient,
            } => write!(
                f,
                "{phase} phase failed ({}): {message}",
                if *transient { "transient" } else { "fatal" }
            ),
            MagellanError::Checkpoint { message, .. } => {
                write!(f, "checkpoint error: {message}")
            }
            MagellanError::Config { message } => {
                write!(f, "invalid configuration: {message}")
            }
            MagellanError::Killed { after_phase } => {
                write!(
                    f,
                    "workflow killed after phase `{after_phase}` (checkpoint saved)"
                )
            }
        }
    }
}

impl std::error::Error for MagellanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MagellanError::Table(e) => Some(e),
            MagellanError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TableError> for MagellanError {
    fn from(e: TableError) -> Self {
        MagellanError::Table(e)
    }
}

impl From<PersistError> for MagellanError {
    fn from(e: PersistError) -> Self {
        MagellanError::Persist(e)
    }
}

impl From<std::io::Error> for MagellanError {
    fn from(e: std::io::Error) -> Self {
        MagellanError::Table(TableError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        let e = MagellanError::from(TableError::UnknownColumn("x".into()));
        assert!(e.fatal());
        let e = MagellanError::from(std::io::Error::new(std::io::ErrorKind::Interrupted, "blip"));
        assert!(e.transient());
        let e = MagellanError::from(std::io::Error::other("disk on fire"));
        assert!(e.fatal());
        let e = MagellanError::Phase {
            phase: "blocking",
            message: "worker pool crashed".into(),
            transient: true,
        };
        assert!(e.transient());
        assert!(MagellanError::Killed {
            after_phase: "blocking"
        }
        .fatal());
        let e = MagellanError::Config {
            message: "batch_slots must be >= 1".into(),
        };
        assert!(e.fatal());
        assert!(e.to_string().contains("batch_slots"));
        let e = MagellanError::from(PersistError {
            line: 3,
            message: "bad".into(),
        });
        assert!(e.fatal());
    }

    #[test]
    fn displays_are_informative_and_sources_chain() {
        use std::error::Error;
        let e = MagellanError::from(TableError::UnknownColumn("nm".into()));
        assert!(e.to_string().contains("nm"));
        assert!(e.source().is_some());
        let e = MagellanError::Phase {
            phase: "matching",
            message: "boom".into(),
            transient: false,
        };
        let s = e.to_string();
        assert!(s.contains("matching") && s.contains("fatal") && s.contains("boom"));
        let e = MagellanError::Killed {
            after_phase: "matching",
        };
        assert!(e.to_string().contains("matching"));
    }

    #[test]
    fn transience_trait_matches_inherent_method() {
        for transient in [true, false] {
            let e = MagellanError::Phase {
                phase: "matching",
                message: "x".into(),
                transient,
            };
            assert_eq!(Transience::transient(&e), e.transient());
        }
    }
}
