//! Leveled logging gated by the `MAGELLAN_LOG` environment variable.
//!
//! Library code must never write to stdout unconditionally; the
//! [`log!`](crate::log) macro routes leveled messages to **stderr** and
//! compiles down to one atomic load when the level is off. Binaries that
//! historically printed progress call [`init_bin_logging`] to default to
//! `Info` while still letting `MAGELLAN_LOG` override.

use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or surprising failures.
    Error = 1,
    /// Degraded but continuing.
    Warn = 2,
    /// High-level progress (default for bench/experiment binaries).
    Info = 3,
    /// Per-phase internals.
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    /// Lower-case display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

const UNSET: u8 = 0xFF;
static LEVEL: AtomicU8 = AtomicU8::new(UNSET);

fn parse_level(s: &str) -> u8 {
    match s.trim().to_ascii_lowercase().as_str() {
        "error" | "1" => 1,
        "warn" | "warning" | "2" => 2,
        "info" | "3" => 3,
        "debug" | "4" => 4,
        "trace" | "5" => 5,
        // "off", "0", "", unknown — all silent.
        _ => 0,
    }
}

fn effective() -> u8 {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != UNSET {
        return v;
    }
    let e = match std::env::var("MAGELLAN_LOG") {
        Ok(s) => parse_level(&s),
        Err(_) => 0,
    };
    LEVEL.store(e, Ordering::Relaxed);
    e
}

/// Programmatically set (or, with `None`, silence) the log level,
/// overriding `MAGELLAN_LOG`.
pub fn set_log_level(level: Option<Level>) {
    LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// The currently effective level, if logging is enabled at all.
pub fn log_level() -> Option<Level> {
    match effective() {
        1 => Some(Level::Error),
        2 => Some(Level::Warn),
        3 => Some(Level::Info),
        4 => Some(Level::Debug),
        5 => Some(Level::Trace),
        _ => None,
    }
}

/// Would a message at `level` currently be emitted?
pub fn log_enabled(level: Level) -> bool {
    (level as u8) <= effective()
}

/// For binaries: default to `default` unless `MAGELLAN_LOG` is set or a
/// level was already chosen programmatically.
pub fn init_bin_logging(default: Level) {
    if std::env::var_os("MAGELLAN_LOG").is_none() && LEVEL.load(Ordering::Relaxed) == UNSET {
        LEVEL.store(default as u8, Ordering::Relaxed);
    }
}

#[doc(hidden)]
pub fn __log_emit(level: Level, args: std::fmt::Arguments<'_>) {
    eprintln!("[magellan:{level}] {args}");
}

/// Leveled logging macro: `obs::log!(info, "scored {} pairs", n)`.
///
/// Levels are the lower-case idents `error`, `warn`, `info`, `debug`,
/// `trace`. Formatting is lazy — arguments are only evaluated when the
/// level is enabled — and output goes to stderr, never stdout.
#[macro_export]
macro_rules! log {
    (error, $($arg:tt)+) => { $crate::__log_impl!($crate::Level::Error, $($arg)+) };
    (warn,  $($arg:tt)+) => { $crate::__log_impl!($crate::Level::Warn,  $($arg)+) };
    (info,  $($arg:tt)+) => { $crate::__log_impl!($crate::Level::Info,  $($arg)+) };
    (debug, $($arg:tt)+) => { $crate::__log_impl!($crate::Level::Debug, $($arg)+) };
    (trace, $($arg:tt)+) => { $crate::__log_impl!($crate::Level::Trace, $($arg)+) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __log_impl {
    ($lvl:expr, $($arg:tt)+) => {{
        let lvl = $lvl;
        if $crate::log_enabled(lvl) {
            $crate::__log_emit(lvl, ::core::format_args!($($arg)+));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_gate() {
        set_log_level(Some(Level::Warn));
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Warn));
        assert!(!log_enabled(Level::Info));
        assert_eq!(log_level(), Some(Level::Warn));
        set_log_level(None);
        assert!(!log_enabled(Level::Error));
        assert_eq!(log_level(), None);
        // Macro with logging off: format args must not be evaluated.
        let mut evaluated = false;
        crate::log!(error, "{}", {
            evaluated = true;
            "x"
        });
        assert!(!evaluated, "format args evaluated while disabled");
        set_log_level(Some(Level::Trace));
        crate::log!(
            trace,
            "trace message {} (to stderr, expected in test output)",
            42
        );
        set_log_level(None);
    }

    #[test]
    fn parse_level_accepts_names_and_numbers() {
        assert_eq!(parse_level("error"), 1);
        assert_eq!(parse_level("WARN"), 2);
        assert_eq!(parse_level(" info "), 3);
        assert_eq!(parse_level("4"), 4);
        assert_eq!(parse_level("trace"), 5);
        assert_eq!(parse_level("off"), 0);
        assert_eq!(parse_level(""), 0);
        assert_eq!(parse_level("bogus"), 0);
    }
}
