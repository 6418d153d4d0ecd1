//! Diagnostics: rule id, level, location, message, and rendering.

use std::fmt;
use std::path::PathBuf;

/// Severity of a diagnostic. `Deny` diagnostics fail the check (non-zero
/// exit); `Warn` diagnostics are reported but do not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Warn,
    Deny,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Warn => write!(f, "warn"),
            Level::Deny => write!(f, "deny"),
        }
    }
}

/// One finding, addressed `file:line` like rustc output.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Short rule name, e.g. `lock_order`; rendered as `hdsj::lock_order`,
    /// matching the `allow(hdsj::lock_order)` suppression syntax.
    pub rule: &'static str,
    pub level: Level,
    pub path: PathBuf,
    /// 1-based source line.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[hdsj::{}] {}",
            self.path.display(),
            self.line,
            self.level,
            self.rule,
            self.message
        )
    }
}

impl Diagnostic {
    /// Renders as a single JSON object (used by `--format json`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"hdsj::{}\",\"level\":\"{}\",\"file\":{:?},\"line\":{},\"message\":{:?}}}",
            self.rule,
            self.level,
            self.path.display().to_string(),
            self.line,
            self.message
        )
    }
}
