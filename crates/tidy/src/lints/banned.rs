//! The engine shared by the allowlist lints (`wall-clock`,
//! `unchecked-env`, `raw-thread`): each bans a few substrings in non-test
//! code everywhere except the files sanctioned to use them. Test files and
//! `#[cfg(test)]` regions are exempt; one finding per line at most.

use super::Lint;
use crate::source::SourceFile;
use crate::Finding;

/// One allowlist lint; see the module docs.
pub struct Banned {
    /// Registry name, used in findings and `tidy:allow(name)` directives.
    pub name: &'static str,
    /// One-line catalogue description (`tidy --list`).
    pub description: &'static str,
    /// Workspace-relative files sanctioned to use the patterns.
    pub allowed_files: &'static [&'static str],
    /// Substrings flagged anywhere else.
    pub patterns: &'static [&'static str],
    /// The finding's message after the offending pattern: what to do
    /// instead.
    pub advice: &'static str,
}

impl Lint for Banned {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn check_file(&mut self, file: &SourceFile, sink: &mut Vec<Finding>) {
        if self.allowed_files.contains(&file.rel_path.as_str()) || file.is_test_file {
            return;
        }
        for (idx, line) in file.code.iter().enumerate() {
            let lineno = idx + 1;
            if file.is_test_line(lineno) {
                continue;
            }
            if let Some(pat) = self.patterns.iter().find(|pat| line.contains(*pat)) {
                sink.push(Finding {
                    lint: self.name,
                    file: file.rel_path.clone(),
                    line: lineno,
                    message: format!("`{pat}` {}", self.advice),
                });
            }
        }
    }
}
