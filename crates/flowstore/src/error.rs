//! Error type for the flow store. Everything fallible returns
//! [`Result`]; the crate contains no `unwrap`/`expect` outside tests.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Failure while writing, reading, or verifying a part.
#[derive(Debug)]
pub enum Error {
    /// Underlying filesystem failure, tagged with the path involved.
    Io {
        /// Path the operation was touching.
        path: std::path::PathBuf,
        /// The originating I/O error.
        source: std::io::Error,
    },
    /// Structural corruption: truncation, a checksum mismatch, a footer
    /// that does not fit the file, or a codec overrun.
    Corrupt(String),
    /// The file is not an `FSPART2` part: its magic names the older
    /// `FSPART1` format or no flowstore format at all.
    Format {
        /// Path of the file.
        path: std::path::PathBuf,
        /// The file's first eight bytes.
        magic: [u8; 8],
    },
    /// A replay delivered a different stream than the live run digested.
    Diverged {
        /// Digest of the live stream.
        live: u64,
        /// Records in the live stream.
        live_rows: u64,
        /// Digest of the replayed stream.
        replayed: u64,
        /// Records replayed.
        replayed_rows: u64,
    },
}

impl Error {
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        Error::Corrupt(msg.into())
    }

    pub(crate) fn io(path: impl Into<std::path::PathBuf>, source: std::io::Error) -> Self {
        Error::Io {
            path: path.into(),
            source,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { path, source } => write!(f, "io error at {}: {source}", path.display()),
            Error::Corrupt(msg) => write!(f, "corrupt part: {msg}"),
            Error::Format { path, magic } => write!(
                f,
                "{}: not an FSPART2 part (magic {:?}); re-spill parts from other versions",
                path.display(),
                String::from_utf8_lossy(magic)
            ),
            Error::Diverged {
                live,
                live_rows,
                replayed,
                replayed_rows,
            } => write!(
                f,
                "spill replay diverged: live {live:#018x} ({live_rows} rows) vs replay \
                 {replayed:#018x} ({replayed_rows} rows)"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            Error::Corrupt(_) | Error::Format { .. } | Error::Diverged { .. } => None,
        }
    }
}
