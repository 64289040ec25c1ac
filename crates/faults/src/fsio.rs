//! Crash-safe file I/O: atomic writes, CRC32 checksums and the framed
//! file codec the checkpoint and online-state formats share.
//!
//! [`atomic_write`] is the one sanctioned way to persist state in this
//! workspace (stgnn-lint L006 flags raw `File::create` on persistence
//! paths). It guarantees a reader — including a process that comes back
//! after a crash — observes either the complete previous file or the
//! complete new one, never a prefix, by writing to a temp sibling,
//! fsyncing, and renaming over the destination (rename within a directory
//! is atomic on POSIX filesystems).
//!
//! The helper is itself instrumented with failpoints
//! (`atomic_write::create` / `::write` / `::fsync` / `::rename`) so chaos
//! tests can script a torn write at any stage and assert the destination
//! survives intact.
//!
//! [`write_framed`] / [`read_framed`] put a payload in a self-checking
//! envelope:
//!
//! ```text
//! <magic>\n                          e.g. "stgnn-ckpt v1"
//! crc32 <8-hex> len <payload bytes>\n
//! <payload>
//! ```
//!
//! Truncation, bit rot, version skew and any other damage (including
//! bytes past the declared length) come back as a typed [`FrameError`].

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes a file atomically: `fill` streams the content into a buffered
/// temp sibling, which is fsynced and renamed over `path`. On any error
/// the temp file is removed and the previous `path` content (if any) is
/// left untouched.
pub fn atomic_write<P, F>(path: P, fill: F) -> io::Result<()>
where
    P: AsRef<Path>,
    F: FnOnce(&mut dyn Write) -> io::Result<()>,
{
    let path = path.as_ref();
    let tmp = temp_sibling(path);
    let result = (|| -> io::Result<()> {
        crate::failpoint!("atomic_write::create", io);
        // lint: allow(L006) — this is the atomic writer itself.
        let file = File::create(&tmp)?;
        let mut writer = BufWriter::new(file);
        crate::failpoint!("atomic_write::write", io);
        fill(&mut writer)?;
        writer.flush()?;
        crate::failpoint!("atomic_write::fsync", io);
        writer.get_ref().sync_all()?;
        drop(writer);
        crate::failpoint!("atomic_write::rename", io);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// A temp path in the same directory as `path` (rename is only atomic
/// within a filesystem), unique per process and per call so concurrent
/// writers of different files never collide.
fn temp_sibling(path: &Path) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_default();
    path.with_file_name(format!(".{name}.tmp.{pid}.{n}"))
}

/// Why [`read_framed`] rejected a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The magic line names another version of the same format: it shares
    /// the expected magic's text up to the last space (`stgnn-ckpt v99`
    /// against `stgnn-ckpt v1`).
    VersionSkew {
        /// The magic this build reads.
        expected: String,
        /// The magic line found in the file.
        found: String,
    },
    /// The file ends before the length the header promises.
    Truncated {
        /// Payload bytes the header declared.
        expected: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The payload does not hash to the header's CRC-32.
    ChecksumMismatch {
        /// CRC the header declared.
        expected: u32,
        /// CRC of the bytes read.
        actual: u32,
    },
    /// Not a frame of this format: a foreign magic line, a missing or
    /// unparsable header, or bytes past the declared payload length.
    Malformed(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::VersionSkew { expected, found } => write!(
                f,
                "version skew: this build reads {expected:?}, file starts with {found:?}"
            ),
            FrameError::Truncated { expected, actual } => write!(
                f,
                "truncated: header promises {expected} payload bytes, found {actual}"
            ),
            FrameError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: header says {expected:08x}, payload hashes to {actual:08x}"
            ),
            FrameError::Malformed(msg) => write!(f, "malformed: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Atomically writes `payload` framed by `magic` and a CRC/length header
/// (see the module docs); [`read_framed`] is the inverse.
pub fn write_framed(path: impl AsRef<Path>, magic: &str, payload: &[u8]) -> io::Result<()> {
    let crc = crc32(payload);
    atomic_write(path, |w| {
        writeln!(w, "{magic}")?;
        writeln!(w, "crc32 {crc:08x} len {}", payload.len())?;
        w.write_all(payload)
    })
}

/// Checks the frame [`write_framed`] wrote around `bytes` and returns the
/// payload. Every defect is a [`FrameError`]; a returned payload has the
/// declared length exactly and a matching CRC.
pub fn read_framed<'a>(bytes: &'a [u8], magic: &str) -> Result<&'a [u8], FrameError> {
    let (first, rest) =
        split_line(bytes).ok_or_else(|| FrameError::Malformed("missing magic line".into()))?;
    if first != magic {
        let family = magic.rsplit_once(' ').map_or(magic, |(family, _)| family);
        if first.rsplit_once(' ').is_some_and(|(f, _)| f == family) {
            return Err(FrameError::VersionSkew {
                expected: magic.to_string(),
                found: first.to_string(),
            });
        }
        return Err(FrameError::Malformed(format!(
            "not a {family:?} file (first line {first:?})"
        )));
    }
    let (header, payload) =
        split_line(rest).ok_or_else(|| FrameError::Malformed("missing crc header line".into()))?;
    let mut fields = header.split_whitespace();
    let (Some("crc32"), Some(crc), Some("len"), Some(len), None) = (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) else {
        return Err(FrameError::Malformed(format!(
            "bad crc header line {header:?}"
        )));
    };
    let crc = u32::from_str_radix(crc, 16)
        .map_err(|_| FrameError::Malformed(format!("bad crc field {crc:?}")))?;
    let len: usize = len
        .parse()
        .map_err(|_| FrameError::Malformed(format!("bad len field {len:?}")))?;
    if payload.len() < len {
        return Err(FrameError::Truncated {
            expected: len,
            actual: payload.len(),
        });
    }
    if payload.len() > len {
        return Err(FrameError::Malformed(format!(
            "{} bytes past the declared {len}-byte payload",
            payload.len() - len
        )));
    }
    let actual = crc32(payload);
    if actual != crc {
        return Err(FrameError::ChecksumMismatch {
            expected: crc,
            actual,
        });
    }
    Ok(payload)
}

/// The first `\n`-terminated line of `bytes` (which must be UTF-8) and the
/// bytes after it.
fn split_line(bytes: &[u8]) -> Option<(&str, &[u8])> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(bytes.get(..nl)?).ok()?;
    Some((line, bytes.get(nl + 1..)?))
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the same
/// checksum as gzip/zlib, table-built at compile time.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scoped, FaultPlan, FaultSpec, Trigger};

    fn tmp_dir(label: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stgnn-faults-fsio-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from the IEEE CRC-32 check ("123456789") and zlib.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn atomic_write_replaces_content() {
        // Sibling tests install process-wide fault plans on these very
        // sites; the scoped empty plan takes the same lock and clears them.
        let _quiet = scoped(FaultPlan::new());
        let path = tmp_dir("replace").join("replace.txt");
        atomic_write(&path, |w| w.write_all(b"first")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, |w| w.write_all(b"second")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
    }

    #[test]
    fn failed_write_leaves_previous_file_and_no_temp() {
        let dir = tmp_dir("torn");
        let path = dir.join("torn.txt");
        atomic_write(&path, |w| w.write_all(b"intact")).unwrap();

        for site in [
            "atomic_write::create",
            "atomic_write::write",
            "atomic_write::fsync",
            "atomic_write::rename",
        ] {
            let _s = scoped(FaultPlan::new().with(site, FaultSpec::io(Trigger::EveryHit)));
            let err = atomic_write(&path, |w| w.write_all(b"torn!!")).unwrap_err();
            assert!(err.to_string().contains(site), "{err}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                b"intact",
                "previous content must survive a fault at {site}"
            );
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn fill_error_propagates_and_cleans_up() {
        // Without the empty scoped plan, a sibling's injected
        // `atomic_write::create` fault can fire here before `fill` runs.
        let _quiet = scoped(FaultPlan::new());
        let path = tmp_dir("fill-err").join("fill-err.txt");
        let err = atomic_write(&path, |_| Err(io::Error::other("fill failed"))).unwrap_err();
        assert!(err.to_string().contains("fill failed"));
        assert!(!path.exists());
    }

    /// Truncation, bit flips and trailing bytes are asserted through the
    /// checkpoint and online-state readers; this covers the header parse
    /// and which near-miss magic lines count as version skew.
    #[test]
    fn framed_payload_round_trips_and_bad_headers_are_typed() {
        let _quiet = scoped(FaultPlan::new());
        let path = tmp_dir("framed").join("framed.bin");
        let magic = "stgnn-test v1";
        write_framed(&path, magic, b"alpha 1\nbeta 2\n").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(read_framed(&bytes, magic).unwrap(), b"alpha 1\nbeta 2\n");

        let err = read_framed(b"stgnn-test v2\ncrc32 0 len 0\n", magic).unwrap_err();
        assert_eq!(
            err,
            FrameError::VersionSkew {
                expected: magic.into(),
                found: "stgnn-test v2".into()
            }
        );
        for garbage in [
            &b"stgnn-testing v1\ncrc32 0 len 0\n"[..],
            b"no newline at all",
            b"stgnn-test v1\n",
            b"stgnn-test v1\ncrc32 zz len 0\n",
            b"stgnn-test v1\ncrc32 0 len -1\n",
            b"stgnn-test v1\ncrc32 0 len 0 extra\n",
        ] {
            assert!(
                matches!(read_framed(garbage, magic), Err(FrameError::Malformed(_))),
                "{:?}",
                String::from_utf8_lossy(garbage)
            );
        }
    }
}
