//! Crash recovery: scanning the snapshot directory at boot, validating
//! every record, and re-registering recovered streams **before the
//! server accepts traffic**.
//!
//! The decoder trusts nothing: length bounds come before any slicing,
//! the CRC is recomputed over the whole record (CRC-32C for version 2,
//! the legacy IEEE CRC-32 for version 1), and the embedded wire
//! image is re-validated with the capped `peek` + full zero-copy view
//! parse (the same discipline as a network merge) with its family byte
//! cross-checked against the record header. Every failure is a typed
//! [`RecoverError`] — never a panic — and the offending file is moved
//! aside ([`QUARANTINE_SUFFIX`](crate::persist::QUARANTINE_SUFFIX)) so
//! the server keeps booting with everything that *did* validate. A
//! quarantined record is kept for forensics but is never re-scanned
//! and never served.

use crate::checksum::crc32c;
use crate::persist::{
    snapshot_file_name, SnapshotStore, SNAP_HEADER_LEN, SNAP_MAGIC, SNAP_VERSION,
};
use crate::registry::CreateError;
use crate::{spawn_stream, ServerCtx, DEFAULT_STREAM};
use bytes::Bytes;
use fcds_sketches::wire::SketchFamily;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Upper bound on a snapshot's embedded image length. Far above any
/// real image (a 1 MiB frame cap bounds what merges in), low enough
/// that a corrupted length field cannot drive allocation.
pub const SNAP_MAX_IMAGE_BYTES: u64 = 64 << 20;

/// The record version written before the switch to CRC-32C: same
/// layout, IEEE CRC-32 in the CRC slot. Read, never written.
const SNAP_VERSION_V1: u8 = 1;

/// IEEE 802.3 CRC-32 (reflected polynomial `0xEDB88320`) lookup table,
/// kept only to check version-1 records.
const V1_CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 over the concatenation of `parts`, byte at a time: the
/// version-1 record check.
fn v1_crc32(parts: &[&[u8]]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    for p in parts {
        for &b in *p {
            state = V1_CRC_TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
    }
    !state
}

/// Why a snapshot record was rejected. Every variant quarantines the
/// file; none of them stops the boot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoverError {
    /// The store could not read the file.
    Io(String),
    /// Shorter than the fixed header.
    Truncated {
        /// Actual byte length.
        len: usize,
    },
    /// The magic bytes are not `"FCSN"`.
    BadMagic,
    /// Unknown record version.
    BadVersion {
        /// The version byte found.
        got: u8,
    },
    /// Key length outside `1..=64`.
    KeyLength {
        /// The declared key length.
        got: u16,
    },
    /// Declared image length above [`SNAP_MAX_IMAGE_BYTES`].
    ImageTooLarge {
        /// The declared image length.
        declared: u64,
    },
    /// File length is not exactly `header + key + image` — a torn or
    /// doctored record.
    LengthMismatch {
        /// Length the header implies.
        expected: u64,
        /// Actual file length.
        actual: u64,
    },
    /// The recomputed CRC (CRC-32C, or IEEE CRC-32 for a version-1
    /// record) does not match the stored one.
    CrcMismatch {
        /// CRC stored in the record.
        stored: u32,
        /// CRC recomputed over the record.
        computed: u32,
    },
    /// The family code is not a known sketch family.
    BadFamily {
        /// The family byte found.
        got: u8,
    },
    /// The embedded image failed wire validation (capped peek + view
    /// parse), or its envelope family contradicts the record header.
    Wire(String),
    /// The file's name does not match the key inside the record — a
    /// copied or renamed snapshot trying to impersonate another stream.
    NameMismatch {
        /// The file name the record's key implies.
        expected: String,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "snapshot read failed: {e}"),
            RecoverError::Truncated { len } => {
                write!(
                    f,
                    "record of {len} bytes is shorter than the {SNAP_HEADER_LEN}-byte header"
                )
            }
            RecoverError::BadMagic => write!(f, "bad snapshot magic (want \"FCSN\")"),
            RecoverError::BadVersion { got } => {
                write!(
                    f,
                    "unknown snapshot version {got} (want {SNAP_VERSION_V1} or {SNAP_VERSION})"
                )
            }
            RecoverError::KeyLength { got } => {
                write!(f, "key length {got} outside 1..=64")
            }
            RecoverError::ImageTooLarge { declared } => {
                write!(
                    f,
                    "declared image length {declared} exceeds cap {SNAP_MAX_IMAGE_BYTES}"
                )
            }
            RecoverError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "file is {actual} bytes but the header implies {expected}"
                )
            }
            RecoverError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            RecoverError::BadFamily { got } => write!(f, "unknown sketch family code {got}"),
            RecoverError::Wire(e) => write!(f, "embedded image failed wire validation: {e}"),
            RecoverError::NameMismatch { expected } => {
                write!(
                    f,
                    "file name does not match record key (expected {expected})"
                )
            }
        }
    }
}

impl std::error::Error for RecoverError {}

/// A fully validated snapshot record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRecord {
    /// Sketch family of the stream.
    pub family: SketchFamily,
    /// The record version it was read from. A version below
    /// [`SNAP_VERSION`] is rewritten by the first checkpoint.
    pub version: u8,
    /// The stream key.
    pub key: Vec<u8>,
    /// The stream's items counter at snapshot time.
    pub seq: u64,
    /// The validated fcds-wire envelope.
    pub image: Bytes,
}

/// Decodes and fully validates one snapshot record. Total: every
/// possible input maps to `Ok` or a typed [`RecoverError`], and no
/// allocation or slice is sized from an unvalidated length.
pub fn decode_record(bytes: &[u8]) -> Result<SnapshotRecord, RecoverError> {
    if bytes.len() < SNAP_HEADER_LEN {
        return Err(RecoverError::Truncated { len: bytes.len() });
    }
    if bytes[0..4] != SNAP_MAGIC {
        return Err(RecoverError::BadMagic);
    }
    let version = bytes[4];
    let crc: fn(&[&[u8]]) -> u32 = match version {
        SNAP_VERSION => crc32c,
        SNAP_VERSION_V1 => v1_crc32,
        got => return Err(RecoverError::BadVersion { got }),
    };
    let family_code = bytes[5];
    let key_len = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    let seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let image_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let stored_crc = u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes"));
    if key_len == 0 || key_len as usize > crate::frame::MAX_STREAM_KEY {
        return Err(RecoverError::KeyLength { got: key_len });
    }
    if image_len > SNAP_MAX_IMAGE_BYTES {
        return Err(RecoverError::ImageTooLarge {
            declared: image_len,
        });
    }
    let expected = SNAP_HEADER_LEN as u64 + key_len as u64 + image_len;
    if bytes.len() as u64 != expected {
        return Err(RecoverError::LengthMismatch {
            expected,
            actual: bytes.len() as u64,
        });
    }
    let key = &bytes[SNAP_HEADER_LEN..SNAP_HEADER_LEN + key_len as usize];
    let image = &bytes[SNAP_HEADER_LEN + key_len as usize..];
    let computed = crc(&[&bytes[..24], key, image]);
    if computed != stored_crc {
        return Err(RecoverError::CrcMismatch {
            stored: stored_crc,
            computed,
        });
    }
    let family =
        SketchFamily::from_code(family_code).ok_or(RecoverError::BadFamily { got: family_code })?;
    let envelope_family =
        crate::validate_envelope(image, SNAP_MAX_IMAGE_BYTES as u32).map_err(RecoverError::Wire)?;
    if envelope_family != family {
        return Err(RecoverError::Wire(format!(
            "record header says {} but envelope is {}",
            family.name(),
            envelope_family.name()
        )));
    }
    Ok(SnapshotRecord {
        family,
        version,
        key: key.to_vec(),
        seq,
        image: Bytes::from(image.to_vec()),
    })
}

/// What the boot-time scan did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RecoveryOutcome {
    /// Streams re-registered from valid snapshots.
    pub recovered: usize,
    /// Records that failed validation and were quarantined.
    pub quarantined: usize,
    /// Valid records that could not be installed (registry at capacity,
    /// engine build failure). Left in place for the next boot.
    pub skipped: usize,
    /// The typed reason each quarantined file was rejected.
    pub failures: Vec<(String, RecoverError)>,
}

/// Scans the store and re-registers every stream whose snapshot
/// validates, installing the recovered image as one of the stream's
/// accumulated images so queries, checkpoints and replica pushes all
/// see the pre-crash state immediately. Runs before the accept loop
/// starts, so a client can never observe a half-recovered server.
pub(crate) fn recover_streams(
    ctx: &Arc<ServerCtx>,
    store: &dyn SnapshotStore,
) -> Result<RecoveryOutcome, String> {
    let names = store
        .list()
        .map_err(|e| format!("snapshot directory scan: {e}"))?;
    let mut out = RecoveryOutcome::default();
    for name in names {
        let decoded = store
            .get(&name)
            .map_err(|e| RecoverError::Io(e.to_string()))
            .and_then(|bytes| decode_record(&bytes))
            .and_then(|rec| {
                let expected = snapshot_file_name(&rec.key);
                if expected != name {
                    Err(RecoverError::NameMismatch { expected })
                } else {
                    Ok(rec)
                }
            });
        match decoded {
            Ok(rec) => match install(ctx, rec) {
                Ok(()) => {
                    out.recovered += 1;
                    ctx.stats.streams_recovered.fetch_add(1, Ordering::Relaxed);
                }
                Err(InstallError::Quarantine(e)) => {
                    let _ = store.quarantine(&name);
                    out.quarantined += 1;
                    ctx.stats
                        .records_quarantined
                        .fetch_add(1, Ordering::Relaxed);
                    out.failures.push((name, e));
                }
                Err(InstallError::Skip) => out.skipped += 1,
            },
            Err(e) => {
                let _ = store.quarantine(&name);
                out.quarantined += 1;
                ctx.stats
                    .records_quarantined
                    .fetch_add(1, Ordering::Relaxed);
                out.failures.push((name, e));
            }
        }
    }
    Ok(out)
}

enum InstallError {
    /// The record contradicts live state (family mismatch with an
    /// existing stream) — quarantine it.
    Quarantine(RecoverError),
    /// Transient refusal (capacity, build failure) — leave the file
    /// for the next boot.
    Skip,
}

fn install(ctx: &Arc<ServerCtx>, rec: SnapshotRecord) -> Result<(), InstallError> {
    let workers = if rec.key == DEFAULT_STREAM {
        ctx.cfg.ingest_workers.max(1)
    } else {
        ctx.cfg.stream_workers.max(1)
    };
    match ctx.registry.get_or_create(&rec.key, rec.family, || {
        spawn_stream(ctx, &rec.key, rec.family, workers)
    }) {
        Ok((state, _created)) => {
            state
                .accumulated
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(rec.image);
            state.items.store(rec.seq, Ordering::Release);
            state.persisted_seq.store(rec.seq, Ordering::Release);
            if rec.version != SNAP_VERSION {
                // The state is already durable; only the record format
                // is old. Have the first checkpoint rewrite it.
                state.snapshot_dirty.store(true, Ordering::Release);
            }
            Ok(())
        }
        Err(CreateError::FamilyMismatch { expected }) => {
            Err(InstallError::Quarantine(RecoverError::Wire(format!(
                "stream already registered as {}, record says {}",
                expected.name(),
                rec.family.name()
            ))))
        }
        Err(CreateError::AtCapacity | CreateError::Build(_)) => Err(InstallError::Skip),
    }
}
