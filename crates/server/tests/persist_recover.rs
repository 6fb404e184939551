//! Durability-tier suite: snapshot encode/decode totality, crash-shaped
//! filesystem states, boot-time recovery, quarantine semantics, and the
//! replica-pusher circuit breaker.
//!
//! The adversarial core is exhaustive, not sampled: *every* byte-boundary
//! truncation and *every* single-byte mutation of a real snapshot record
//! must come back as a typed [`RecoverError`] — never a panic, never an
//! accepted record — and a torn staging write at *every* prefix length
//! must leave the previous committed snapshot readable (the
//! write-to-temp + atomic-rename contract: old or new, never a blend).

use fcds_server::client::{Client, Reply};
use fcds_server::frame::NackCode;
use fcds_server::persist::{
    encode_record, snapshot_file_name, DirStore, FsyncPolicy, SnapshotStore, QUARANTINE_SUFFIX,
    SNAP_SUFFIX, SNAP_VERSION, TMP_SUFFIX,
};
use fcds_server::recover::{decode_record, RecoverError, SNAP_MAX_IMAGE_BYTES};
use fcds_server::{serve, serve_with_store, BreakerState, ServeError, ServerConfig, ServerHandle};
use fcds_sketches::wire::{LadderWireView, MgWireView, SketchFamily};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

const FAMILIES: [SketchFamily; 4] = [
    SketchFamily::Theta,
    SketchFamily::Hll,
    SketchFamily::Quantiles,
    SketchFamily::Frequency,
];

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty scratch directory unique to this test process.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fcds-persist-{}-{}-{tag}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn durable_config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_string_lossy().into_owned()),
        snapshot_interval: Duration::from_millis(40),
        fsync_policy: FsyncPolicy::Never,
        ..ServerConfig::default()
    }
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.local_addr(), CLIENT_TIMEOUT).expect("connect")
}

fn ingest_all(c: &mut Client, family: SketchFamily, key: &[u8], items: &[u64]) {
    for chunk in items.chunks(500) {
        let reply = c.ingest_stream(family, key, chunk).unwrap();
        assert!(matches!(reply, Reply::Ack { .. }), "ingest: {reply:?}");
    }
}

/// The observed distinct-count (Θ/HLL) or total item count (Q/F) for a
/// keyed stream, via the family's natural query.
fn observed_count(c: &mut Client, family: SketchFamily, key: &[u8]) -> f64 {
    match family {
        SketchFamily::Theta | SketchFamily::Hll => {
            match c.query_stream_estimate(family, key).unwrap() {
                Reply::Estimate { value, .. } => value,
                other => panic!("estimate reply: {other:?}"),
            }
        }
        SketchFamily::Quantiles | SketchFamily::Frequency => {
            match c.query_stream_image(family, key).unwrap() {
                Reply::Image { bytes, .. } => match family {
                    SketchFamily::Quantiles => {
                        LadderWireView::<u64>::parse(&bytes).expect("ladder").n() as f64
                    }
                    _ => MgWireView::<u64>::parse(&bytes).expect("mg").n() as f64,
                },
                other => panic!("image reply: {other:?}"),
            }
        }
    }
}

/// One committed snapshot record produced by the real pipeline: boot a
/// durable server, ingest, drain (the graceful final checkpoint), read
/// the record back off disk.
fn committed_record(dir: &std::path::Path, key: &[u8], items: u64) -> Vec<u8> {
    let handle = serve(durable_config(dir)).expect("serve");
    let mut c = connect(&handle);
    let data: Vec<u64> = (0..items).collect();
    ingest_all(&mut c, SketchFamily::Theta, key, &data);
    drop(c);
    let drain = handle.shutdown();
    assert_eq!(drain.leaked_threads, 0);
    let path = dir.join(snapshot_file_name(key));
    std::fs::read(&path).expect("read committed snapshot")
}

/// A version-1 snapshot record (IEEE CRC-32) exactly as a version-1
/// build wrote it, and the key it belongs to. See the vector file's
/// comment line for how it was made and what that build answered.
fn v1_record() -> (&'static [u8], Vec<u8>) {
    let hex: String = include_str!("vectors/snapshot_v1_theta.hex")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect();
    let bytes = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex vector"))
        .collect();
    (b"legacy-v1", bytes)
}

/// Every record the adversarial suites run over: a version-2 record
/// committed by the live pipeline, and the version-1 vector.
fn records_under_test(dir: &std::path::Path, key: &[u8]) -> Vec<Vec<u8>> {
    vec![committed_record(dir, key, 500), v1_record().1]
}

#[test]
fn committed_record_roundtrips_exactly() {
    let dir = tmp_dir("roundtrip");
    let bytes = committed_record(&dir, b"alpha", 1_000);
    assert_eq!(bytes[4], SNAP_VERSION);
    assert_eq!(SNAP_VERSION, 2);
    let rec = decode_record(&bytes).expect("valid record decodes");
    assert_eq!(rec.version, SNAP_VERSION);
    assert_eq!(rec.family, SketchFamily::Theta);
    assert_eq!(rec.key, b"alpha");
    assert_eq!(rec.seq, 1_000);
    // Re-encoding the decoded fields reproduces the on-disk bytes —
    // the encoder and decoder agree on every field and the CRC.
    let reencoded = encode_record(rec.family, &rec.key, rec.seq, &rec.image);
    assert_eq!(reencoded, bytes);
    assert_eq!(snapshot_file_name(&rec.key), snapshot_file_name(b"alpha"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_boundary_is_a_typed_error() {
    let dir = tmp_dir("truncate");
    for bytes in records_under_test(&dir, b"trunc") {
        assert!(decode_record(&bytes).is_ok());
        for len in 0..bytes.len() {
            let res = decode_record(&bytes[..len]);
            assert!(
                res.is_err(),
                "a {len}-byte prefix of a {}-byte v{} record must not decode",
                bytes.len(),
                bytes[4]
            );
            // The error is typed and printable — no panics, no opaque
            // slots.
            let _ = res.unwrap_err().to_string();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_single_byte_mutation_is_a_typed_error() {
    let dir = tmp_dir("mutate");
    for bytes in records_under_test(&dir, b"mutate") {
        assert!(decode_record(&bytes).is_ok());
        // The CRC covers bytes [0..24] ++ key ++ image and is itself
        // stored at [24..28], so no single-byte change anywhere can
        // survive: it either trips an earlier structural check or the
        // CRC. That includes turning the version byte into the other
        // known version, whose CRC is a different function.
        for offset in 0..bytes.len() {
            for flip in [0xFFu8, 0x01, 0x03] {
                let mut doctored = bytes.clone();
                doctored[offset] ^= flip;
                let res = decode_record(&doctored);
                assert!(
                    res.is_err(),
                    "v{} byte {offset} ^ {flip:#04x} must not decode: {res:?}",
                    bytes[4]
                );
                let _ = res.unwrap_err().to_string();
            }
        }
        // Appended garbage is a length mismatch, not a trailing-ignored
        // pass.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            decode_record(&extended),
            Err(RecoverError::LengthMismatch { .. })
        ));
        // A version no build has written is refused before anything
        // else is read.
        let mut future = bytes.clone();
        future[4] = 3;
        assert_eq!(
            decode_record(&future),
            Err(RecoverError::BadVersion { got: 3 })
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A data directory written by a version-1 build boots with the same
/// answers that build gave (recorded beside the vector), and its first
/// checkpoint rewrites the record as version 2 without changing the
/// state it holds.
#[test]
fn version_1_record_recovers_and_is_rewritten_as_version_2() {
    let (key, v1) = v1_record();
    assert_eq!(v1[4], 1, "the vector is a version-1 record");
    let legacy = decode_record(&v1).expect("version-1 record decodes");
    assert_eq!(legacy.version, 1);
    assert_eq!((legacy.key.as_slice(), legacy.seq), (key, 200));

    let dir = tmp_dir("v1-upgrade");
    let path = dir.join(snapshot_file_name(key));
    std::fs::write(&path, &v1).expect("plant version-1 record");
    let handle = serve(durable_config(&dir)).expect("boot on a version-1 directory");
    let outcome = handle.recovery_outcome().expect("durable tier recovers");
    assert_eq!(
        (outcome.recovered, outcome.quarantined),
        (1, 0),
        "{outcome:?}"
    );

    let mut c = connect(&handle);
    match c.query_stream_estimate(SketchFamily::Theta, key).unwrap() {
        Reply::Estimate { value, .. } => assert_eq!(value, 200.0),
        other => panic!("estimate reply: {other:?}"),
    }
    match c.query_stream_image(SketchFamily::Theta, key).unwrap() {
        Reply::Image { bytes, .. } => assert_eq!(bytes, legacy.image.as_ref()),
        other => panic!("image reply: {other:?}"),
    }

    // Nothing was ingested, yet the stream is rewritten: the first
    // checkpoint round after boot upgrades the record.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().snapshots_written == 0 {
        assert!(
            Instant::now() < deadline,
            "version-1 record never rewritten"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let on_disk = std::fs::read(&path).expect("rewritten record");
    assert_eq!(on_disk[4], SNAP_VERSION);
    let upgraded = decode_record(&on_disk).expect("rewritten record decodes");
    assert_eq!(upgraded.version, SNAP_VERSION);
    assert_eq!(
        (
            upgraded.family,
            &upgraded.key,
            upgraded.seq,
            &upgraded.image
        ),
        (legacy.family, &legacy.key, legacy.seq, &legacy.image)
    );
    drop(c);
    let drain = handle.shutdown();
    assert_eq!(drain.leaked_threads, 0);
    assert_eq!(drain.stats.snapshot_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stream whose own image outgrows [`SNAP_MAX_IMAGE_BYTES`] is a
/// counted snapshot error that is retried every round — not a panic
/// that kills the checkpointer: another stream is still checkpointed
/// afterwards, and the drain's final checkpoint retries the oversized
/// stream and counts the error instead of skipping it.
#[test]
fn oversized_snapshot_image_is_a_counted_error_not_a_dead_checkpointer() {
    use fcds_sketches::hash::DEFAULT_SEED;
    use fcds_sketches::theta::{CompactThetaSketch, THETA_MAX};
    use fcds_sketches::wire::WireEncode;

    let dir = tmp_dir("oversized");
    let handle = serve(durable_config(&dir)).expect("serve");
    let mut c = connect(&handle);
    // Disjoint exact-mode Θ images of 960 KB each (under the 1 MiB
    // frame cap); their untrimmed union outgrows the snapshot cap.
    let per_image = 120_000u64;
    let images = SNAP_MAX_IMAGE_BYTES / (per_image * 8) + 1;
    for i in 0..images {
        let hashes = (1 + i * per_image..=(i + 1) * per_image).collect();
        let image = CompactThetaSketch::from_parts(THETA_MAX, DEFAULT_SEED, hashes)
            .unwrap()
            .to_wire_bytes();
        let reply = c
            .merge_stream(SketchFamily::Theta, b"huge", &image)
            .unwrap();
        assert!(matches!(reply, Reply::Ack { .. }), "merge {i}: {reply:?}");
    }

    // Two errors: the failed round kept the stream dirty, so the next
    // round retried it.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.stats().snapshot_errors < 2 {
        assert!(
            Instant::now() < deadline,
            "oversized stream not counted twice: {:?}",
            handle.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    ingest_all(
        &mut c,
        SketchFamily::Theta,
        b"small",
        &(0..100).collect::<Vec<_>>(),
    );
    let small = dir.join(snapshot_file_name(b"small"));
    while !small.exists() {
        assert!(
            Instant::now() < deadline,
            "checkpointer stopped after the oversized stream"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // A snapshot committed while the stream was still under the cap
    // stays a valid record.
    if let Ok(bytes) = std::fs::read(dir.join(snapshot_file_name(b"huge"))) {
        decode_record(&bytes).expect("earlier snapshot of the oversized stream");
    }
    drop(c);
    let before = handle.stats().snapshot_errors;
    let drain = handle.shutdown();
    assert_eq!(drain.leaked_threads, 0);
    assert!(
        drain.stats.snapshot_errors > before,
        "the final checkpoint skipped the oversized stream: {} errors before the drain, {} after",
        before,
        drain.stats.snapshot_errors
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_staging_write_never_touches_the_committed_snapshot() {
    let dir = tmp_dir("torn");
    let donor_dir = tmp_dir("torn-donor");
    let donor = committed_record(&donor_dir, b"torn", 300);
    let image = decode_record(&donor).unwrap().image;
    let _ = std::fs::remove_dir_all(&donor_dir);

    let store = DirStore::new(&dir).expect("open store");
    let name = snapshot_file_name(b"torn");
    let old = encode_record(SketchFamily::Theta, b"torn", 7, &image);
    store.put(&name, &old, false).expect("commit old snapshot");

    // A kill mid-checkpoint leaves a partial staging file at an
    // arbitrary length. Simulate every such length: the next boot must
    // discard the staging file and serve the committed record untouched.
    let new = encode_record(SketchFamily::Theta, b"torn", 9, &image);
    for len in 0..new.len() {
        let staging = dir.join(format!("{name}{TMP_SUFFIX}"));
        std::fs::write(&staging, &new[..len]).expect("plant torn staging file");
        let reopened = DirStore::new(&dir).expect("reopen store");
        assert!(!staging.exists(), "stale staging file must be removed");
        let got = reopened.get(&name).expect("committed snapshot readable");
        assert_eq!(got, old, "torn write at {len} bytes altered the snapshot");
        assert_eq!(reopened.list().unwrap(), vec![name.clone()]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`SnapshotStore`] whose writes fail on demand (disk-full shape).
struct FailingStore {
    inner: DirStore,
    fail: AtomicBool,
}

impl SnapshotStore for FailingStore {
    fn put(&self, name: &str, bytes: &[u8], fsync_file: bool) -> io::Result<()> {
        if self.fail.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            ));
        }
        self.inner.put(name, bytes, fsync_file)
    }
    fn sync_dir(&self) -> io::Result<()> {
        if self.fail.load(Ordering::Acquire) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync_dir()
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.get(name)
    }
    fn quarantine(&self, name: &str) -> io::Result<()> {
        self.inner.quarantine(name)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

#[test]
fn failing_store_is_counted_and_never_fatal() {
    let dir = tmp_dir("enospc");
    let store = Arc::new(FailingStore {
        inner: DirStore::new(&dir).expect("open store"),
        fail: AtomicBool::new(true),
    });
    let cfg = ServerConfig {
        snapshot_interval: Duration::from_millis(20),
        fsync_policy: FsyncPolicy::Always,
        ..ServerConfig::default()
    };
    let handle = serve_with_store(cfg, Some(store.clone() as Arc<dyn SnapshotStore>))
        .expect("serve with failing store");
    let mut c = connect(&handle);
    let data: Vec<u64> = (0..2_000).collect();
    ingest_all(&mut c, SketchFamily::Theta, b"doomed", &data);

    // The checkpointer keeps trying, keeps failing, and the server
    // keeps serving the whole time.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().snapshot_errors == 0 {
        assert!(Instant::now() < deadline, "no snapshot error counted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let count = observed_count(&mut c, SketchFamily::Theta, b"doomed");
    assert!((count - 2_000.0).abs() / 2_000.0 < 0.05, "count {count}");

    // Once the disk heals, the checkpointer commits without a restart.
    store.fail.store(false, Ordering::Release);
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().snapshots_written == 0 {
        assert!(Instant::now() < deadline, "no snapshot after heal");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(c);
    let drain = handle.shutdown();
    assert_eq!(drain.leaked_threads, 0);
    assert!(dir.join(snapshot_file_name(b"doomed")).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_restart_recovers_every_family_exactly() {
    let dir = tmp_dir("restart");
    let per_stream = 3_000u64;
    {
        let handle = serve(durable_config(&dir)).expect("serve first life");
        let mut c = connect(&handle);
        for (i, family) in FAMILIES.iter().enumerate() {
            let key = format!("life-{i}").into_bytes();
            let data: Vec<u64> = (0..per_stream).map(|v| v + i as u64 * per_stream).collect();
            ingest_all(&mut c, *family, &key, &data);
        }
        // The v1 default stream is durable too.
        let reply = c.ingest(&(0..500u64).collect::<Vec<_>>()).unwrap();
        assert!(matches!(reply, Reply::Ack { .. }));
        drop(c);
        let drain = handle.shutdown();
        assert_eq!(drain.leaked_threads, 0);
    }

    let handle = serve(durable_config(&dir)).expect("serve second life");
    let outcome = handle.recovery_outcome().expect("durable tier recovers");
    assert_eq!(
        outcome.recovered, 5,
        "4 keyed streams + default: {outcome:?}"
    );
    assert_eq!(outcome.quarantined, 0);
    assert_eq!(handle.stats().streams_recovered, 5);

    let mut c = connect(&handle);
    for (i, family) in FAMILIES.iter().enumerate() {
        let key = format!("life-{i}").into_bytes();
        let got = observed_count(&mut c, *family, &key);
        let relerr = (got - per_stream as f64).abs() / per_stream as f64;
        // A graceful drain checkpoints after quiescing, so Q/F counts
        // are exact and Θ/HLL sit inside their estimator envelope.
        assert!(
            relerr < 0.05,
            "{family:?} recovered {got}, want {per_stream}"
        );
    }
    // v1 family byte 0 = the default stream, fanned in like a v2 query
    // — recovered state must be visible to legacy clients too.
    match c.query_estimate(0).unwrap() {
        Reply::Estimate { value, .. } => {
            assert!(
                (value - 500.0).abs() / 500.0 < 0.05,
                "default stream {value}"
            )
        }
        other => panic!("default estimate: {other:?}"),
    }

    // Recovered state must itself survive the next restart: the
    // checkpointer re-persists the recovered image, not just live items.
    for info in handle.list_streams() {
        assert_eq!(info.snapshot_lag, 0, "{:?}", info.key);
    }
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshots_quarantine_and_valid_streams_still_serve() {
    let dir = tmp_dir("quarantine");
    {
        let handle = serve(durable_config(&dir)).expect("serve");
        let mut c = connect(&handle);
        ingest_all(
            &mut c,
            SketchFamily::Theta,
            b"good",
            &(0..1_000).collect::<Vec<_>>(),
        );
        ingest_all(
            &mut c,
            SketchFamily::Hll,
            b"bad",
            &(0..1_000).collect::<Vec<_>>(),
        );
        drop(c);
        handle.shutdown();
    }
    // Corrupt one committed record and plant one garbage file.
    let bad_path = dir.join(snapshot_file_name(b"bad"));
    let mut bad = std::fs::read(&bad_path).unwrap();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    std::fs::write(&bad_path, &bad).unwrap();
    std::fs::write(dir.join(format!("s-00{SNAP_SUFFIX}")), b"not a snapshot").unwrap();

    let handle = serve(durable_config(&dir)).expect("boot past corruption");
    let outcome = handle.recovery_outcome().expect("outcome");
    assert_eq!(outcome.quarantined, 2, "{outcome:?}");
    assert_eq!(outcome.failures.len(), 2);
    assert_eq!(handle.stats().records_quarantined, 2);

    // Quarantined files are kept for forensics, never rescanned.
    let quarantined = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(QUARANTINE_SUFFIX))
        .count();
    assert_eq!(quarantined, 2);

    let mut c = connect(&handle);
    let good = observed_count(&mut c, SketchFamily::Theta, b"good");
    assert!(
        (good - 1_000.0).abs() / 1_000.0 < 0.05,
        "good stream {good}"
    );
    // The corrupted stream was never registered: typed NACK, no panic,
    // no silently empty stream.
    match c.query_stream_estimate(SketchFamily::Hll, b"bad").unwrap() {
        Reply::Nack { code, .. } => assert_eq!(code, NackCode::UnknownStream),
        other => panic!("corrupt stream must be unknown: {other:?}"),
    }
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bind_conflict_is_a_typed_startup_error() {
    let blocker = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = blocker.local_addr().unwrap();
    let cfg = ServerConfig {
        addr: addr.to_string(),
        ..ServerConfig::default()
    };
    match serve(cfg) {
        Err(ServeError::Bind(e)) => assert_eq!(e.kind(), io::ErrorKind::AddrInUse),
        Err(other) => panic!("want typed Bind error, got {other:?}"),
        Ok(handle) => {
            handle.shutdown();
            panic!("bind conflict must fail startup");
        }
    }
}

#[test]
fn replica_breaker_opens_on_dead_peer_and_is_reported() {
    // A port that was bound and released: connects fail fast.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let cfg = ServerConfig {
        replica_peer: Some(dead.to_string()),
        replica_interval: Duration::from_millis(15),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let handle = serve(cfg).expect("serve");
    // Ingest so the pusher has something to ship.
    let mut c = connect(&handle);
    ingest_all(
        &mut c,
        SketchFamily::Theta,
        b"pushme",
        &(0..100).collect::<Vec<_>>(),
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = handle.stats();
        if stats.replica_breaker == Some(BreakerState::Open) && stats.replica_push_errors >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker never opened: {:?}, {} errors",
            stats.replica_breaker,
            stats.replica_push_errors
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The broken peer link never affects the serving path.
    let count = observed_count(&mut c, SketchFamily::Theta, b"pushme");
    assert!(count > 90.0, "serving path degraded: {count}");
    drop(c);
    handle.shutdown();

    // Without a peer there is no breaker to report.
    let plain = serve(ServerConfig::default()).expect("serve plain");
    assert_eq!(plain.stats().replica_breaker, None);
    plain.shutdown();
}

#[test]
fn retiring_a_stream_removes_its_snapshot() {
    let dir = tmp_dir("retire");
    {
        let handle = serve(durable_config(&dir)).expect("serve");
        let mut c = connect(&handle);
        ingest_all(
            &mut c,
            SketchFamily::Theta,
            b"gone",
            &(0..400).collect::<Vec<_>>(),
        );
        let path = dir.join(snapshot_file_name(b"gone"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !path.exists() {
            assert!(Instant::now() < deadline, "stream never checkpointed");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(handle.retire_stream(b"gone"));
        assert!(!path.exists(), "retire must delete the snapshot");
        drop(c);
        handle.shutdown();
    }
    // The retired stream must not resurrect on the next boot.
    let handle = serve(durable_config(&dir)).expect("serve second life");
    let mut c = connect(&handle);
    match c
        .query_stream_estimate(SketchFamily::Theta, b"gone")
        .unwrap()
    {
        Reply::Nack { code, .. } => assert_eq!(code, NackCode::UnknownStream),
        other => panic!("retired stream resurrected: {other:?}"),
    }
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One wire image per family, each built with parameters the server's
/// own engines do not use (Θ seed 0, HLL lg_m 10 seed 42, Quantiles
/// k 64, Misra–Gries k 32), over `n` items starting at `base`.
fn foreign_image(family: SketchFamily, base: u64, n: u64) -> Vec<u8> {
    use fcds_sketches::frequency::MisraGriesSketch;
    use fcds_sketches::hll::HllSketch;
    use fcds_sketches::quantiles::QuantilesSketch;
    use fcds_sketches::theta::QuickSelectThetaSketch;
    use fcds_sketches::wire::WireEncode;
    let items = base..base + n;
    let bytes = match family {
        SketchFamily::Theta => {
            let mut s = QuickSelectThetaSketch::new(12, 0).unwrap();
            items.for_each(|i| s.update(i));
            s.compact().to_wire_bytes()
        }
        SketchFamily::Hll => {
            let mut s = HllSketch::new(10, 42).unwrap();
            items.for_each(|i| s.update(i));
            s.to_wire_bytes()
        }
        SketchFamily::Quantiles => {
            let mut s = QuantilesSketch::<u64>::with_seed(64, 7).unwrap();
            items.for_each(|i| s.update(i));
            s.ladder().to_wire_bytes()
        }
        SketchFamily::Frequency => {
            let mut s = MisraGriesSketch::<u64>::new(32).unwrap();
            items.for_each(|i| s.update(i % 100));
            s.to_wire_bytes()
        }
    };
    bytes.as_ref().to_vec()
}

/// Every v1 answer for wire families 1–4, estimate then image, with the
/// echoed sequence numbers left out so answers from two connections
/// compare equal.
fn v1_answers(c: &mut Client) -> Vec<String> {
    let mut out = Vec::new();
    for family in FAMILIES {
        for reply in [
            c.query_estimate(family.code()).unwrap(),
            c.query_image(family.code()).unwrap(),
        ] {
            out.push(match reply {
                Reply::Estimate { value, .. } => format!("{family:?} estimate {value}"),
                Reply::Image { bytes, .. } => format!("{family:?} image {bytes:?}"),
                Reply::Nack { code, .. } => format!("{family:?} nack {code:?}"),
                other => panic!("unexpected v1 reply: {other:?}"),
            });
        }
    }
    out
}

/// Copies every committed snapshot of `from` into a fresh directory:
/// exactly the state a SIGKILL would leave behind right now — no drain,
/// no final checkpoint.
fn crash_copy(from: &std::path::Path, tag: &str) -> PathBuf {
    let to = tmp_dir(tag);
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        if path.to_string_lossy().ends_with(SNAP_SUFFIX) {
            std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
        }
    }
    to
}

/// v1 merges are stream state like any other: a restart on the same
/// data directory — after a graceful drain, or from the snapshots a
/// kill would leave — answers every v1 estimate and image query exactly
/// as before.
#[test]
fn v1_merges_survive_graceful_and_crash_restarts() {
    let dir = tmp_dir("v1-merge");
    let handle = serve(durable_config(&dir)).expect("serve first life");
    let mut c = connect(&handle);
    for (i, family) in FAMILIES.iter().enumerate() {
        let image = foreign_image(*family, i as u64 * 10_000, 5_000);
        let reply = c.merge(&image).unwrap();
        assert!(matches!(reply, Reply::Ack { .. }), "{family:?}: {reply:?}");
    }
    let before = v1_answers(&mut c);
    assert_eq!(
        before.iter().filter(|a| a.contains(" image ")).count(),
        4,
        "every family answers with an image: {before:?}"
    );

    // Kill-style: wait until the checkpointer has committed all four
    // built-in merge streams, then take the directory as a crash would.
    let keys = [
        fcds_server::THETA_MERGE_STREAM,
        fcds_server::HLL_MERGE_STREAM,
        fcds_server::QUANTILES_MERGE_STREAM,
        fcds_server::FREQUENCY_MERGE_STREAM,
    ];
    let deadline = Instant::now() + Duration::from_secs(5);
    while !keys
        .iter()
        .all(|k| dir.join(snapshot_file_name(k)).exists())
    {
        assert!(Instant::now() < deadline, "v1 merges never checkpointed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let crashed = crash_copy(&dir, "v1-merge-crash");
    drop(c);
    let drain = handle.shutdown();
    assert_eq!(drain.leaked_threads, 0);
    assert_eq!(drain.stats.snapshot_errors, 0);

    for restart_dir in [&dir, &crashed] {
        let handle = serve(durable_config(restart_dir)).expect("serve after restart");
        let outcome = handle.recovery_outcome().expect("durable tier recovers");
        assert_eq!(outcome.quarantined, 0, "{outcome:?}");
        let mut c = connect(&handle);
        assert_eq!(
            v1_answers(&mut c),
            before,
            "v1 answers changed across a restart on {restart_dir:?}"
        );
        drop(c);
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crashed);
}

/// A merge-only stream whose images use a non-default hash seed (Θ seed
/// 0) answers both query kinds and checkpoints cleanly: the empty live
/// engine (seed 9001) never enters the fan-in.
#[test]
fn merge_only_stream_with_foreign_seed_queries_and_checkpoints() {
    let dir = tmp_dir("foreign-seed");
    let handle = serve(durable_config(&dir)).expect("serve");
    let mut c = connect(&handle);
    for part in 0..2u64 {
        let image = foreign_image(SketchFamily::Theta, part * 3_000, 3_000);
        let reply = c
            .merge_stream(SketchFamily::Theta, b"seed0", &image)
            .unwrap();
        assert!(matches!(reply, Reply::Ack { .. }), "{reply:?}");
    }
    let count = observed_count(&mut c, SketchFamily::Theta, b"seed0");
    assert!((count - 6_000.0).abs() / 6_000.0 < 0.05, "estimate {count}");
    match c.query_stream_image(SketchFamily::Theta, b"seed0").unwrap() {
        Reply::Image { bytes, .. } => {
            let view = fcds_sketches::wire::ThetaWireView::parse(&bytes).unwrap();
            assert_eq!(view.seed(), 0, "the merged image keeps the images' seed");
        }
        other => panic!("image query: {other:?}"),
    }
    let path = dir.join(snapshot_file_name(b"seed0"));
    let deadline = Instant::now() + Duration::from_secs(5);
    while !path.exists() {
        assert!(
            Instant::now() < deadline,
            "merge-only stream never checkpointed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.stats().snapshot_errors, 0);
    drop(c);
    let drain = handle.shutdown();
    assert_eq!(drain.stats.snapshot_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replica pushes carry the origin's own images — live ingest *and*
/// accumulated merges — so a peer sees the same answer before and after
/// the origin restarts.
#[test]
fn replica_answer_is_the_same_before_and_after_the_origin_restarts() {
    let dir = tmp_dir("replica-restart");
    let b = serve(ServerConfig::default()).expect("serve peer");
    let a_config = || ServerConfig {
        replica_peer: Some(b.local_addr().to_string()),
        replica_interval: Duration::from_millis(30),
        replica_source_id: 7,
        ..durable_config(&dir)
    };
    let (ingested, merged) = (2_000u64, 3_000u64);
    let want = (ingested + merged) as f64;
    let peer_count = |cb: &mut Client| match cb
        .query_stream_image(SketchFamily::Quantiles, b"mixed")
        .unwrap()
    {
        Reply::Image { bytes, .. } => LadderWireView::<u64>::parse(&bytes).unwrap().n() as f64,
        _ => 0.0, // UnknownStream until the first push lands
    };
    let wait_on_peer = |cb: &mut Client| {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let got = peer_count(cb);
            if got == want {
                return;
            }
            assert!(Instant::now() < deadline, "peer saw n = {got}, want {want}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    let a = serve(a_config()).expect("serve origin");
    let mut ca = connect(&a);
    ingest_all(
        &mut ca,
        SketchFamily::Quantiles,
        b"mixed",
        &(0..ingested).collect::<Vec<_>>(),
    );
    let image = foreign_image(SketchFamily::Quantiles, 1_000_000, merged);
    let reply = ca
        .merge_stream(SketchFamily::Quantiles, b"mixed", &image)
        .unwrap();
    assert!(matches!(reply, Reply::Ack { .. }), "{reply:?}");
    let mut cb = connect(&b);
    wait_on_peer(&mut cb);
    drop(ca);
    a.shutdown();

    let a = serve(a_config()).expect("restart origin");
    let pushes = a.stats().replica_pushes;
    let deadline = Instant::now() + Duration::from_secs(5);
    while a.stats().replica_pushes < pushes + 2 {
        assert!(Instant::now() < deadline, "restarted origin never pushed");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(peer_count(&mut cb), want, "peer answer changed on restart");
    drop(cb);
    a.shutdown();
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
