//! Open-loop timing is safe against coordinated omission: against a
//! responder that stalls once, every request that fell due during the
//! stall is charged the wait, not just the one the responder held.

use fcds_perfbench::drive::{run_writer, Conn, Cursor, Shared};
use fcds_perfbench::gen::Generator;
use fcds_perfbench::oracle::Oracle;
use fcds_perfbench::stats::quantile_ns;
use fcds_perfbench::workload::{Items, Spec, StreamSpec};
use fcds_server::frame::{encode_frame, parse_header, FrameType, FRAME_HEADER_LEN};
use fcds_sketches::wire::SketchFamily;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const STALL: Duration = Duration::from_millis(200);

/// Acks every frame; holds the reply to frame `stall_at` for `STALL`.
fn slow_responder(stall_at: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let h = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let mut n = 0usize;
        loop {
            let mut header = [0u8; FRAME_HEADER_LEN];
            if s.read_exact(&mut header).is_err() {
                return;
            }
            let h = parse_header(&header, 1 << 20, true).expect("client frame");
            let mut payload = vec![0u8; h.payload_len as usize];
            s.read_exact(&mut payload).expect("payload");
            if n == stall_at {
                std::thread::sleep(STALL);
            }
            n += 1;
            if s.write_all(&encode_frame(FrameType::Ack, h.seq, &[]))
                .is_err()
            {
                return;
            }
        }
    });
    (addr, h)
}

fn spec() -> Spec {
    Spec {
        name: "slow_responder",
        why: "test",
        streams: vec![StreamSpec {
            key: "t".into(),
            family: SketchFamily::Theta,
        }],
        batch: 8,
        ingest_pattern: vec![0],
        // 1000 batches per second.
        ingest_rate: Some(8000.0),
        items: Items::Distinct,
        query_rate: 1.0,
        query_mix: vec![(SketchFamily::Theta, 1.0)],
        preload: 0,
        replicas: 0,
        replica_period: Duration::from_secs(1),
        image_items: 0,
        snapshots: false,
        warmup_s: 0.0,
    }
}

#[test]
fn one_stall_inflates_every_request_queued_behind_it() {
    let (addr, responder) = slow_responder(300);
    let gen = Generator::new(spec(), 1);
    let sh = Shared::new(gen.clone(), vec![0], Vec::new());
    let mut oracle = Oracle::new(&gen);
    let mut conn = Conn::connect(addr).expect("connect");
    let t0 = Instant::now() + Duration::from_millis(5);
    let out = run_writer(
        &sh,
        &mut conn,
        &mut oracle,
        &mut Cursor::default(),
        t0,
        t0 + Duration::from_secs(1),
        true,
    );
    drop(conn);
    responder.join().expect("responder");

    assert!(out.batches_sent >= 900, "sent {}", out.batches_sent);
    assert_eq!(out.failed, 0);
    let ms = |h, q| quantile_ns(h, q).expect("samples") / 1e6;
    // The responder held exactly one reply; measured from send time
    // (the service time) that shows as a single slow request...
    assert!(
        ms(&out.await_reply, 0.95) < 20.0,
        "service p95 {}",
        ms(&out.await_reply, 0.95)
    );
    assert!(out.await_reply.max_ns() as f64 / 1e6 >= 190.0);
    // ...but ~200 requests fell due during the stall, and measured from
    // their due times every one of them waited: the top tenth of
    // latencies all exceed 50 ms.
    assert!(
        ms(&out.ack.all, 0.9) > 50.0,
        "due-time p90 {}",
        ms(&out.ack.all, 0.9)
    );
    assert!(
        ms(&out.ack.all, 0.5) < 20.0,
        "due-time p50 {}",
        ms(&out.ack.all, 0.5)
    );
    // The generator reports how late it ran while it caught up.
    assert!(ms(&out.late, 0.9) > 50.0, "late p90 {}", ms(&out.late, 0.9));
}
