//! Deterministic fault injection against the TCP ingestion tier.
//!
//! Every test drives a real listener over loopback with a [`ChaosClient`]
//! injecting one network fault class, then asserts three things: the
//! listener survives, the stats account for the fault, and — under the
//! lossless `Block` policy — the merged `StepReport` stream stays
//! bit-identical to a single-threaded replay of the same snapshots.
//!
//! No sleeps-as-synchronization: tests wait on events — the expected
//! number of reports arriving, or the server closing a faulted
//! connection (observed by the client as EOF) — never on timers racing
//! the server. Ports are OS-assigned (`127.0.0.1:0`), so suites cannot
//! collide on addresses.

mod common;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use common::ChaosClient;
use gridwatch_detect::StepReport;
use gridwatch_obs::{parse_exposition, MetricsServer, PipelineObs};
use gridwatch_serve::{
    encode_json, BackpressurePolicy, Checkpointer, NetConfig, NetServer, ServeConfig,
};

const SOURCE: &str = "agent-1";

fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        queue_capacity: 8,
        backpressure: BackpressurePolicy::Block,
    }
}

fn bind(net: NetConfig) -> NetServer {
    NetServer::bind(
        "127.0.0.1:0",
        common::trained(),
        serve_config(),
        net,
        BTreeMap::new(),
    )
    .expect("bind an OS-assigned port")
}

/// Waits for exactly `n` merged reports — the event that proves the
/// server decoded, sequenced, and applied `n` snapshots.
fn collect_reports(server: &NetServer, n: usize) -> Vec<StepReport> {
    (0..n)
        .map(|k| {
            server
                .recv_report_timeout(Duration::from_secs(30))
                .unwrap_or_else(|| panic!("report {k} of {n} never arrived"))
        })
        .collect()
}

#[test]
fn clean_json_stream_is_bit_identical_to_replay() {
    let trace = common::trace(24);
    let want = common::reference_reports(common::trained(), &trace);
    assert!(
        want.iter().any(|r| !r.alarms.is_empty()),
        "trace must alarm"
    );

    let server = bind(NetConfig::default());
    let mut client = ChaosClient::connect(server.local_addr());
    for frame in common::frames(SOURCE, 0, &trace) {
        client.send_json(&frame);
    }
    let got = collect_reports(&server, trace.len());
    client.disconnect();
    let (rest, stats) = server.shutdown();
    assert!(rest.is_empty());
    assert_eq!(got, want, "network stream diverged from offline replay");
    assert_eq!(stats.net.frames, trace.len() as u64);
    assert_eq!(stats.net.decode_errors, 0);
    assert_eq!(stats.net.duplicates, 0);
    assert_eq!(stats.net.connections[0].protocol, "json");
}

#[test]
fn clean_csv_stream_is_bit_identical_to_replay() {
    let trace = common::trace(20);
    let want = common::reference_reports(common::trained(), &trace);

    let server = bind(NetConfig::default());
    let mut client = ChaosClient::connect(server.local_addr());
    for frame in common::frames(SOURCE, 0, &trace) {
        client.send_csv(&frame);
    }
    let got = collect_reports(&server, trace.len());
    client.disconnect();
    let (_, stats) = server.shutdown();
    assert_eq!(got, want);
    assert_eq!(stats.net.connections[0].protocol, "csv");
}

#[test]
fn interleaved_partial_writes_decode_identically() {
    let trace = common::trace(16);
    let want = common::reference_reports(common::trained(), &trace);

    let server = bind(NetConfig::default());
    let mut client = ChaosClient::connect(server.local_addr());
    for (k, frame) in common::frames(SOURCE, 0, &trace).iter().enumerate() {
        // Dribble every frame in tiny, varying chunks.
        let bytes = encode_json(frame).unwrap();
        client.send_chunked(&bytes, 1 + k % 5);
    }
    let got = collect_reports(&server, trace.len());
    client.disconnect();
    let (_, stats) = server.shutdown();
    assert_eq!(got, want, "partial writes must not corrupt framing");
    assert_eq!(stats.net.frames, trace.len() as u64);
    assert_eq!(stats.net.decode_errors, 0);
}

#[test]
fn mixed_protocol_connections_feed_one_sequenced_stream() {
    let trace = common::trace(20);
    let want = common::reference_reports(common::trained(), &trace);
    let frames = common::frames(SOURCE, 0, &trace);
    let (head, tail) = frames.split_at(10);

    let server = bind(NetConfig {
        reorder_capacity: 32,
        ..NetConfig::default()
    });
    // The tail arrives first over CSV; the reorder window holds it until
    // the JSON connection delivers the head. Connect the JSON client only
    // once the whole tail is buffered, or the two connections race.
    let mut csv_client = ChaosClient::connect(server.local_addr());
    for frame in tail {
        csv_client.send_csv(frame);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().net.out_of_order < tail.len() as u64 {
        assert!(Instant::now() < deadline, "the tail was never buffered");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut json_client = ChaosClient::connect(server.local_addr());
    for frame in head {
        json_client.send_json(frame);
    }
    let got = collect_reports(&server, trace.len());
    csv_client.disconnect();
    json_client.disconnect();
    let (_, stats) = server.shutdown();
    assert_eq!(got, want, "two connections, one source, one exact stream");
    assert_eq!(stats.net.frames, trace.len() as u64);
    assert_eq!(
        stats.net.out_of_order,
        tail.len() as u64,
        "the tail had to be buffered"
    );
}

#[test]
fn mid_frame_disconnect_then_reconnect_with_replay_is_lossless() {
    let trace = common::trace(24);
    let want = common::reference_reports(common::trained(), &trace);
    let frames = common::frames(SOURCE, 0, &trace);
    let delivered_before_crash = 9usize;

    let server = bind(NetConfig::default());

    // First connection: some whole frames, then half a frame, then gone.
    let mut first = ChaosClient::connect(server.local_addr());
    for frame in &frames[..delivered_before_crash] {
        first.send_json(frame);
    }
    let partial = encode_json(&frames[delivered_before_crash]).unwrap();
    first.send(&partial[..partial.len() / 2]);
    first.finish_writing();
    // EOF mid-frame: the server counts the truncation and closes; the
    // client observing the close is the synchronization point.
    first.wait_closed();

    // The agent restarts and replays its entire journal, as real agents
    // do when they cannot know what was applied.
    let mut second = ChaosClient::connect(server.local_addr());
    for frame in &frames {
        second.send_json(frame);
    }
    let got = collect_reports(&server, trace.len());
    second.disconnect();
    let (_, stats) = server.shutdown();

    assert_eq!(got, want, "replay after a crash must not double-apply");
    assert_eq!(stats.net.decode_errors, 1, "the truncated frame");
    assert_eq!(stats.net.connections[0].decode_errors, 1);
    assert_eq!(
        stats.net.duplicates, delivered_before_crash as u64,
        "every frame the first connection delivered is replayed as a duplicate"
    );
    assert_eq!(stats.submitted, trace.len() as u64);
}

#[test]
fn garbage_bytes_close_one_connection_and_spare_the_rest() {
    let trace = common::trace(18);
    let want = common::reference_reports(common::trained(), &trace);

    let server = bind(NetConfig::default());

    // A hostile stream: printable garbage, so it detects as CSV and
    // fails parsing with a typed error.
    let mut evil = ChaosClient::connect(server.local_addr());
    evil.send(b"total,garbage,stream,zzz\n");
    evil.finish_writing();
    evil.wait_closed();

    // Binary garbage on a second connection.
    let mut worse = ChaosClient::connect(server.local_addr());
    worse.send(&[0xff, 0xfe, 0x00, 0x17, b'\n']);
    worse.finish_writing();
    worse.wait_closed();

    // A well-behaved client is untouched.
    let mut good = ChaosClient::connect(server.local_addr());
    for frame in common::frames(SOURCE, 0, &trace) {
        good.send_json(&frame);
    }
    let got = collect_reports(&server, trace.len());
    good.disconnect();
    let (_, stats) = server.shutdown();

    assert_eq!(got, want, "garbage on other connections must not perturb");
    assert_eq!(stats.net.decode_errors, 2);
    assert_eq!(stats.net.frames, trace.len() as u64);
    assert_eq!(stats.net.accepted, 3);
}

#[test]
fn oversized_frame_is_refused_with_a_typed_error() {
    let trace = common::trace(12);
    let want = common::reference_reports(common::trained(), &trace);

    let server = bind(NetConfig {
        max_frame_bytes: 1 << 16,
        ..NetConfig::default()
    });

    // A length prefix claiming 4 MiB against a 64 KiB limit: refused
    // before any payload is buffered.
    let mut bomber = ChaosClient::connect(server.local_addr());
    bomber.send(&u32::to_be_bytes(1 << 22));
    bomber.finish_writing();
    bomber.wait_closed();

    let mut good = ChaosClient::connect(server.local_addr());
    for frame in common::frames(SOURCE, 0, &trace) {
        good.send_json(&frame);
    }
    let got = collect_reports(&server, trace.len());
    good.disconnect();
    let (_, stats) = server.shutdown();

    assert_eq!(got, want);
    assert_eq!(stats.net.decode_errors, 1, "the oversized claim");
    assert_eq!(stats.net.connections[0].frames, 0);
}

#[test]
fn slow_loris_client_hits_the_read_deadline() {
    let trace = common::trace(12);
    let want = common::reference_reports(common::trained(), &trace);

    let server = bind(NetConfig {
        read_timeout: Duration::from_millis(100),
        ..NetConfig::default()
    });

    // Half a frame, then silence. The server's read deadline — not this
    // test — decides when to give up; the client just observes the close.
    let mut loris = ChaosClient::connect(server.local_addr());
    let frame = encode_json(&common::frames(SOURCE, 0, &trace)[0]).unwrap();
    loris.send(&frame[..6]);
    loris.wait_closed();

    // Deadline generosity check: a normal client pushing frames promptly
    // is never timed out. It disconnects right after sending — lingering
    // idle would legitimately trip the deliberately-short deadline.
    let mut good = ChaosClient::connect(server.local_addr());
    for frame in common::frames(SOURCE, 0, &trace) {
        good.send_json(&frame);
    }
    good.disconnect();
    let got = collect_reports(&server, trace.len());
    let (_, stats) = server.shutdown();

    assert_eq!(got, want);
    assert_eq!(stats.net.timeouts, 1, "the stalled connection");
    assert_eq!(stats.net.connections[0].timeouts, 1);
    assert_eq!(stats.net.connections[1].timeouts, 0);
}

#[test]
fn out_of_order_frames_are_resequenced_exactly() {
    let trace = common::trace(20);
    let want = common::reference_reports(common::trained(), &trace);
    let frames = common::frames(SOURCE, 0, &trace);

    let server = bind(NetConfig::default());
    let mut client = ChaosClient::connect(server.local_addr());
    // Swap every adjacent pair: 1,0,3,2,... — each odd frame arrives one
    // early and must wait in the reorder window.
    for pair in frames.chunks(2) {
        if let [a, b] = pair {
            client.send_json(b);
            client.send_json(a);
        }
    }
    let got = collect_reports(&server, trace.len());
    client.disconnect();
    let (_, stats) = server.shutdown();

    assert_eq!(got, want, "reordering must reconstruct the exact stream");
    assert_eq!(stats.net.out_of_order, trace.len() as u64 / 2);
    assert_eq!(stats.net.gap_skips, 0);
}

#[test]
fn checkpoint_resume_absorbs_full_replay() {
    let dir = common::scratch_dir("resume");
    let head = common::trace(20);
    let tail = common::trace_from(20, 8);
    let head_frames = common::frames(SOURCE, 0, &head);
    let tail_frames = common::frames(SOURCE, 20, &tail);

    // First life: stream the head with periodic checkpoints.
    let server = NetServer::bind(
        "127.0.0.1:0",
        common::trained(),
        serve_config(),
        NetConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 5,
            ..NetConfig::default()
        },
        BTreeMap::new(),
    )
    .unwrap();
    let mut client = ChaosClient::connect(server.local_addr());
    for frame in &head_frames {
        client.send_json(frame);
    }
    let first_reports = collect_reports(&server, head.len());
    client.disconnect();
    server.shutdown();

    // The final checkpoint pins both the models and the source progress.
    let (recovered, manifest) = Checkpointer::new(&dir).recover().unwrap();
    assert_eq!(manifest.sources[SOURCE], head.len() as u64);

    // Second life: the agent replays everything it ever sent, then
    // continues with fresh frames.
    let server = NetServer::bind(
        "127.0.0.1:0",
        recovered,
        serve_config(),
        NetConfig::default(),
        manifest.sources,
    )
    .unwrap();
    let mut client = ChaosClient::connect(server.local_addr());
    for frame in head_frames.iter().chain(&tail_frames) {
        client.send_json(frame);
    }
    let second_reports = collect_reports(&server, tail.len());
    client.disconnect();
    let (_, stats) = server.shutdown();

    // No head snapshot was double-applied...
    assert_eq!(stats.net.duplicates, head.len() as u64);
    assert_eq!(stats.submitted, tail.len() as u64);
    // ...and the combined stream is bit-identical to one uninterrupted
    // replay of head + tail.
    let full: Vec<_> = head.iter().chain(&tail).cloned().collect();
    let want = common::reference_reports(common::trained(), &full);
    let got: Vec<_> = first_reports.into_iter().chain(second_reports).collect();
    assert_eq!(got, want, "crash + resume must not perturb the stream");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_metrics_scrape_accounts_for_every_processed_snapshot() {
    let trace = common::trace(30);
    let want = common::reference_reports(common::trained(), &trace);

    let obs = PipelineObs::default();
    obs.tracer.enable();
    let server = NetServer::bind_with_obs(
        "127.0.0.1:0",
        common::trained(),
        serve_config(),
        NetConfig::default(),
        BTreeMap::new(),
        obs,
    )
    .expect("bind an OS-assigned port");
    let probe = server.metrics_probe();
    let metrics =
        MetricsServer::bind("127.0.0.1:0", move || probe.to_prometheus()).expect("bind metrics");

    let mut client = ChaosClient::connect(server.local_addr());
    for frame in common::frames(SOURCE, 0, &trace) {
        client.send_json(&frame);
    }
    let got = collect_reports(&server, trace.len());

    // Scrape over real HTTP while the listener is still live, after the
    // last report: every applied snapshot must already be on the books.
    let (status, body) =
        gridwatch_obs::scrape(metrics.local_addr(), "/metrics").expect("scrape the endpoint");
    assert!(status.contains("200"), "bad scrape status: {status}");
    let samples = parse_exposition(&body).expect("parseable exposition");

    let shard_processed: f64 = samples
        .iter()
        .filter(|s| s.name == "gridwatch_shard_processed_total")
        .map(|s| s.value)
        .sum();
    let latency_counts: f64 = samples
        .iter()
        .filter(|s| s.name == "gridwatch_shard_step_latency_ns_count")
        .map(|s| s.value)
        .sum();
    // Each snapshot fans out to every shard, and each shard observes one
    // step latency per processed snapshot.
    let shards = serve_config().shards as f64;
    let steps = trace.len() as f64;
    assert_eq!(shard_processed, shards * steps);
    assert_eq!(latency_counts, shards * steps);
    let submitted = samples
        .iter()
        .find(|s| s.name == "gridwatch_submitted_total")
        .expect("submitted counter");
    assert_eq!(submitted.value, steps);
    // The enabled tracer's stage spans rode along.
    assert!(
        samples.iter().any(|s| s.name == "gridwatch_stage_ns_count"),
        "stage spans missing from a traced scrape"
    );

    client.disconnect();
    metrics.shutdown();
    let (_, stats) = server.shutdown();
    assert_eq!(
        got, want,
        "an observed listener must not perturb the stream"
    );
    assert_eq!(stats.submitted, trace.len() as u64);
}

#[test]
fn every_report_is_preceded_by_its_submit_count() {
    // Lockstep: one frame, then its report. The engine counts a submit
    // before any shard sees the snapshot, so a report can never be on
    // the wire while `submitted` still lags it.
    let trace = common::trace(3_000);
    let server = bind(NetConfig::default());
    let mut client = ChaosClient::connect(server.local_addr());
    let mut late = Vec::new();
    for (k, frame) in common::frames(SOURCE, 0, &trace).iter().enumerate() {
        client.send_json(frame);
        collect_reports(&server, 1);
        let submitted = server.stats().submitted;
        if submitted < k as u64 + 1 {
            late.push((k, submitted));
        }
    }
    client.disconnect();
    let (_, stats) = server.shutdown();
    assert!(
        late.is_empty(),
        "reports ahead of their submit count: {late:?}"
    );
    assert_eq!(stats.submitted, trace.len() as u64);
}

#[test]
fn lossy_flood_never_wedges_the_listener() {
    let trace = common::trace(200);
    let server = NetServer::bind(
        "127.0.0.1:0",
        common::trained(),
        ServeConfig {
            shards: 2,
            queue_capacity: 2,
            backpressure: BackpressurePolicy::Reject,
        },
        NetConfig {
            ingest_capacity: 2,
            reorder_capacity: 4,
            ..NetConfig::default()
        },
        BTreeMap::new(),
    )
    .unwrap();
    let mut client = ChaosClient::connect(server.local_addr());
    for frame in common::frames(SOURCE, 0, &trace) {
        client.send_json(&frame);
    }
    client.finish_writing();
    client.wait_closed();
    let (_, stats) = server.shutdown();

    // Liveness + accounting: the shutdown above completing is the
    // no-wedge proof, and every frame is accounted for — applied,
    // refused at the socket boundary, refused by the engine front once
    // sequenced, or (at most a reorder window's worth) still waiting on
    // an abandonable gap at teardown.
    assert_eq!(stats.net.frames + stats.net.rejected, trace.len() as u64);
    assert_eq!(stats.net.decode_errors, 0);
    let accounted = stats.submitted + stats.rejected + stats.net.rejected;
    assert!(accounted <= trace.len() as u64, "{}", stats.to_json());
    assert!(
        trace.len() as u64 - accounted <= 4,
        "at most reorder_capacity frames may die buffered: {}",
        stats.to_json()
    );
    assert!(
        stats.net.gap_skips <= stats.net.rejected,
        "only refused frames leave gaps to skip: {}",
        stats.to_json()
    );
}
