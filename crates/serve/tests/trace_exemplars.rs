//! End-to-end causal-trace properties:
//!
//! * Across a real TCP fabric (coordinator + remote shard workers), an
//!   alarmed snapshot's retained exemplar covers all seven pipeline
//!   stages, with worker-side slices shipped over the wire inside the
//!   board frames.
//! * The exemplar layer is an observer: with exemplars disabled (the
//!   default) or enabled, the report stream is bit-identical to the
//!   offline baseline replay.
//! * One clock per stage: with the tracer on as well, a stage's
//!   histogram counts exactly the slices filed for it — both are fed
//!   by the same span.

mod common;

use std::thread::JoinHandle;

use gridwatch_obs::{ExemplarConfig, ExemplarTracer, PipelineObs, Stage};
use gridwatch_serve::{
    BackpressurePolicy, Coordinator, FabricConfig, FabricError, ServeConfig, ShardWorker,
    ShardedEngine, WorkerSummary,
};
use proptest::prelude::*;

fn exemplar_obs(head_sample_every: u64) -> PipelineObs {
    PipelineObs {
        exemplar: ExemplarTracer::enabled(ExemplarConfig {
            head_sample_every,
            ..ExemplarConfig::default()
        }),
        ..PipelineObs::default()
    }
}

struct Worker {
    addr: String,
    handle: JoinHandle<Result<WorkerSummary, FabricError>>,
}

/// Slices filed for `stage` across the retained traces.
fn slices(traces: &[gridwatch_obs::TraceExemplar], stage: Stage) -> u64 {
    let spans = traces.iter().flat_map(|t| &t.spans);
    spans.filter(|s| s.stage == stage.name()).count() as u64
}

fn spawn_worker() -> Worker {
    let worker = ShardWorker::bind("127.0.0.1:0").expect("bind worker");
    let addr = worker.local_addr().to_string();
    let handle = std::thread::spawn(move || worker.run());
    Worker { addr, handle }
}

#[test]
fn fabric_exemplars_cover_all_seven_stages_across_the_wire() {
    let snapshot = common::trained();
    let trace = common::trace(24);
    let want = common::reference_reports(snapshot.clone(), &trace);
    let alarmed_seqs: Vec<u64> = want
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.alarms.is_empty())
        .map(|(k, _)| k as u64)
        .collect();
    assert!(!alarmed_seqs.is_empty(), "trace must trip alarms");

    let workers: Vec<Worker> = (0..2).map(|_| spawn_worker()).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    // head_sample_every: 1 retains every snapshot, so the suite also
    // proves head sampling and alarm retention coexist. The tracer is
    // on too: both sinks hang off the one span guard.
    let obs = exemplar_obs(1);
    obs.tracer.enable();
    let mut coordinator =
        Coordinator::connect_with_obs(snapshot, &addrs, FabricConfig::default(), obs.clone())
            .expect("connect fabric");
    for snap in &trace {
        coordinator.submit(snap.clone()).expect("submit");
    }
    let (reports, stats) = coordinator.shutdown(true);
    assert_eq!(reports, want, "exemplar capture must not perturb reports");
    assert_eq!(stats.reports, trace.len() as u64);
    for worker in workers {
        worker.handle.join().expect("worker thread").expect("run");
    }

    let (_, exemplars) = obs.exemplar.snapshot_indexed();
    assert_eq!(exemplars.len(), trace.len(), "head sampling keeps all");
    for trace_doc in &exemplars {
        assert_eq!(trace_doc.source, "coordinator");
        for stage in Stage::ALL {
            assert!(
                trace_doc.spans.iter().any(|s| s.stage == stage.name()),
                "seq {} missing {} in {:?}",
                trace_doc.seq,
                stage.name(),
                trace_doc.spans
            );
        }
        // One worker-attributed, shard-stamped Score slice per shard.
        let scored: Vec<_> = trace_doc
            .spans
            .iter()
            .filter(|s| s.stage == "score")
            .collect();
        assert_eq!(scored.len(), 2, "seq {}", trace_doc.seq);
        let mut shards: Vec<u64> = scored.iter().map(|s| s.shard.unwrap()).collect();
        shards.sort_unstable();
        assert_eq!(shards, vec![0, 1]);
        assert!(scored.iter().all(|s| s.worker.starts_with("worker-")));
    }
    let got_alarmed: Vec<u64> = exemplars
        .iter()
        .filter(|t| t.alarmed)
        .map(|t| t.seq)
        .collect();
    assert_eq!(got_alarmed, alarmed_seqs);
    // Every trace is retained, so for each stage the coordinator times,
    // the histogram holds one sample per slice: the property two clocks
    // per stage could not guarantee.
    for stage in [Stage::Route, Stage::Score, Stage::Merge, Stage::Report] {
        let count = obs.tracer.stage(stage).count;
        assert_eq!(count, slices(&exemplars, stage), "{}", stage.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The exemplar layer never perturbs detection: with exemplars
    /// disabled (default) or enabled with aggressive head sampling,
    /// the sharded engine's report stream is bit-identical to the
    /// offline baseline replay of the same snapshots.
    #[test]
    fn report_stream_is_bit_identical_with_exemplars_on_or_off(
        steps in 6u64..28,
        shards in 1usize..5,
        head_every in 0u64..4,
    ) {
        let snapshot = common::trained();
        let trace = common::trace(steps);
        let want = common::reference_reports(snapshot.clone(), &trace);

        // Last: both sinks of the span guard on, every trace retained.
        let both = exemplar_obs(1);
        both.tracer.enable();
        for obs in [PipelineObs::default(), exemplar_obs(head_every), both.clone()] {
            let mut engine = ShardedEngine::start_with_obs(
                snapshot.clone(),
                ServeConfig {
                    shards,
                    queue_capacity: 16,
                    backpressure: BackpressurePolicy::Block,
                },
                obs,
            );
            for snap in &trace {
                engine.submit(snap.clone());
            }
            let (reports, _) = engine.shutdown();
            prop_assert_eq!(&reports, &want);
        }
        let (_, traces) = both.exemplar.snapshot_indexed();
        // Every trace is open, with its route slice filed, before any
        // shard sees the snapshot, so no slice misses its trace.
        for stage in [Stage::Route, Stage::Score, Stage::Merge, Stage::Report] {
            prop_assert_eq!(both.tracer.stage(stage).count, slices(&traces, stage));
        }
    }
}
