//! `gridwatch monitor` — stream a time range of a trace through a
//! persisted engine, printing alarms and incident drill-downs.

use gridwatch_detect::{DetectionEngine, IncidentReport};
use gridwatch_obs::FlightEvent;
use gridwatch_store::{Record, RecordKind};
use gridwatch_timeseries::Timestamp;

use crate::commands::replay::ReportTally;
use crate::commands::{
    apply_alarm_flags, load_engine, load_trace, open_history_sink, store_checkpoint,
    trace_snapshots, ALARM_FLAGS, STORE_FLAGS, STORE_HELP,
};
use crate::flags::Flags;

const HELP: &str = "\
gridwatch monitor --trace FILE --engine FILE [flags]

  --trace FILE              CSV monitoring data
  --engine FILE             engine snapshot from `gridwatch train`
  --from-day N              first day to stream (default 15 = June 13)
  --days N                  days to stream      (default 1)
  --system-threshold X      alarm when Q_t < X            (default 0.6)
  --measurement-threshold X alarm when Q^a_t < X          (default 0.5)
  --consecutive N           debounce: N consecutive lows  (default 2)
  --incidents               print a full incident report per alarm; with
                            --store, the report's recent-events section
                            is read back from the store (so it also
                            covers events persisted by earlier runs)
  --save FILE               write the updated engine snapshot back";

pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        println!();
        println!("{STORE_HELP}");
        return Ok(());
    }
    let flags = Flags::parse(
        "monitor",
        args,
        &["incidents"],
        &[
            &["trace", "engine", "from-day", "days", "save"],
            ALARM_FLAGS,
            STORE_FLAGS,
        ],
    )?;
    let trace_path: String = flags.require("trace")?;
    let engine_path: String = flags.require("engine")?;
    let from_day: u64 = flags.get_or("from-day", 15)?;
    let days: u64 = flags.get_or("days", 1)?;

    let trace = load_trace(&trace_path)?;
    let mut snapshot = load_engine(&engine_path)?;
    apply_alarm_flags(&flags, &mut snapshot)?;
    let mut engine = DetectionEngine::from_snapshot(snapshot);
    // The flight recorder gives `--incidents` reports their run-up: the
    // engine logs alarm events into the shared ring as it steps.
    let recorder = gridwatch_obs::FlightRecorder::default();
    engine.attach_recorder(recorder.clone());
    let mut sink = open_history_sink(&flags)?;

    let start = Timestamp::from_days(from_day);
    let end = Timestamp::from_days(from_day + days);
    let mut ticks = 0usize;
    let mut last_at = start.as_secs();
    let mut tally = ReportTally::default();
    for snap in trace_snapshots(&trace, start, end) {
        ticks += 1;
        last_at = snap.at().as_secs();
        let report = engine.step(&snap);
        if let Some(sink) = sink.as_mut() {
            sink.append_report(&report)
                .map_err(|e| format!("history store append failed: {e}"))?;
        }
        tally.note(&report);
        if !report.alarms.is_empty() && flags.has("incidents") {
            let events = match sink.as_mut() {
                // With a store, read the run-up back from it: the ring's
                // new events first land there (deduplicated by global
                // index), then the scan also surfaces events persisted
                // by earlier runs against the same store.
                Some(sink) => {
                    sink.drain_recorder(&recorder, last_at)
                        .map_err(|e| format!("history store event drain failed: {e}"))?;
                    stored_events(sink.store(), last_at)?
                }
                None => recorder.snapshot(),
            };
            let incident = IncidentReport::compile(&engine, &report.scores, 3).with_events(events);
            println!("{incident}");
        }
    }
    let alarms = tally.alarms;
    store_checkpoint(
        &mut sink,
        &recorder,
        &gridwatch_obs::ExemplarTracer::disabled(),
        last_at,
        || format!("{{\"monitored\":{ticks},\"alarms\":{alarms}}}"),
    )?;
    println!(
        "monitored {ticks} snapshots over day {from_day}..{}; {alarms} alarms",
        from_day + days
    );
    tally.print_floor();
    if let Some(sink) = sink.as_ref() {
        println!(
            "history store {}: sealed through seq {}",
            sink.store().dir().display(),
            sink.store().next_seq()
        );
    }
    if let Some(save) = flags.get::<String>("save")? {
        engine
            .snapshot()
            .save(std::path::Path::new(&save))
            .map_err(|e| format!("cannot write {save}: {e}"))?;
        println!("updated engine snapshot written to {save}");
    }
    Ok(())
}

/// The most recent stored events up to `at`, oldest first, converted
/// back into flight events for the incident report (capped to the same
/// order of magnitude as the recorder ring).
fn stored_events(
    store: &gridwatch_store::HistoryStore,
    at: u64,
) -> Result<Vec<FlightEvent>, String> {
    const MAX_EVENTS: usize = 256;
    let records = store
        .scan(RecordKind::Event, 0, at)
        .map_err(|e| format!("history store event scan failed: {e}"))?;
    let mut events: Vec<FlightEvent> = records
        .into_iter()
        .filter_map(|(_, record)| match record {
            Record::Event(e) => Some(FlightEvent {
                at_ns: e.at_ns,
                kind: e.kind,
                detail: e.detail,
            }),
            _ => None,
        })
        .collect();
    if events.len() > MAX_EVENTS {
        events.drain(..events.len() - MAX_EVENTS);
    }
    Ok(events)
}
