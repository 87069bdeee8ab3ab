//! `gridwatch simulate` — generate monitoring data as CSV.

use gridwatch_sim::chaos::chaos_scenario;
use gridwatch_sim::scenario::{clean_scenario, group_fault_scenario};
use gridwatch_sim::ChaosRegime;
use gridwatch_timeseries::GroupId;

use crate::commands::write_file;
use crate::flags::Flags;

const HELP: &str = "\
gridwatch simulate --out FILE [flags]

  --out FILE       where to write the CSV trace (required)
  --group A|B|C    infrastructure group flavour   (default A)
  --machines N     machines in the group          (default 4)
  --days N         days of data from May 29       (default 30)
  --seed N         RNG seed                       (default 20080529)
  --fault          inject the Figure-12 fault scenario (correlation
                   break on the test day + load-spike control); the
                   ground-truth windows are printed
  --chaos R        inject a hostile-conditions regime instead: drift |
                   skew | flapping | overload | cascade (group A; the
                   ground-truth and expected-rebuild windows are
                   printed; see `gridwatch eval --chaos`)";

pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let flags = Flags::parse(
        "simulate",
        args,
        &["fault"],
        &[&["out", "group", "machines", "days", "seed", "chaos"]],
    )?;
    let out: String = flags.require("out")?;
    let group: GroupId = flags.get_or("group", GroupId::A)?;
    let machines: usize = flags.get_or("machines", 4)?;
    let days: u64 = flags.get_or("days", 30)?;
    let seed: u64 = flags.get_or("seed", 20080529)?;
    if machines == 0 || days == 0 {
        return Err("--machines and --days must be positive".into());
    }

    let chaos_regime: Option<ChaosRegime> = flags.get("chaos")?;
    if chaos_regime.is_some() && flags.has("fault") {
        return Err("--fault and --chaos are mutually exclusive".into());
    }
    let (full_trace, truth_windows, rebuild_windows) = if let Some(regime) = chaos_regime {
        let scenario = chaos_scenario(regime, machines, seed);
        let truth = scenario.truth_windows();
        let rebuilds = scenario.chaos.rebuild_windows();
        (scenario.trace, truth, rebuilds)
    } else if flags.has("fault") {
        let scenario = group_fault_scenario(group, machines, seed);
        let truth = scenario.faults.truth_windows();
        (scenario.trace, truth, Vec::new())
    } else {
        let scenario = clean_scenario(group, machines, seed);
        let truth = scenario.faults.truth_windows();
        (scenario.trace, truth, Vec::new())
    };
    // Truncate to the requested number of days.
    let window = crate::commands::trace_window(
        &full_trace,
        gridwatch_timeseries::Timestamp::EPOCH,
        gridwatch_timeseries::Timestamp::from_days(days),
    );
    let trace = gridwatch_sim::Trace::from_parts(
        full_trace.catalog().clone(),
        window,
        full_trace.interval(),
    );
    write_file(&out, &trace.to_csv_string())?;

    println!(
        "wrote {} measurements x {} days ({} samples) to {}",
        trace.measurement_count(),
        days,
        trace
            .measurement_ids()
            .next()
            .and_then(|id| trace.series(id).map(|s| s.len()))
            .unwrap_or(0),
        out
    );
    for (start, end) in truth_windows {
        println!("ground-truth fault window: [{start}, {end})");
    }
    for (start, end) in rebuild_windows {
        println!("expected-rebuild window: [{start}, {end})");
    }
    Ok(())
}
