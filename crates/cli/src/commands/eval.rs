//! `gridwatch eval` — run the scored chaos evaluation: every hostile
//! regime (or one chosen with `--regime`) against its typed ground
//! truth, reporting detection latency, precision/recall, and the drift
//! layer's rebuild counts. The paper-figure experiments stay on the
//! `repro` binary (`cargo run -p gridwatch-eval --bin repro`); this
//! command covers the hostile-conditions sweep.

use gridwatch_eval::chaos::{run_all, run_regime, ChaosOptions};
use gridwatch_sim::ChaosRegime;

use crate::flags::Flags;

const HELP: &str = "\
gridwatch eval --chaos [flags]

  --chaos              run the hostile-conditions evaluation (required)
  --regime R           one regime only: drift | skew | flapping |
                       overload | cascade      (default: all five)

scenario knobs:
  --machines N         machines per simulated group   (default 3)
  --seed N             master scenario seed           (default 20080529)
  --max-pairs N        cap on watched pairs           (default 30)
  --threshold X        system-score alarm threshold   (default 0.6)
  --days N             replay days after training cut (default 2)

output:
  --out DIR            also write the report tables as CSV into DIR

Exits non-zero when a shape check fails (full sweep only; a single
--regime run prints its report without checks).

examples:
  gridwatch eval --chaos
  gridwatch eval --chaos --regime drift --days 3
  gridwatch eval --chaos --machines 4 --out results/";

pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let flags = Flags::parse(
        "eval",
        args,
        &["chaos"],
        &[&[
            "regime",
            "machines",
            "seed",
            "max-pairs",
            "threshold",
            "days",
            "out",
        ]],
    )?;
    if !flags.has("chaos") {
        return Err(format!("nothing to evaluate; pass --chaos\n{HELP}"));
    }
    let options = ChaosOptions {
        machines: flags.get_or("machines", ChaosOptions::default().machines)?,
        seed: flags.get_or("seed", ChaosOptions::default().seed)?,
        max_pairs: flags.get_or("max-pairs", ChaosOptions::default().max_pairs)?,
        threshold: flags.get_or("threshold", ChaosOptions::default().threshold)?,
        replay_days: flags.get_or("days", ChaosOptions::default().replay_days)?,
    };

    if let Some(name) = flags.get::<String>("regime")? {
        let regime: ChaosRegime = name
            .parse()
            .map_err(|e: String| format!("bad --regime: {e}"))?;
        let report = run_regime(regime, options);
        println!("regime          {}", report.regime);
        println!("samples         {}", report.samples);
        println!(
            "delay_s         {}",
            report
                .detection_delay_secs
                .map_or("-".to_string(), |d| d.to_string())
        );
        println!("precision       {}", fmt_opt(report.precision));
        println!("recall          {}", fmt_opt(report.recall));
        println!("rebuilds        {}", report.rebuilds);
        println!("false_rebuilds  {}", report.false_rebuilds);
        println!("min_Q           {:.3}", report.min_system_score);
        return Ok(());
    }

    let result = run_all(options);
    println!("{}", result.to_ascii());
    if let Some(dir) = flags.get::<String>("out")? {
        result
            .write_csv(std::path::Path::new(&dir))
            .map_err(|e| format!("cannot write CSVs into {dir}: {e}"))?;
        println!("wrote CSV tables into {dir}");
    }
    if !result.all_checks_passed() {
        return Err("one or more chaos shape checks failed".to_string());
    }
    Ok(())
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |x| format!("{x:.3}"))
}
