//! `gridwatch inspect` — summarize a persisted engine snapshot.

use gridwatch_detect::EngineSnapshot;

use crate::flags::Flags;

const HELP: &str = "\
gridwatch inspect --engine FILE [--verbose]

  --engine FILE   engine snapshot from `gridwatch train`
  --verbose       per-pair grid shape and observation counts";

pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let flags = Flags::parse("inspect", args, &["verbose"], &[&["engine"]])?;
    let engine_path: String = flags.require("engine")?;
    let json = std::fs::read_to_string(&engine_path)
        .map_err(|e| format!("cannot read {engine_path}: {e}"))?;
    let snapshot: EngineSnapshot =
        serde_json::from_str(&json).map_err(|e| format!("cannot parse {engine_path}: {e}"))?;

    println!("engine snapshot: {engine_path}");
    println!("  pair models: {}", snapshot.models.len());
    println!(
        "  model config: kernel {:?}, w {}, delta {}, adaptive {}",
        snapshot.config.model.kernel,
        snapshot.config.model.decay_rate,
        snapshot.config.model.update_threshold,
        snapshot.config.model.adaptive
    );
    println!(
        "  alarm policy: system < {}, measurement < {}, {} consecutive",
        snapshot.config.alarm.system_threshold,
        snapshot.config.alarm.measurement_threshold,
        snapshot.config.alarm.min_consecutive
    );
    let total_cells: usize = snapshot
        .models
        .iter()
        .map(|(_, m)| m.grid().cell_count())
        .sum();
    let total_obs: u64 = snapshot
        .models
        .iter()
        .map(|(_, m)| m.matrix().total_observations())
        .sum();
    println!("  total cells: {total_cells}, learned transitions: {total_obs}");
    if flags.has("verbose") {
        for (pair, model) in &snapshot.models {
            println!(
                "  {pair}: grid {}x{}, {} transitions, {} outliers, {} extensions",
                model.grid().columns(),
                model.grid().rows(),
                model.matrix().total_observations(),
                model.outliers(),
                model.extensions()
            );
        }
    }
    Ok(())
}
