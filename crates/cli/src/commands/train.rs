//! `gridwatch train` — fit a detection engine from a CSV trace and
//! persist it.

use gridwatch_core::ModelConfig;
use gridwatch_detect::{DetectionEngine, EngineConfig, PairScreen};
use gridwatch_timeseries::{AlignmentPolicy, PairSeries, Timestamp};

use crate::commands::{load_trace, trace_window};
use crate::flags::Flags;

const HELP: &str = "\
gridwatch train --trace FILE --out FILE [flags]

  --trace FILE     CSV monitoring data (see `gridwatch simulate`)
  --out FILE       where to write the engine snapshot (JSON)
  --train-days N   days of history to learn from      (default 8)
  --max-pairs N    cap on watched measurement pairs   (default 40)
  --min-cv X       variance screen: keep measurements with
                   coefficient of variation >= X      (default 0.05)
  --delta X        update threshold: transitions with probability
                   below X are flagged, not learned   (default 0.005)
  --frozen         freeze the pair grids after training: the model
                   stops learning online, so off-manifold data keeps
                   scoring low instead of being absorbed (required
                   for drift to stay observable; pair with --drift)
  --drift          enable the drift layer: sustained pair-fitness
                   decay triggers an online rebuild of that pair's
                   model from recent history";

pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let flags = Flags::parse(
        "train",
        args,
        &["frozen", "drift"],
        &[&["trace", "out", "train-days", "max-pairs", "min-cv", "delta"]],
    )?;
    let trace_path: String = flags.require("trace")?;
    let out: String = flags.require("out")?;
    let train_days: u64 = flags.get_or("train-days", 8)?;
    let max_pairs: usize = flags.get_or("max-pairs", 40)?;
    let min_cv: f64 = flags.get_or("min-cv", 0.05)?;
    let delta: f64 = flags.get_or("delta", 0.005)?;

    let trace = load_trace(&trace_path)?;
    let training = trace_window(&trace, Timestamp::EPOCH, Timestamp::from_days(train_days));
    let screen = PairScreen {
        min_cv,
        max_pairs: Some(max_pairs),
        ..PairScreen::default()
    };
    let pairs = screen.select(&training);
    if pairs.is_empty() {
        return Err(format!(
            "the variance screen kept no measurement pairs \
             (of {} measurements); lower --min-cv or extend --train-days",
            training.len()
        ));
    }
    let histories: Vec<_> = pairs
        .into_iter()
        .filter_map(|p| {
            PairSeries::align(
                &training[&p.first()],
                &training[&p.second()],
                AlignmentPolicy::Intersect,
            )
            .ok()
            .map(|h| (p, h))
        })
        .collect();
    let mut model = ModelConfig::builder()
        .update_threshold(delta)
        .build()
        .map_err(|e| e.to_string())?;
    if flags.has("frozen") {
        model = model.frozen();
    }
    let config = EngineConfig {
        model,
        drift: flags
            .has("drift")
            .then(gridwatch_detect::DriftConfig::default),
        ..EngineConfig::default()
    };
    let engine = DetectionEngine::train(histories, config).map_err(|e| e.to_string())?;

    let outcome = engine.training_outcome();
    println!(
        "trained {} pair models from {train_days} days ({} pairs skipped)",
        outcome.trained,
        outcome.skipped.len()
    );
    for (pair, reason) in &outcome.skipped {
        println!("  skipped {pair}: {reason}");
    }
    engine
        .snapshot()
        .save(std::path::Path::new(&out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("engine snapshot written to {out}");
    Ok(())
}
