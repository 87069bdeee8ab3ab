//! `gridwatch shard-worker` — serve one shard of the multi-node
//! fabric: a small TCP process that adopts whatever model slice the
//! coordinator ships in its handshake, scores snapshots with it, and
//! streams partial boards back.

use std::io::Write;

use gridwatch_obs::{MetricsServer, PipelineObs};
use gridwatch_serve::ShardWorker;

use crate::commands::start_metrics;
use crate::flags::Flags;

const HELP: &str = "\
gridwatch shard-worker --listen ADDR [flags]

  --listen ADDR             accept coordinator sessions on ADDR (e.g.
                            127.0.0.1:7801; port 0 picks a free port)
  --metrics ADDR            serve Prometheus metrics over HTTP on ADDR
                            (port 0 picks a free port) and enable span
                            tracing locally; a coordinator's handshake
                            can also enable tracing remotely

The worker is placement-agnostic: its shard index, fabric epoch, and
pair models all arrive in the coordinator's handshake, so the same
process can serve any shard — including as the migration successor for
a worker that died. It serves one coordinator session at a time, keeps
listening when a session ends (coordinator crash-resume), and exits
when a coordinator sends a shutdown control.

A coordinator running with --trace-* exemplar flags also tells the
worker, in the same handshake, to ship ingest/decode/score span slices
inside each board frame; the coordinator's tail sampler decides which
traces to keep, so the worker needs no tracing flags of its own.";

pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let flags = Flags::parse("shard-worker", args, &[], &[&["listen", "metrics"]])?;
    let addr: String = flags.require("listen")?;
    let metrics_addr: Option<String> = flags.get("metrics")?;
    let obs = PipelineObs::default();
    if metrics_addr.is_some() {
        obs.tracer.enable();
    }
    let worker = ShardWorker::bind_with_obs(&addr, obs)
        .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    // Tooling (and the integration tests) parse the bound port from
    // this line, so it must hit the pipe before the coordinator dials.
    println!("worker listening on {}", worker.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    let probe = worker.metrics_probe();
    let _metrics = start_metrics(metrics_addr.as_deref(), |addr| {
        MetricsServer::bind(addr, move || probe.to_prometheus())
    })?;
    let summary = worker.run().map_err(|e| format!("worker failed: {e}"))?;
    println!(
        "worker served {} sessions: {} snapshots scored, {} boards sent, \
         {} checkpoints answered, {} protocol errors",
        summary.sessions,
        summary.snapshots,
        summary.boards,
        summary.checkpoints,
        summary.protocol_errors,
    );
    Ok(())
}
