//! The same protocol state machines, real OS threads: one thread per
//! peer, `std::sync::mpsc` channels as the network, genuine scheduler
//! nondeterminism plus injected latency jitter, and live crash injection.
//!
//! ```sh
//! cargo run --release --example threaded_peers
//! ```

use dr_download::core::{FaultModel, ModelParams, PeerId};
use dr_download::protocols::CrashMultiDownload;
use dr_download::runtime::{run_threaded, CrashSpec, RuntimeConfig};

fn main() {
    let (n, k, b) = (2048usize, 8usize, 3usize);
    let params = ModelParams::builder(n, k)
        .faults(FaultModel::Crash, b)
        .build()
        .expect("valid parameters");

    let config = RuntimeConfig::new(params, 99)
        .with_crash(CrashSpec {
            peer: PeerId(0),
            after_events: 0, // dies before its first step
        })
        .with_crash(CrashSpec {
            peer: PeerId(5),
            after_events: 3, // dies mid-protocol
        });

    println!("spawning {k} peer threads, crashing p0 and p5, n = {n} bits …");
    let report = run_threaded(config, move |_| CrashMultiDownload::new(n, k, b))
        .expect("live peers must terminate");
    report
        .verify(&[PeerId(0), PeerId(5)])
        .expect("every live peer downloaded the exact input");

    println!("done in {:?} wall-clock", report.elapsed);
    println!("per-peer query counts: {:?}", report.query_counts);
    println!(
        "max queries by a live peer: {} (naive would be {n})",
        report.max_honest_queries
    );
}
