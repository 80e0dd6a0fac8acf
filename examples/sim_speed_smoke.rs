//! Wall-clock gate for the simulator core (run by `scripts/check.sh`):
//! the executor must clear >= 1.5x the reference timer-storm throughput
//! recorded in `baselines/sim_speed.txt` (`--bench sim_speed` holds the
//! full >= 2x gate; this is the fast always-on check). It needs a
//! release build, so it is the one gate `cargo test` does not run.
//!
//! Run with: `cargo run --release --example sim_speed_smoke`

use std::fs;
use std::time::Instant;

use spritely::sim::{Sim, SimDuration};

fn timer_storm(tasks: u64, iters: u64) -> f64 {
    let sim = Sim::new();
    for i in 0..tasks {
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_micros(i)).await;
            for _ in 0..iters {
                let r = s
                    .timeout(
                        SimDuration::from_secs(10),
                        s.sleep(SimDuration::from_millis(1)),
                    )
                    .await;
                assert!(r.is_ok());
            }
        });
    }
    let t0 = Instant::now();
    sim.run_to_quiescence();
    let wall = t0.elapsed().as_secs_f64();
    let stats = sim.stats();
    assert_eq!(
        stats.stale_wakes, 0,
        "abandoned guard timers fired spuriously"
    );
    assert_eq!(
        stats.timer_cancels,
        tasks * iters,
        "every abandoned guard must be cancelled on drop"
    );
    assert_eq!(sim.live_timers(), 0, "timers left after quiescence");
    (tasks * iters) as f64 / wall
}

fn reference_units_per_sec() -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/sim_speed.txt");
    let text = fs::read_to_string(path).expect("read baselines/sim_speed.txt");
    text.lines()
        .find_map(|l| l.strip_prefix("timer_storm_units_per_sec "))
        .expect("timer_storm_units_per_sec line")
        .trim()
        .parse()
        .expect("numeric reference")
}

fn main() {
    // Throughput gate, best of 3.
    let units = (0..3)
        .map(|_| timer_storm(256, 500))
        .fold(f64::MIN, f64::max);
    let reference = reference_units_per_sec();
    let ratio = units / reference;
    println!(
        "sim_speed smoke: {units:.0} timeouts/s vs reference {reference:.0} = {ratio:.2}x (gate 1.5x)"
    );
    assert!(
        ratio >= 1.5,
        "executor fell below 1.5x the recorded pre-PR throughput: {ratio:.2}x"
    );
}
