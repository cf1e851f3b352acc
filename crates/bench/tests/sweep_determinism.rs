//! `run_many`'s two strategies, end to end: fanning experiments out
//! over workers and looping over them serially produce byte-identical
//! output. (Each swept experiment's own jobs invariance is the golden
//! harness's jobs matrix.)

use sky_bench::registry::{self, Experiment};
use sky_bench::sweep::Jobs;
use sky_bench::{Scale, WORLD_SEED};

#[test]
fn run_many_parallel_fanout_matches_serial_loop() {
    // `run_many` switches strategy on jobs>1 (fan out over experiments,
    // one worker each) vs jobs==1 (serial loop, full jobs) — the outputs
    // must be byte-identical either way.
    let exps: Vec<&'static dyn Experiment> = ["fig_faults", "ablation_staleness", "cost_summary"]
        .iter()
        .map(|n| registry::find(n).expect("registered"))
        .collect();
    let serial = registry::run_many(&exps, Scale::Quick, Jobs::serial(), WORLD_SEED);
    let parallel = registry::run_many(&exps, Scale::Quick, Jobs::new(4), WORLD_SEED);
    assert_eq!(serial.len(), parallel.len());
    for ((name_s, out_s), (name_p, out_p)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(name_s, name_p, "run_many reordered experiments");
        assert_eq!(
            out_s.as_ref().expect("serial run succeeds").text,
            out_p.as_ref().expect("parallel run succeeds").text,
            "{name_s} output differs between serial and fanned-out run_many"
        );
    }
}
