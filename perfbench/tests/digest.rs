//! The simulated-output check at a reduced length: two runs of a
//! workload agree on `sim_digest`, and another seed gives another one.

use perfbench::probe::Probe;
use perfbench::workloads::{Length, ALL};

#[test]
fn each_workload_repeats_its_digest_and_the_seed_changes_it() {
    for w in &ALL {
        let episode = |seed| (w.episode)(seed, Length::Test, &mut Probe::new(false));
        let (a, b, other) = (episode(42), episode(42), episode(1042));
        assert_eq!(a, b, "{}: two runs of one seed differ", w.name);
        assert_ne!(
            a.digest, other.digest,
            "{}: the seed does not reach the outputs",
            w.name
        );
        assert_eq!(a.sent.len() as u64, (w.steps)(Length::Test), "{}", w.name);
    }
}

#[test]
fn a_traced_run_checks_out() {
    for w in &ALL {
        let report = perfbench::run(w, 42, 0.0, true, Length::Test);
        assert!(report.correct, "{}: {report:?}", w.name);
        assert_eq!(report.failed, 0, "{}", w.name);
        assert!(report.attempted > 0, "{}", w.name);
        assert!(!report.metrics.is_empty(), "{}", w.name);
    }
}
