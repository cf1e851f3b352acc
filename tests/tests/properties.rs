//! Randomized property tests over the workspace's core data structures
//! and invariants: codecs round-trip arbitrary inputs, distribution
//! metrics behave like metrics, statistics merge associatively, billing
//! rounds monotonically, and the event queue is totally ordered.
//!
//! Cases are generated with the workspace's own deterministic [`SimRng`]
//! (seeded, reproducible) instead of an external property-testing
//! framework — every failure is replayable from the fixed seed.

use sky_cloud::{CpuMix, CpuType, PriceBook, Provider};
use sky_mesh::payload::{decode, encode, PayloadBundle};
use sky_sim::{EventQueue, OnlineStats, SimDuration, SimRng, SimTime};
use sky_workloads::{base64, lzss};

const SEED: u64 = 0x5eed_cafe;

fn random_bytes(rng: &mut SimRng, max_len: u64) -> Vec<u8> {
    let len = rng.next_below(max_len + 1) as usize;
    (0..len).map(|_| rng.next_below(256) as u8).collect()
}

fn random_mix(rng: &mut SimRng) -> CpuMix {
    let n = rng.range_inclusive(1, 5) as usize;
    let shares: Vec<(CpuType, f64)> = (0..n)
        .map(|_| {
            let cpu = CpuType::ALL[rng.next_below(CpuType::ALL.len() as u64) as usize];
            (cpu, rng.range_f64(0.01, 100.0))
        })
        .collect();
    CpuMix::from_shares(&shares)
}

#[test]
fn lzss_roundtrips_arbitrary_bytes() {
    let mut rng = SimRng::seed_from(SEED).derive("lzss");
    for _ in 0..64 {
        let data = random_bytes(&mut rng, 8_000);
        let compressed = lzss::compress(&data);
        assert_eq!(lzss::decompress(&compressed).unwrap(), data);
    }
}

#[test]
fn base64_roundtrips_arbitrary_bytes() {
    let mut rng = SimRng::seed_from(SEED).derive("base64");
    for _ in 0..64 {
        let data = random_bytes(&mut rng, 4_000);
        assert_eq!(base64::decode(&base64::encode(&data)).unwrap(), data);
    }
}

fn random_ascii(rng: &mut SimRng, max_len: u64) -> String {
    let len = rng.next_below(max_len + 1) as usize;
    (0..len)
        .map(|_| char::from(rng.range_inclusive(0x20, 0x7e) as u8))
        .collect()
}

#[test]
fn payload_roundtrips_arbitrary_bundles() {
    let mut rng = SimRng::seed_from(SEED).derive("payload");
    for _ in 0..64 {
        let mut bundle = PayloadBundle::source_only(random_ascii(&mut rng, 200));
        for i in 0..rng.next_below(5) {
            bundle = bundle.with_file(format!("file_{i}.dat"), random_bytes(&mut rng, 2_000));
        }
        let encoded = encode(&bundle).unwrap();
        assert_eq!(decode(&encoded.body).unwrap(), bundle);
    }
}

#[test]
fn payload_hash_is_deterministic() {
    let mut rng = SimRng::seed_from(SEED).derive("payload-hash");
    for _ in 0..64 {
        let source = random_ascii(&mut rng, 100);
        let a = encode(&PayloadBundle::source_only(source.clone())).unwrap();
        let b = encode(&PayloadBundle::source_only(source)).unwrap();
        assert_eq!(a.hash64, b.hash64);
        assert_eq!(a.sha1_hex, b.sha1_hex);
    }
}

#[test]
fn mix_is_always_normalized() {
    let mut rng = SimRng::seed_from(SEED).derive("mix-norm");
    for _ in 0..64 {
        let mix = random_mix(&mut rng);
        let total: f64 = mix.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (_, w) in mix.iter() {
            assert!(w > 0.0);
        }
    }
}

#[test]
fn total_variation_is_a_metric() {
    let mut rng = SimRng::seed_from(SEED).derive("mix-metric");
    for _ in 0..64 {
        let a = random_mix(&mut rng);
        let b = random_mix(&mut rng);
        let c = random_mix(&mut rng);
        // Identity, symmetry, range, triangle inequality.
        assert!(a.total_variation(&a) < 1e-12);
        assert!((a.total_variation(&b) - b.total_variation(&a)).abs() < 1e-12);
        let d_ab = a.total_variation(&b);
        assert!((0.0..=1.0 + 1e-12).contains(&d_ab));
        assert!(d_ab <= a.total_variation(&c) + c.total_variation(&b) + 1e-9);
    }
}

#[test]
fn mix_restriction_never_increases_support() {
    let mut rng = SimRng::seed_from(SEED).derive("mix-restrict");
    for _ in 0..64 {
        let mix = random_mix(&mut rng);
        let keep: Vec<CpuType> = (0..rng.next_below(5))
            .map(|_| CpuType::ALL[rng.next_below(CpuType::ALL.len() as u64) as usize])
            .collect();
        let restricted = mix.restricted_to(&keep);
        assert!(restricted.n_types() <= mix.n_types());
        for cpu in restricted.cpus() {
            assert!(keep.contains(&cpu));
            assert!(mix.share(cpu) > 0.0);
        }
    }
}

#[test]
fn online_stats_merge_matches_sequential() {
    let mut rng = SimRng::seed_from(SEED).derive("stats-merge");
    for _ in 0..64 {
        let n = rng.next_below(200) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e6, 1e6)).collect();
        let split = rng.next_below(n as u64 + 1) as usize;
        let full: OnlineStats = xs.iter().copied().collect();
        let mut left: OnlineStats = xs[..split].iter().copied().collect();
        let right: OnlineStats = xs[split..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), full.count());
        assert!((left.mean() - full.mean()).abs() <= 1e-6 * (1.0 + full.mean().abs()));
        assert!(
            (left.population_variance() - full.population_variance()).abs()
                <= 1e-4 * (1.0 + full.population_variance())
        );
    }
}

#[test]
fn billed_duration_is_monotone_and_bounded() {
    let mut rng = SimRng::seed_from(SEED).derive("billing");
    for _ in 0..256 {
        let us_a = rng.next_below(10_000_000);
        let us_b = rng.next_below(10_000_000);
        let (lo, hi) = if us_a <= us_b {
            (us_a, us_b)
        } else {
            (us_b, us_a)
        };
        let d_lo = SimDuration::from_micros(lo);
        let d_hi = SimDuration::from_micros(hi);
        assert!(d_lo.billed_millis() <= d_hi.billed_millis());
        // Rounding is up, by less than one full millisecond.
        assert!(d_lo.billed_millis() * 1_000 >= lo);
        assert!(d_lo.billed_millis() * 1_000 < lo + 1_000);
    }
}

#[test]
fn invocation_cost_is_monotone_in_duration_and_memory() {
    let mut rng = SimRng::seed_from(SEED).derive("cost");
    for _ in 0..256 {
        let ms_a = rng.range_inclusive(1, 100_000);
        let ms_b = rng.range_inclusive(1, 100_000);
        let mem_small = rng.range_inclusive(128, 5_000) as u32;
        let extra = rng.next_below(5_000) as u32;
        let (lo, hi) = if ms_a <= ms_b {
            (ms_a, ms_b)
        } else {
            (ms_b, ms_a)
        };
        let cost = |ms: u64, mem: u32| {
            PriceBook::invocation_cost(
                Provider::Aws,
                sky_cloud::Arch::X86_64,
                mem,
                SimDuration::from_millis(ms),
            )
        };
        assert!(cost(lo, mem_small) <= cost(hi, mem_small));
        assert!(cost(lo, mem_small) <= cost(lo, mem_small + extra));
    }
}

#[test]
fn event_queue_pops_sorted() {
    let mut rng = SimRng::seed_from(SEED).derive("event-queue");
    for _ in 0..64 {
        let n = rng.next_below(300) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_below(1_000_000)).collect();
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0usize;
        while let Some((t, _)) = queue.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, times.len());
    }
}

/// The timer wheel's pop sequence must equal a sorted `(SimTime, seq)`
/// reference under arbitrary push/pop interleavings, and `peek_time` must
/// read the reference minimum before every pop. The schedule covers exact
/// SimTime ties (FIFO by schedule order), same-instant bursts of hundreds
/// of events at the last popped time (the same-instant run), far-wheel
/// deltas up to three horizons, times within two windows of the far
/// wheel's horizon edge, and far-future events that live in the overflow
/// map and cascade back through both wheels. This is the heavyweight
/// companion of the unit-level `wheel_matches_heap_reference` test in
/// `sky_sim::events`.
#[test]
fn timer_wheel_matches_sorted_reference_under_interleaving() {
    use sky_sim::events::{FAR_SLOTS, WINDOW_US};
    use std::collections::BTreeSet;
    const HORIZON_US: u64 = WINDOW_US * FAR_SLOTS as u64;
    let mut rng = SimRng::seed_from(SEED).derive("timer-wheel");
    for _ in 0..6 {
        let mut queue = EventQueue::new();
        // Reference model: pending (time, seq) pairs, in pop order.
        let mut reference: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut seq = 0u64;
        let mut schedule =
            |queue: &mut EventQueue<u64>, reference: &mut BTreeSet<(SimTime, u64)>, at: SimTime| {
                queue.schedule(at, seq);
                reference.insert((at, seq));
                seq += 1;
            };
        // Pops are monotone, so schedules stay at/after the last pop.
        let mut now = SimTime::ZERO;
        for _ in 0..5_000 {
            if rng.chance(0.6) || reference.is_empty() {
                if rng.chance(0.01) {
                    // A same-instant burst at the last popped time.
                    for _ in 0..rng.range_inclusive(500, 800) {
                        schedule(&mut queue, &mut reference, now);
                    }
                    continue;
                }
                let at = if !reference.is_empty() && rng.chance(0.15) {
                    // Exact tie with a pending event: the first one due at
                    // or after a random time in the next window.
                    let probe = now + SimDuration::from_micros(rng.next_below(WINDOW_US));
                    let tie = reference.range((probe, 0)..).next();
                    tie.or(reference.last()).expect("non-empty").0
                } else {
                    let delta = match rng.next_below(10) {
                        // Same-slot and near-wheel times.
                        0..=4 => rng.next_below(WINDOW_US / 2),
                        // A few windows out (the far wheel's first slots).
                        5..=6 => rng.next_below(WINDOW_US * 8),
                        // Within two windows of the far wheel's horizon.
                        7 => HORIZON_US - 2 * WINDOW_US + rng.next_below(WINDOW_US * 4),
                        // Up to three horizons: far wheel and overflow map.
                        8 => rng.next_below(HORIZON_US * 3),
                        // Deep overflow, cascades on drain.
                        _ => rng.next_below(WINDOW_US * 700),
                    };
                    now + SimDuration::from_micros(delta)
                };
                schedule(&mut queue, &mut reference, at);
            } else {
                let expected = reference.pop_first().expect("reference is non-empty");
                assert_eq!(queue.peek_time(), Some(expected.0));
                let (at, payload) = queue.pop().expect("reference is non-empty");
                assert_eq!((at, payload), expected);
                assert!(at >= now, "pops must be monotone");
                now = at;
            }
        }
        // Drain: the tail must come out fully sorted by (time, seq).
        while let Some(expected) = reference.pop_first() {
            assert_eq!(queue.peek_time(), Some(expected.0));
            assert_eq!(
                queue.pop(),
                Some(expected),
                "queue holds the reference tail"
            );
        }
        assert_eq!(queue.peek_time(), None);
        assert!(queue.pop().is_none());
        assert!(queue.is_empty());
    }
}

#[test]
fn sha1_is_injective_on_small_perturbations() {
    use sky_workloads::sha1::sha1;
    let mut rng = SimRng::seed_from(SEED).derive("sha1");
    for _ in 0..64 {
        let len = rng.range_inclusive(1, 500);
        let data = random_bytes(&mut rng, len);
        if data.is_empty() {
            continue;
        }
        let mut mutated = data.clone();
        let idx = rng.next_below(mutated.len() as u64) as usize;
        mutated[idx] ^= 0x01;
        assert_ne!(sha1(&data), sha1(&mutated));
    }
}

// ---------------------------------------------------------------------
// Fault-layer and resilience properties (chaos subsystem).
// ---------------------------------------------------------------------

use sky_cloud::{AzId, FaultPlan};
use sky_core::{BackoffPolicy, BreakerConfig, BreakerState, CircuitBreaker};

#[test]
fn rng_derived_streams_are_independent() {
    // Reference: the "b" stream drawn with no activity on "a".
    let parent = SimRng::seed_from(SEED);
    let mut a = parent.derive("stream-a");
    let mut b = parent.derive("stream-b");
    let seq_a: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
    let seq_b: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
    assert_ne!(seq_a, seq_b, "distinct labels must yield distinct streams");

    // Interleaving arbitrary draws on "a" must not perturb "b" — this is
    // the property the engine's dedicated fault stream relies on to keep
    // no-fault runs byte-identical.
    let parent = SimRng::seed_from(SEED);
    // sky-lint: allow(D004, deliberate re-derivation - the test asserts that equal labels reproduce equal streams)
    let mut a = parent.derive("stream-a");
    // sky-lint: allow(D004, deliberate re-derivation - the test asserts that equal labels reproduce equal streams)
    let mut b = parent.derive("stream-b");
    let mut noise = parent.derive("noise");
    for &expected in &seq_b {
        for _ in 0..noise.next_below(7) {
            a.next_u64();
        }
        assert_eq!(b.next_u64(), expected);
    }

    // Indexed derivation is also pairwise independent.
    let x: Vec<u64> = {
        let mut r = parent.derive_idx("worker", 0);
        (0..8).map(|_| r.next_u64()).collect()
    };
    let y: Vec<u64> = {
        let mut r = parent.derive_idx("worker", 1);
        (0..8).map(|_| r.next_u64()).collect()
    };
    assert_ne!(x, y);
}

#[test]
fn fault_plan_fires_each_event_exactly_once_within_its_window() {
    use sky_cloud::{Catalog, Provider};
    use sky_faas::{FaasEngine, FleetConfig};
    use std::collections::BTreeMap;

    /// `faas/faults_armed` by `(az, kind)` as the engine reports it.
    fn armed(engine: &FaasEngine) -> BTreeMap<Vec<(String, String)>, u64> {
        engine
            .metrics_snapshot()
            .subsystem("faas")
            .filter(|e| e.name == "faults_armed")
            .map(|e| match e.value {
                sky_sim::MetricValue::Counter(n) => (e.labels.clone(), n),
                ref other => panic!("faults_armed is a counter, got {other:?}"),
            })
            .collect()
    }
    /// The same counts predicted from the plan: every event whose start
    /// is at or before `t` has armed exactly once.
    fn due(plan: &FaultPlan, t: SimTime) -> BTreeMap<Vec<(String, String)>, u64> {
        let mut counts = BTreeMap::new();
        for ev in plan.events().iter().filter(|e| e.start <= t) {
            let labels = vec![
                ("az".to_string(), ev.az.to_string()),
                ("kind".to_string(), ev.kind.label().to_string()),
            ];
            *counts.entry(labels).or_insert(0) += 1;
        }
        counts
    }

    let mut rng = SimRng::seed_from(SEED).derive("fault-plan");
    let zones: Vec<AzId> = ["us-east-2a", "us-east-2b", "us-west-1a"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    for round in 0..4u64 {
        let mut engine = FaasEngine::new(Catalog::paper_world(round), FleetConfig::new(round));
        engine.create_account(Provider::Aws);
        let start = engine.now() + SimDuration::from_mins(1);
        let plan = FaultPlan::random_storm(&mut rng, &zones, start, SimDuration::from_mins(30), 8);
        engine.set_fault_plan(&plan);

        // Step to 1 us before each start, then onto it: the counts may
        // change only at the start instant.
        let mut starts: Vec<SimTime> = plan.events().iter().map(|e| e.start).collect();
        starts.dedup();
        for t in starts {
            let before = t - SimDuration::from_micros(1);
            engine.advance_to(before);
            assert_eq!(armed(&engine), due(&plan, before), "armed before its start");
            engine.advance_to(t);
            assert_eq!(armed(&engine), due(&plan, t), "not armed at its start");
        }
        engine.advance_to(plan.last_end().unwrap() + SimDuration::from_mins(1));
        let total: u64 = armed(&engine).values().sum();
        assert_eq!(
            total,
            plan.events().len() as u64,
            "every scheduled fault fires exactly once"
        );
        for ev in plan.events() {
            assert!(ev.active_at(ev.start), "window includes its own start");
            assert!(!ev.active_at(ev.end()), "window is half-open");
        }
    }
}

#[test]
fn breaker_always_half_opens_after_cooldown() {
    let mut rng = SimRng::seed_from(SEED).derive("breaker");
    for _ in 0..50 {
        let config = BreakerConfig {
            failure_threshold: rng.range_inclusive(1, 6) as u32,
            cooldown: SimDuration::from_secs(rng.range_inclusive(1, 120)),
        };
        let mut breaker = CircuitBreaker::new(config);
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            match rng.next_below(3) {
                0 => breaker.on_success(),
                1 => breaker.on_failure(now),
                _ => now += SimDuration::from_millis(rng.range_inclusive(10, 60_000)),
            }
            if breaker.state(now) == BreakerState::Open {
                let probe_at = now + config.cooldown;
                assert_eq!(
                    breaker.state(probe_at),
                    BreakerState::HalfOpen,
                    "an open breaker must half-open once the cooldown elapses"
                );
                assert!(breaker.allows(probe_at), "half-open admits a probe");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Metrics-layer properties (observability subsystem).
// ---------------------------------------------------------------------

use sky_sim::{LogHistogram, MetricsRegistry, MetricsSnapshot};

/// A random registry snapshot: counters, gauges and histograms over a
/// small pool of identities, so merges genuinely collide on keys.
fn random_metrics_snapshot(rng: &mut SimRng) -> MetricsSnapshot {
    let mut reg = MetricsRegistry::new();
    let subsystems = ["faas", "router", "span"];
    let azs = ["us-east-2a", "us-east-2b", "eu-north-1a"];
    for _ in 0..rng.range_inclusive(1, 12) {
        let sub = subsystems[rng.next_below(3) as usize];
        let az = azs[rng.next_below(3) as usize];
        match rng.next_below(3) {
            0 => {
                let h = reg.counter(sub, "events", &[("az", az)]);
                reg.add(h, rng.next_below(1_000));
            }
            1 => {
                let h = reg.gauge(sub, "depth", &[("az", az)]);
                reg.set_gauge(
                    h,
                    SimTime::from_micros(rng.next_below(1_000_000)),
                    rng.range_f64(0.0, 100.0),
                );
            }
            _ => {
                let h = reg.histogram(sub, "lat_us", &[("az", az)]);
                for _ in 0..rng.next_below(50) {
                    reg.observe(h, rng.next_below(10_000_000));
                }
            }
        }
    }
    reg.snapshot()
}

#[test]
fn metrics_merge_is_associative_and_commutative() {
    let mut rng = SimRng::seed_from(SEED).derive("metrics-merge");
    for _ in 0..32 {
        let a = random_metrics_snapshot(&mut rng);
        let b = random_metrics_snapshot(&mut rng);
        let c = random_metrics_snapshot(&mut rng);

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");

        // Commutativity after normalization: a ⊕ b == b ⊕ a, down to
        // the exported bytes.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab.to_prometheus_text(), ba.to_prometheus_text());
        assert_eq!(ab.to_json(), ba.to_json());

        // The empty snapshot is the identity.
        let mut with_empty = a.clone();
        with_empty.merge(&MetricsSnapshot::new());
        assert_eq!(with_empty, a, "empty snapshot is the merge identity");
    }
}

#[test]
fn histogram_buckets_conserve_total_samples() {
    let mut rng = SimRng::seed_from(SEED).derive("metrics-buckets");
    for _ in 0..64 {
        let n = rng.next_below(300) as usize;
        let samples: Vec<u64> = (0..n)
            .map(|_| {
                // Bias toward small values but cover the full u64 range.
                let shift = rng.next_below(64) as u32;
                rng.next_u64() >> shift
            })
            .collect();
        let mut full = LogHistogram::new();
        let split = rng.next_below(n as u64 + 1) as usize;
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            full.record(s);
            if i < split {
                left.record(s)
            } else {
                right.record(s)
            }
        }
        left.merge(&right);
        assert_eq!(left, full, "sharded recording must equal sequential");

        // Every sample lands in exactly one bucket.
        assert_eq!(full.count(), n as u64);
        let bucket_total: u64 = full.sparse_buckets().iter().map(|&(_, c)| c).sum();
        assert_eq!(bucket_total, n as u64, "buckets must conserve samples");
        if n > 0 {
            assert_eq!(full.min(), samples.iter().min().copied());
            assert_eq!(full.max(), samples.iter().max().copied());
            let max = full.max().unwrap();
            for q in [0.5, 0.9, 0.99, 1.0] {
                assert!(full.quantile(q).unwrap() <= max);
            }
        }
    }
}

#[test]
fn metrics_snapshot_roundtrips_serde() {
    let mut rng = SimRng::seed_from(SEED).derive("metrics-serde");
    for _ in 0..32 {
        let snap = random_metrics_snapshot(&mut rng);
        let json = snap.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap, "JSON round-trip must be lossless");
        assert_eq!(back.to_json(), json, "re-serialization is a fixpoint");
        assert_eq!(
            back.to_prometheus_text(),
            snap.to_prometheus_text(),
            "round-trip preserves the Prometheus exposition"
        );
    }
}

#[test]
fn backoff_delays_are_monotone_and_bounded_for_random_policies() {
    let mut rng = SimRng::seed_from(SEED).derive("backoff");
    for _ in 0..50 {
        let jitter = rng.range_f64(0.0, 0.9);
        let factor = rng.range_f64(1.0 + jitter, 4.0);
        let base = SimDuration::from_millis(rng.range_inclusive(1, 1_000));
        let max = base + SimDuration::from_millis(rng.range_inclusive(0, 60_000));
        let policy = BackoffPolicy::new(base, factor, max, jitter);
        let mut prev = SimDuration::ZERO;
        for attempt in 0..12 {
            let d = policy.delay(attempt, &mut rng);
            assert!(d >= prev, "delay must be non-decreasing in attempt");
            assert!(d <= max, "delay must respect the cap");
            assert!(d >= base.min(max), "first delays never undershoot base");
            prev = d;
        }
    }
}

// ---------------------------------------------------------------------
// Execution-mode lifecycle properties (exec-mode subsystem).
// ---------------------------------------------------------------------

use sky_faas::{BatchRequest, ExecMode, ExecProfile, PoolPolicy, RequestBody};

fn random_mode_engine(seed: u64) -> (sky_faas::FaasEngine, Vec<sky_faas::DeploymentId>) {
    use sky_cloud::{Arch, Catalog, Provider};
    use sky_faas::{FaasEngine, FleetConfig};
    let mut engine = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
    let account = engine.create_account(Provider::Aws);
    let az: AzId = "us-east-2a".parse().unwrap();
    let mut rng = SimRng::seed_from(SEED).derive_idx("mode-deploy", seed);
    let deps: Vec<sky_faas::DeploymentId> = ExecMode::ALL
        .iter()
        .map(|&mode| {
            let dep = engine
                .deploy(account, &az, 2048, Arch::X86_64)
                .expect("deploys");
            let mut profile = ExecProfile::for_mode(mode);
            if rng.chance(0.5) {
                profile = profile.with_pool(PoolPolicy::Fixed {
                    target: rng.range_inclusive(1, 4) as u32,
                    cap: rng.range_inclusive(4, 6) as u32,
                });
            }
            engine.set_exec_profile(dep, profile);
            dep
        })
        .collect();
    (engine, deps)
}

/// Under randomized multi-mode traffic, the per-`(az, mode)` billing
/// slices must partition the billed total exactly — no request is ever
/// billed under two modes, none escapes its slice — and the per-class
/// start counters must likewise partition total starts.
#[test]
fn mode_billing_and_start_classes_partition_totals_under_random_traffic() {
    let mut rng = SimRng::seed_from(SEED).derive("mode-billing");
    for round in 0..4u64 {
        let (mut engine, deps) = random_mode_engine(round);
        for _ in 0..6 {
            let n = rng.range_inclusive(2, 14) as usize;
            let requests: Vec<BatchRequest> = (0..n)
                .map(|_| BatchRequest {
                    deployment: deps[rng.next_below(deps.len() as u64) as usize],
                    offset: SimDuration::from_millis(rng.next_below(400)),
                    body: RequestBody::Sleep {
                        duration: SimDuration::from_millis(rng.range_inclusive(20, 400)),
                    },
                })
                .collect();
            engine.run_batch(requests);
            engine.advance_by(SimDuration::from_mins(rng.range_inclusive(1, 14)));
        }
        let snap = engine.metrics_snapshot();
        assert_eq!(
            snap.counter_sum("faas", "billed_mb_us_mode"),
            snap.counter_sum("faas", "billed_mb_us"),
            "round {round}: mode slices must partition the billed total"
        );
        let class_total: u64 = [
            "cold_starts",
            "warm_starts",
            "restored_starts",
            "branched_starts",
            "pooled_starts",
        ]
        .iter()
        .map(|name| snap.counter_sum("faas", name))
        .sum();
        // Sleep bodies never hit the result cache and the fleet is far
        // below saturation, so every attempt dispatches on exactly one
        // FI and carries exactly one start class.
        let attempts = snap.counter_sum("faas", "attempts");
        assert!(attempts > 0, "round {round}: traffic must dispatch");
        assert_eq!(
            class_total, attempts,
            "round {round}: start classes must partition attempts"
        );
    }
}

/// Pre-warm pool occupancy must never exceed the policy cap, at any
/// observation point, under random bursts, idle gaps and pool ticks.
#[test]
fn pool_occupancy_never_exceeds_cap() {
    use sky_cloud::{Arch, Catalog, Provider};
    use sky_faas::{FaasEngine, FleetConfig};
    let mut rng = SimRng::seed_from(SEED).derive("pool-cap");
    let az: AzId = "us-east-2a".parse().unwrap();
    for round in 0..4u64 {
        let mut engine = FaasEngine::new(Catalog::paper_world(round), FleetConfig::new(round));
        let account = engine.create_account(Provider::Aws);
        let dep = engine
            .deploy(account, &az, 2048, Arch::X86_64)
            .expect("deploys");
        let cap = rng.range_inclusive(1, 8) as u32;
        let policy = if rng.chance(0.5) {
            PoolPolicy::Fixed {
                target: rng.range_inclusive(1, 12) as u32,
                cap,
            }
        } else {
            PoolPolicy::DemandEwma {
                alpha_x256: rng.range_inclusive(16, 256) as u32,
                cap,
            }
        };
        engine.set_exec_profile(dep, ExecProfile::default().with_pool(policy));
        for _ in 0..10 {
            let n = rng.next_below(10) as usize;
            let requests: Vec<BatchRequest> = (0..n)
                .map(|_| BatchRequest {
                    deployment: dep,
                    offset: SimDuration::from_millis(rng.next_below(200)),
                    body: RequestBody::Sleep {
                        duration: SimDuration::from_millis(rng.range_inclusive(20, 300)),
                    },
                })
                .collect();
            engine.run_batch(requests);
            let occupancy = engine.platform(&az).unwrap().pool_occupancy(dep);
            assert!(
                occupancy <= cap as usize,
                "round {round}: occupancy {occupancy} exceeds cap {cap}"
            );
            engine.advance_by(SimDuration::from_secs(rng.range_inclusive(10, 600)));
            let occupancy = engine.platform(&az).unwrap().pool_occupancy(dep);
            assert!(
                occupancy <= cap as usize,
                "round {round}: post-advance occupancy {occupancy} exceeds cap {cap}"
            );
        }
    }
}

/// Snapshot TTL eviction is monotone: the eviction counter never
/// decreases, a live snapshot's expiry never moves earlier, and once
/// the TTL passes with no refresh the snapshot is gone.
#[test]
fn snapshot_ttl_eviction_is_monotone() {
    use sky_cloud::{Arch, Catalog, Provider};
    use sky_faas::{FaasEngine, FleetConfig};
    let mut rng = SimRng::seed_from(SEED).derive("snap-ttl");
    let az: AzId = "us-east-2a".parse().unwrap();
    for round in 0..4u64 {
        let ttl = SimDuration::from_mins(rng.range_inclusive(5, 20));
        let mut engine = FaasEngine::new(Catalog::paper_world(round), FleetConfig::new(round));
        let account = engine.create_account(Provider::Aws);
        let dep = engine
            .deploy(account, &az, 2048, Arch::X86_64)
            .expect("deploys");
        engine.set_exec_profile(
            dep,
            ExecProfile::for_mode(ExecMode::Checkpointed).with_snapshot_ttl(ttl),
        );
        let mut evicted_last = 0u64;
        let mut expires_last = None;
        for _ in 0..8 {
            if rng.chance(0.6) {
                engine.run_batch(vec![BatchRequest {
                    deployment: dep,
                    offset: SimDuration::ZERO,
                    body: RequestBody::Sleep {
                        duration: SimDuration::from_millis(100),
                    },
                }]);
            }
            engine.advance_by(SimDuration::from_mins(rng.range_inclusive(1, 30)));
            let platform = engine.platform(&az).unwrap();
            let evicted = platform.snapshots_evicted_total();
            assert!(
                evicted >= evicted_last,
                "round {round}: eviction counter must be monotone"
            );
            evicted_last = evicted;
            if let Some(snap) = platform.snapshot(dep) {
                assert!(
                    snap.expires > snap.created,
                    "round {round}: TTL window must be non-empty"
                );
                assert_eq!(
                    snap.expires,
                    snap.created + ttl,
                    "round {round}: expiry is exactly created + TTL"
                );
                if let Some(last) = expires_last {
                    assert!(
                        snap.expires >= last,
                        "round {round}: refresh never shortens the deadline"
                    );
                }
                expires_last = Some(snap.expires);
            }
        }
        // Quiesce past the TTL: the snapshot must not outlive it. The
        // registry evicts lazily (on the next acquire), so observe
        // through a fresh request's start class instead of the map.
        engine.advance_by(ttl + SimDuration::from_mins(1));
        let outcomes = engine.run_batch(vec![BatchRequest {
            deployment: dep,
            offset: SimDuration::ZERO,
            body: RequestBody::Sleep {
                duration: SimDuration::from_millis(100),
            },
        }]);
        assert!(
            outcomes[0].status.report().map(|r| r.new_container) != Some(false),
            "round {round}: an expired snapshot must not serve a restore"
        );
    }
}
