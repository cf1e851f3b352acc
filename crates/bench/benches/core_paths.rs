//! Criterion benches of sky-core's decision paths: characterization
//! updates, APE computation, runtime-table ranking and router zone
//! choice. These run per request (router) or per report (profiler) in a
//! production deployment, so their constant factors matter.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sky_core::cloud::{Arch, AzId, CpuMix, CpuType, Provider};
use sky_core::faas::{HostId, SaafReport};
use sky_core::sim::{SimDuration, SimTime, Uuid};
use sky_core::workloads::{PerfModel, WorkloadKind};
use sky_core::{Characterization, CharacterizationStore, RouterConfig, RuntimeTable, SmartRouter};
use std::hint::black_box;

fn report(i: u64) -> SaafReport {
    let cpu = CpuType::AWS_X86[(i % 4) as usize];
    SaafReport {
        cpu_model: cpu.model_name().into(),
        cpu_ghz: cpu.clock_ghz(),
        instance_uuid: Uuid::from_u128(i.into()),
        host_id: HostId::from_raw(i / 20),
        new_container: true,
        billed: SimDuration::from_millis(250),
        memory_mb: 2048,
        arch: Arch::X86_64,
        provider: Provider::Aws,
        az: "us-west-1b".parse().expect("valid AZ"),
        finished_at: SimTime::from_micros(i),
    }
}

fn bench_characterization(c: &mut Criterion) {
    let mut group = c.benchmark_group("characterization");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("observe_1000_reports", |b| {
        let reports: Vec<SaafReport> = (0..1_000).map(report).collect();
        b.iter(|| {
            let mut ch = Characterization::new();
            ch.observe_all(black_box(reports.iter()));
            black_box(ch.unique_fis())
        });
    });
    group.bench_function("ape_percent", |b| {
        let a = CpuMix::from_shares(&[
            (CpuType::IntelXeon2_5, 0.4),
            (CpuType::IntelXeon2_9, 0.2),
            (CpuType::IntelXeon3_0, 0.3),
            (CpuType::AmdEpyc, 0.1),
        ]);
        let reference =
            CpuMix::from_shares(&[(CpuType::IntelXeon2_5, 0.5), (CpuType::IntelXeon3_0, 0.5)]);
        b.iter(|| black_box(black_box(&a).ape_percent(black_box(&reference))));
    });
    group.finish();
}

fn model_table() -> RuntimeTable {
    let mut t = RuntimeTable::new();
    for kind in WorkloadKind::ALL {
        for cpu in CpuType::AWS_X86 {
            t.record(kind, cpu, PerfModel::expected_duration(kind, cpu, 2048));
        }
    }
    t
}

fn bench_router(c: &mut Criterion) {
    let mut group = c.benchmark_group("router");
    let table = model_table();
    group.bench_function("ranking", |b| {
        b.iter(|| black_box(table.ranking(black_box(WorkloadKind::Zipper))));
    });

    let mut store = CharacterizationStore::new();
    let candidates: Vec<AzId> = (b'a'..=b'j')
        .map(|l| format!("us-east-2{}", l as char).parse().expect("valid AZ"))
        .collect();
    for (i, az) in candidates.iter().enumerate() {
        let mix = CpuMix::from_shares(&[
            (CpuType::IntelXeon2_5, 0.5),
            (CpuType::IntelXeon3_0, 0.3 + 0.02 * i as f64),
            (CpuType::AmdEpyc, 0.2 - 0.02 * i as f64),
        ]);
        store.record(az, SimTime::ZERO, mix, 1_000, 0.01);
    }
    let router = SmartRouter::new(store, table, RouterConfig::default());
    group.bench_function("choose_az_10_candidates", |b| {
        b.iter(|| {
            black_box(router.choose_az(
                black_box(WorkloadKind::LogisticRegression),
                black_box(&candidates),
                SimTime::ZERO,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_characterization, bench_router);
criterion_main!(benches);
