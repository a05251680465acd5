//! Scaled-down versions of the figure pipelines, exercised under
//! criterion so `cargo bench` touches every experiment code path.

use criterion::{criterion_group, criterion_main, Criterion};

use chronus_bench::{AppSweep, Executor, HarnessOpts, MixSweep, Runner, SweepRow};
use chronus_core::MechanismKind;
use chronus_security::sweep::{fig3a, fig3b};
use chronus_security::wave::WaveTiming;
use chronus_workloads::eight_core_spec17_profiles;

fn tiny_opts() -> HarnessOpts {
    HarnessOpts {
        instructions: 3_000,
        mixes_per_class: 1,
        threads: 8,
        seed: 7,
        nrh_list: vec![1024, 32],
        // Bypass the grid result store so every iteration really
        // simulates, and keep progress lines out of bench output.
        no_cache: true,
        quiet: true,
        ..HarnessOpts::default()
    }
}

/// Executes a mix sweep without the result store.
fn sweep_mixes(mechs: &[MechanismKind], nrh_list: &[u32], opts: &HarnessOpts) -> Vec<SweepRow> {
    let sweep = MixSweep::build("mix-sweep", mechs, nrh_list, opts, &|_| {});
    let mut runner = Runner::new(opts).expect("no store to open");
    sweep.rows(&runner.execute(&sweep.spec))
}

fn smoke_fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/fig3_security_sweep");
    g.sample_size(10);
    g.bench_function("fig3a+fig3b", |b| {
        b.iter(|| {
            let a = fig3a(&WaveTiming::baseline_default());
            let bb = fig3b(&WaveTiming::prac_default());
            (a.len(), bb.len())
        })
    });
    g.finish();
}

fn smoke_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/fig4_prac_variants");
    g.sample_size(10);
    g.bench_function("6mixes_2nrh", |b| {
        let opts = tiny_opts();
        b.iter(|| {
            sweep_mixes(
                &[MechanismKind::Prac4, MechanismKind::Prfm],
                &opts.nrh_list,
                &opts,
            )
        })
    });
    g.finish();
}

fn smoke_fig8(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/fig8_headline");
    g.sample_size(10);
    g.bench_function("chronus_vs_prac", |b| {
        let opts = tiny_opts();
        b.iter(|| {
            sweep_mixes(
                &[MechanismKind::Chronus, MechanismKind::Prac4],
                &[32],
                &opts,
            )
        })
    });
    g.finish();
}

fn smoke_fig14(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures/fig14_eight_core");
    g.sample_size(10);
    g.bench_function("one_app", |b| {
        let opts = tiny_opts();
        let apps = &eight_core_spec17_profiles()[..1];
        let sweep = AppSweep::build(
            "app-sweep",
            apps,
            &[MechanismKind::Prac4],
            &[1024],
            &opts,
            8,
            true,
        );
        b.iter(|| {
            let mut runner = Runner::new(&opts).expect("no store to open");
            sweep.rows(&runner.execute(&sweep.spec))
        })
    });
    g.finish();
}

criterion_group!(figures, smoke_fig3, smoke_fig4, smoke_fig8, smoke_fig14);
criterion_main!(figures);
