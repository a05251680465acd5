//! Cross-crate property tests.

use chronus::core::{decrement, Att, MisraGries};
use chronus::ctrl::AddressMapping;
use chronus::dram::{geometry::victims_of, Geometry};
use chronus::security::wave::{discrete, prfm_wave_max_acts, WaveTiming};
use chronus::workloads::generator::synthetic_from_profile;
use chronus::workloads::AppProfile;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mapping_roundtrips_everywhere(phys in 0u64..(32u64 << 30), which in 0usize..3) {
        let geo = Geometry::ddr5();
        let m = [AddressMapping::Mop, AddressMapping::RoBaRaCoCh, AddressMapping::AbacusMop][which];
        let a = m.decode(phys, &geo);
        prop_assert_eq!(m.encode(&a, &geo), phys & !63);
        prop_assert!((a.row as usize) < geo.rows);
        prop_assert!((a.col as usize) < geo.cols);
        prop_assert!((a.bank.rank as usize) < geo.ranks);
    }

    #[test]
    fn decrementer_equals_wrapping_sub(x: u8) {
        prop_assert_eq!(decrement(x), x.wrapping_sub(1));
    }

    #[test]
    fn victims_are_symmetric_and_within_blast(row in 0u32..65_536, blast in 1u32..4) {
        let v: Vec<_> = victims_of(row, blast, 65_536).collect();
        prop_assert!(v.len() <= 2 * blast as usize);
        for x in &v {
            let d = x.abs_diff(row);
            prop_assert!(d >= 1 && d <= blast);
        }
        // Interior rows have the full set.
        if row >= blast && row + blast < 65_536 {
            prop_assert_eq!(v.len(), 2 * blast as usize);
        }
    }

    #[test]
    fn att_tracks_the_maximum_count(
        ops in prop::collection::vec((0u32..16, 1u32..1000), 1..200)
    ) {
        // Feed (row, count) observations where counts only grow per row;
        // the ATT max must match the true running maximum.
        let mut att = Att::new(4);
        let mut true_counts = std::collections::HashMap::new();
        for (row, inc) in ops {
            let c = true_counts.entry(row).or_insert(0u32);
            *c += inc;
            att.observe(row, *c);
        }
        let (max_row, max_count) = true_counts
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(r, c)| (*r, *c))
            .unwrap();
        let (att_row, att_count) = att.peek_max().unwrap();
        prop_assert_eq!(att_count, max_count);
        // Ties may resolve to another row with the same count.
        prop_assert!(true_counts[&att_row] == max_count || att_row == max_row);
    }

    #[test]
    fn misra_gries_never_undercounts_beyond_spillover(
        rows in prop::collection::vec(0u32..64, 1..2000)
    ) {
        let mut mg = MisraGries::new(8);
        let mut true_counts = std::collections::HashMap::new();
        for &r in &rows {
            mg.observe(r);
            *true_counts.entry(r).or_insert(0u32) += 1;
        }
        for (&row, &true_count) in &true_counts {
            let est = mg.estimate(row).unwrap_or(0);
            prop_assert!(
                est + mg.spillover() >= true_count,
                "row {} est {} spill {} true {}",
                row, est, mg.spillover(), true_count
            );
        }
    }

    #[test]
    fn prfm_recurrence_tracks_discrete_attack(th in 2u32..40, r1 in 8u64..400) {
        let t = WaveTiming::baseline_default();
        let rec = prfm_wave_max_acts(th, r1, &t);
        let sim = discrete::prfm_attack(th, r1 as usize, &t);
        let hi = rec.max(sim);
        prop_assert!(rec.abs_diff(sim) <= hi / 3 + 3,
            "th={} r1={}: recurrence {} vs discrete {}", th, r1, rec, sim);
    }

    #[test]
    fn trace_generator_hits_target_mpki(mpki in 1.0f64..50.0, seed: u64) {
        let profile = AppProfile {
            name: "prop",
            mpki,
            locality: 0.5,
            read_ratio: 0.7,
            footprint: 32 << 20,
        };
        let t = synthetic_from_profile(profile, 0).generate(150_000, seed);
        let got = t.mpki();
        prop_assert!((got - mpki).abs() / mpki < 0.25,
            "target {} got {}", mpki, got);
    }

    #[test]
    fn trace_text_roundtrip(seed: u64) {
        let profile = AppProfile {
            name: "roundtrip",
            mpki: 10.0,
            locality: 0.3,
            read_ratio: 0.6,
            footprint: 16 << 20,
        };
        let t = synthetic_from_profile(profile, 1).generate(5_000, seed);
        let mut buf = Vec::new();
        t.write_text(&mut buf).unwrap();
        let back = chronus::cpu::Trace::read_text(&buf[..]).unwrap();
        prop_assert_eq!(back, t);
    }
}
