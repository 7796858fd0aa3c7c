//! The same seed gives the same inputs, schedule and fingerprint.

use dtdinfer_perfbench::loadgen::{plan, rate};
use dtdinfer_perfbench::workload::{Family, Fingerprint, Inputs, Workload, WORKLOADS};

#[test]
fn same_seed_same_inputs_and_fingerprint() {
    for family in [Family::Narrow, Family::Wide] {
        let a = Inputs::generate(family, 7);
        let b = Inputs::generate(family, 7);
        assert_eq!(a, b, "{family:?} inputs differ for one seed");
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
        let c = Inputs::generate(family, 8);
        assert_ne!(a.corpus, c.corpus, "{family:?} inputs ignore the seed");
    }
}

#[test]
fn same_seed_same_schedule() {
    for family in [Family::Narrow, Family::Wide] {
        let a = plan(7, rate(family), 3.0, 100);
        assert_eq!(a, plan(7, rate(family), 3.0, 100));
        assert_ne!(a, plan(8, rate(family), 3.0, 100));
        assert_eq!(a.len(), (rate(family) * 3.0) as usize);
    }
}

#[test]
fn fingerprint_matches_the_workload_description() {
    let narrow = Fingerprint::of(&Inputs::generate(Family::Narrow, 1));
    assert!(narrow.bytes >= 4 << 20, "bulk-infer is a multi-MiB corpus");
    assert!(
        narrow.distinct_words < 100,
        "bulk-infer has few distinct words"
    );
    let wide = Fingerprint::of(&Inputs::generate(Family::Wide, 1));
    assert!(
        wide.distinct_words >= 1000,
        "the wide schema yields at least 1k distinct child sequences, got {}",
        wide.distinct_words
    );
    for w in WORKLOADS {
        assert_eq!(Workload::parse(w.name()), Some(w));
        let s = w.shares();
        assert!((s.batch + s.warm + s.serve - 1.0).abs() < 1e-9);
    }
}
