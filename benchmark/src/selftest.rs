//! Self-tests: the declaration in `BENCHMARK.json` is well-formed and
//! matches what the workloads emit, and every workload passes its checks
//! at the smoke scale, traced and untraced.

use std::collections::BTreeSet;

use crate::harness::{expected_digest, measure, report, Scale, Workload};
use crate::spec::Spec;

fn spec() -> Spec {
    Spec::load().expect("BENCHMARK.json parses")
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn declaration_is_within_its_limits() {
    let s = spec();
    assert!((2..=8).contains(&s.workloads.len()));
    assert!((1..=16).contains(&s.end_to_end.len()));
    assert!((1..=128).contains(&s.per_layer.len()));
    assert!((1..=60).contains(&s.run_seconds));
    let mut seen = BTreeSet::new();
    let names = s
        .workloads
        .iter()
        .chain(s.end_to_end.iter().chain(&s.per_layer).map(|m| &m.name));
    for n in names {
        assert!(valid_name(n), "bad name {n}");
        assert!(seen.insert(n.clone()), "name {n} used twice");
    }
    for m in s.end_to_end.iter().chain(&s.per_layer) {
        assert!(valid_unit(&m.unit), "bad unit {} on {}", m.unit, m.name);
    }
    let setup = s.end_to_end("setup_s").expect("setup_s is declared");
    assert_eq!(setup.unit, "s");
    let largest = s
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert!(largest <= 0.25);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
}

#[test]
fn declared_workloads_are_the_implemented_ones() {
    let implemented: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec().workloads, implemented);
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
        for scale in [Scale::Bench, Scale::Smoke] {
            expected_digest(w, scale).expect("expected.json pins every digest");
        }
    }
}

/// One smoke-scale repetition of each workload, untraced and traced:
/// every declared metric (and no other) is emitted, the invariants hold,
/// the traced path reproduces the untraced digest and both match the
/// digests pinned for the smoke scale.
#[test]
fn smoke_runs_emit_every_declared_metric_and_pass_their_checks() {
    let s = spec();
    let per_layer: Vec<String> = s.per_layer.iter().map(|m| m.name.clone()).collect();
    for w in Workload::ALL {
        for (trace, declared) in [(false, &s.end_to_end), (true, &s.per_layer)] {
            let out = measure(w, w.pinned_seed(), 0.0, trace, Scale::Smoke, &per_layer);
            assert!(out.correct, "{} trace={trace}: {:?}", w.name(), out.errors);
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            report(&out, declared).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }
}

#[test]
fn a_held_out_seed_passes_the_invariants() {
    let per_layer: Vec<String> = spec().per_layer.iter().map(|m| m.name.clone()).collect();
    for w in Workload::ALL {
        let out = measure(w, 7, 0.0, false, Scale::Smoke, &per_layer);
        assert!(out.correct, "{}: {:?}", w.name(), out.errors);
    }
}
