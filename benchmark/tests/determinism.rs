//! Same seed, same run: inputs, message counts, cache counters and virtual
//! time repeat exactly. One test, in a file (so a process) of its own: the
//! plan cache and the selector counters are process-wide, and concurrent
//! tests would count each other's messages.

use nonctg_benchmark::layers::EXACT;
use nonctg_benchmark::pingpong::Inputs;
use nonctg_benchmark::spec::{workload, Kind, Plan, DEFAULT_SECONDS};
use nonctg_benchmark::{gen, run_workload};

#[test]
fn same_seed_repeats_exactly_and_another_seed_does_not() {
    let shapes = |seed| -> Vec<(String, usize)> {
        let inp = Inputs::new(Kind::TypeChurn, seed).expect("inputs");
        inp.order
            .iter()
            .map(|&k| (inp.variants[k].label.clone(), inp.variants[k].payload))
            .collect()
    };
    assert_eq!(shapes(11), shapes(11));
    assert_ne!(shapes(11), shapes(12));
    assert_eq!(gen::kernel_order(11), gen::kernel_order(11));

    let w = workload("type_churn_64k").expect("workload");
    let plan = Plan::new(w, DEFAULT_SECONDS, true, true);
    let traced = |seed| run_workload(w, seed, &plan).expect("run");
    let (a, b, c) = (traced(11), traced(11), traced(12));
    for run in [&a, &b, &c] {
        assert!(run.outcome.correct, "failed: {}", run.outcome.failed);
    }
    for name in EXACT {
        assert_eq!(
            a.outcome.value(name),
            b.outcome.value(name),
            "{name} must repeat for one seed"
        );
    }
    let digests = |r: &nonctg_benchmark::Run| {
        r.measured
            .blocks
            .iter()
            .map(|b| b.virt_digest)
            .collect::<Vec<_>>()
    };
    assert_eq!(digests(&a), digests(&b));
    assert_ne!(
        digests(&a),
        digests(&c),
        "another seed sends another count sequence"
    );
    // Every send of the churn workload compiles: the plan LRU never hits on
    // the send side (the pack inside the send then finds the fresh plan).
    assert_eq!(a.outcome.value("datatype.plan_cache_hit_ratio"), Some(0.5));
}
