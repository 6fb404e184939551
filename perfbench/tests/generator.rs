//! The generator is the benchmark's only source of inputs: the same
//! seed must give byte-identical traffic, images and records, and a
//! different seed different ones.

use fcds_perfbench::gen::Generator;
use fcds_perfbench::workload::{spec, NAMES};

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for name in NAMES {
        let s = spec(name).expect("known workload");
        let a = Generator::new(s.clone(), 7).digest(64, 64);
        let b = Generator::new(s.clone(), 7).digest(64, 64);
        let c = Generator::new(s, 8).digest(64, 64);
        assert_eq!(a, b, "{name}: one seed gave two input sets");
        assert_ne!(a, c, "{name}: two seeds gave one input set");
    }
}

#[test]
fn batches_do_not_depend_on_generation_order() {
    let g = Generator::new(spec("durable_mix").expect("known workload"), 3);
    let (mut fwd, mut back) = (Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for i in 0..32 {
        g.batch_into(i, &mut buf);
        fwd.push(buf.clone());
    }
    for i in (0..32).rev() {
        g.batch_into(i, &mut buf);
        back.push(buf.clone());
    }
    back.reverse();
    assert_eq!(fwd, back);
}

#[test]
fn distinct_workloads_never_repeat_an_item() {
    let g = Generator::new(spec("theta_ingest").expect("known workload"), 11);
    let mut seen = std::collections::HashSet::new();
    let mut buf = Vec::new();
    for i in 0..64 {
        g.batch_into(i, &mut buf);
        for &x in &buf {
            assert!(seen.insert(x), "item {x:#x} repeated");
        }
    }
}

#[test]
fn zipf_is_skewed_and_in_range() {
    let g = Generator::new(spec("durable_mix").expect("known workload"), 5);
    let mut ranks = Vec::new();
    let mut counts = vec![0u64; (1 << 20) + 1];
    for i in 0..400 {
        g.batch_ranks(i, &mut ranks);
        for &r in &ranks {
            assert!((1..=1 << 20).contains(&r), "rank {r} out of range");
            counts[r as usize] += 1;
        }
    }
    let total: u64 = counts.iter().sum();
    // Zipf(1.1) over 2^20 keys puts roughly a tenth of the mass on
    // rank 1 and more on rank 1 than on rank 2.
    assert!(counts[1] > counts[2] && counts[2] > counts[100]);
    let top = counts[1] as f64 / total as f64;
    assert!((0.05..0.2).contains(&top), "rank-1 share {top}");
}
