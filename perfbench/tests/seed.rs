//! One seed reproduces the benchmark's exact counts; another seed changes
//! the generated inputs.

use perfbench::serve::{replay, JobStream};
use perfbench::solve::{loads, PCPG2D};
use perfbench::{layers, Recorder};

fn iterations(seed: u64) -> Vec<usize> {
    let problem = PCPG2D.problem();
    let solver = PCPG2D.builder().build(&problem);
    (0..3)
        .map(|j| {
            solver
                .solve_rhs(&loads(&problem, seed, j).1)
                .stats
                .iterations
        })
        .collect()
}

#[test]
fn one_seed_reproduces_pcpg_iterations() {
    assert_eq!(iterations(7), iterations(7));
}

#[test]
fn another_seed_changes_the_loads() {
    let problem = PCPG2D.problem();
    for j in 0..3 {
        assert_ne!(
            loads(&problem, 7, j).1,
            loads(&problem, 8, j).1,
            "load case {j}"
        );
    }
    let scales = |seed| {
        JobStream::new(seed)
            .take(12)
            .map(|j| j.scale)
            .collect::<Vec<_>>()
    };
    assert_ne!(scales(7), scales(8));
}

#[test]
fn one_seed_reproduces_factor_and_assembly_counts() {
    let rec = Recorder::new(false);
    let probe = || {
        let p = layers::probe(&rec, None, &|| PCPG2D.problem(), &PCPG2D.options(), None, 1);
        assert!(p.check.is_ok(), "{:?}", p.check);
        (
            p.factor_nnz,
            p.assemble_flops.to_bits(),
            p.cut_hits,
            p.cut_lookups,
        )
    };
    let first = probe();
    assert!(first.0 > 0 && f64::from_bits(first.1) > 0.0);
    assert_eq!(first, probe());
}

#[test]
fn one_seed_reproduces_serve_cache_counts() {
    let counts = |seed| {
        let (results, c) = replay(seed, 24);
        for r in &results {
            assert!(r.check.is_ok(), "{:?}", r.check);
        }
        let iters: Vec<Option<usize>> = results
            .iter()
            .map(|r| r.outcome.as_ref().and_then(|o| o.iterations))
            .collect();
        (c.hits, c.misses, c.evictions, iters)
    };
    let first = counts(7);
    assert!(
        first.1 > 0 && first.2 > 0,
        "the mix must miss and evict: {first:?}"
    );
    assert_eq!(first, counts(7));
}
