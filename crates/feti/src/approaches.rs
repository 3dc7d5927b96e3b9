//! The eight dual-operator strategies of the paper's Table 2, with their
//! preprocessing pipelines and per-iteration costs instrumented for the
//! benches (Figures 9 and 10).
//!
//! Library mapping (see DESIGN.md "Substitutions"):
//!
//! | paper          | here                                                       |
//! |----------------|------------------------------------------------------------|
//! | `impl_mkl`     | implicit, supernodal multifrontal engine (PARDISO analog)  |
//! | `impl_cholmod` | implicit, up-looking simplicial engine (CHOLMOD analog)    |
//! | `expl_mkl`     | sparse-RHS Schur (`sc_factor::schur`) on the CPU           |
//! | `expl_cholmod` | plain (non-stepped) TRSM+SYRK on the CPU, simplicial factor|
//! | `expl_cuda`    | plain TRSM+SYRK on the simulated GPU (algorithm of \[9\])    |
//! | `expl_cpu_opt` | stepped TRSM+SYRK on the CPU (this paper)                  |
//! | `expl_gpu_opt` | stepped TRSM+SYRK on the simulated GPU (this paper)        |
//! | `expl_hybrid`  | assembly like `expl_mkl`, application on the GPU           |

use crate::dualop::{apply_implicit, DualOperator, SubdomainFactors};
use rayon::prelude::*;
use sc_core::{FactorStorage, ScConfig};
use sc_dense::Mat;
use sc_factor::{schur_from_factor, Engine};
use sc_fem::HeatProblem;
use sc_gpu::{Device, GpuKernels};
use sc_order::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Dual-operator strategy (paper Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DualOpApproach {
    /// Implicit with the fast (supernodal) factorization.
    ImplMkl,
    /// Implicit with the simplicial factorization.
    ImplCholmod,
    /// Explicit SC via sparse-RHS solves on the CPU.
    ExplMkl,
    /// Explicit SC via plain TRSM+SYRK on the CPU.
    ExplCholmod,
    /// Explicit SC via plain TRSM+SYRK on the GPU (baseline of \[9\]).
    ExplCuda,
    /// Explicit SC via stepped TRSM+SYRK on the CPU (this paper).
    ExplCpuOpt,
    /// Explicit SC via stepped TRSM+SYRK on the GPU (this paper).
    ExplGpuOpt,
    /// CPU sparse-RHS assembly + GPU application.
    ExplHybrid,
}

impl DualOpApproach {
    /// All approaches, in the paper's Table 2 order.
    pub const ALL: [DualOpApproach; 8] = [
        DualOpApproach::ImplMkl,
        DualOpApproach::ImplCholmod,
        DualOpApproach::ExplMkl,
        DualOpApproach::ExplCholmod,
        DualOpApproach::ExplCuda,
        DualOpApproach::ExplCpuOpt,
        DualOpApproach::ExplGpuOpt,
        DualOpApproach::ExplHybrid,
    ];

    /// The paper's name for this approach.
    pub fn paper_name(&self) -> &'static str {
        match self {
            DualOpApproach::ImplMkl => "impl_mkl",
            DualOpApproach::ImplCholmod => "impl_cholmod",
            DualOpApproach::ExplMkl => "expl_mkl",
            DualOpApproach::ExplCholmod => "expl_cholmod",
            DualOpApproach::ExplCuda => "expl_cuda",
            DualOpApproach::ExplCpuOpt => "expl_cpu_opt",
            DualOpApproach::ExplGpuOpt => "expl_gpu_opt",
            DualOpApproach::ExplHybrid => "expl_hybrid",
        }
    }

    /// True when the approach reports simulated GPU time.
    pub fn uses_gpu(&self) -> bool {
        matches!(
            self,
            DualOpApproach::ExplCuda | DualOpApproach::ExplGpuOpt | DualOpApproach::ExplHybrid
        )
    }
}

/// Preprocessing timings (the quantities plotted in Figure 9).
#[derive(Clone, Copy, Debug, Default)]
pub struct PreprocessReport {
    /// Measured wall seconds of the numeric factorization loop.
    pub factorization_s: f64,
    /// Measured wall seconds of CPU-side SC assembly (0 for implicit).
    pub assembly_cpu_s: f64,
    /// Simulated GPU makespan of the device-side assembly (0 for CPU paths).
    pub assembly_gpu_s: f64,
}

impl PreprocessReport {
    /// End-to-end preprocessing time: CPU pipeline plus the GPU tail
    /// (sequential model; the overlapped `mix` model lives in the fig8
    /// driver).
    pub fn total_s(&self) -> f64 {
        self.factorization_s + self.assembly_cpu_s + self.assembly_gpu_s
    }
}

/// Per-iteration cost of applying the global dual operator once.
#[derive(Clone, Copy, Debug, Default)]
pub struct ApplyCost {
    /// Measured (CPU) or simulated (GPU) seconds per application.
    pub per_iteration_s: f64,
}

/// Preprocessed dual operators plus instrumentation.
pub struct PreparedDualOp {
    /// Per-subdomain operators, ready to apply.
    pub ops: Vec<DualOperator>,
    /// Factor bundles (needed by implicit applications and primal recovery).
    pub factors: Vec<SubdomainFactors>,
    /// Timing report.
    pub report: PreprocessReport,
}

fn sc_config_for(approach: DualOpApproach, three_d: bool) -> ScConfig {
    match approach {
        DualOpApproach::ExplCholmod | DualOpApproach::ExplCuda => ScConfig::original(if three_d {
            FactorStorage::Dense
        } else {
            FactorStorage::Sparse
        }),
        DualOpApproach::ExplCpuOpt => ScConfig::optimized(false, three_d),
        DualOpApproach::ExplGpuOpt => ScConfig::optimized(true, three_d),
        _ => ScConfig::original(FactorStorage::Sparse),
    }
}

/// Run the preprocessing pipeline of one approach over all subdomains.
///
/// `device` is required for GPU approaches; its timeline is reset first so
/// `report.assembly_gpu_s` is this call's makespan.
pub fn preprocess_approach(
    problem: &HeatProblem,
    approach: DualOpApproach,
    device: Option<&Arc<Device>>,
) -> PreparedDualOp {
    let three_d = problem.dim == 3;
    let engine = match approach {
        DualOpApproach::ImplMkl => Engine::Supernodal,
        // every explicit GPU path needs extractable factors => simplicial,
        // like CHOLMOD in the paper ("only Cholmod allows extraction of
        // factors, impl_cholmod is the baseline for CUDA-based approaches")
        _ => Engine::Simplicial,
    };

    // --- numeric factorization loop (parallel over subdomains) ---
    let t0 = Instant::now();
    let factors: Vec<SubdomainFactors> = problem
        .subdomains
        .par_iter()
        .map(|sd| SubdomainFactors::build(sd, engine, Ordering::NestedDissection))
        .collect();
    let factorization_s = t0.elapsed().as_secs_f64();

    // --- assembly section ---
    let mut report = PreprocessReport {
        factorization_s,
        ..Default::default()
    };
    let ops: Vec<DualOperator> = match approach {
        DualOpApproach::ImplMkl | DualOpApproach::ImplCholmod => {
            // no assembly: operators borrow nothing, applications go through
            // `factors`; build lightweight implicit wrappers for uniformity
            problem
                .subdomains
                .par_iter()
                .map(|sd| {
                    DualOperator::implicit(SubdomainFactors::build(
                        sd,
                        engine,
                        Ordering::NestedDissection,
                    ))
                })
                .collect()
        }
        DualOpApproach::ExplMkl => {
            let t = Instant::now();
            let ops = factors
                .par_iter()
                .map(|f| {
                    let l = f.chol.factor_cow();
                    let fmat = schur_from_factor(&l, &f.chol.symbolic().parent, &f.bt_perm);
                    DualOperator::ExplicitCpu(fmat)
                })
                .collect();
            report.assembly_cpu_s = t.elapsed().as_secs_f64();
            ops
        }
        DualOpApproach::ExplCholmod | DualOpApproach::ExplCpuOpt => {
            let cfg = sc_config_for(approach, three_d);
            let t = Instant::now();
            let ops = factors
                .par_iter()
                .map(|f| DualOperator::explicit_cpu(f, &cfg))
                .collect();
            report.assembly_cpu_s = t.elapsed().as_secs_f64();
            ops
        }
        DualOpApproach::ExplCuda | DualOpApproach::ExplGpuOpt => {
            let device = device.expect("GPU approach needs a device");
            device.reset();
            let cfg = sc_config_for(approach, three_d);
            let n_streams = device.n_streams();
            let ops = factors
                .par_iter()
                .enumerate()
                .map(|(i, f)| {
                    let kernels = GpuKernels::new(device.stream(i % n_streams));
                    DualOperator::explicit_gpu(f, &cfg, kernels)
                })
                .collect();
            report.assembly_gpu_s = device.synchronize();
            ops
        }
        DualOpApproach::ExplHybrid => {
            let device = device.expect("hybrid approach needs a device");
            device.reset();
            let n_streams = device.n_streams();
            let t = Instant::now();
            let mats: Vec<Mat> = factors
                .par_iter()
                .map(|f| {
                    let l = f.chol.factor_cow();
                    schur_from_factor(&l, &f.chol.symbolic().parent, &f.bt_perm)
                })
                .collect();
            report.assembly_cpu_s = t.elapsed().as_secs_f64();
            // upload the dense F̃ᵢ to the device for application
            let ops = mats
                .into_iter()
                .enumerate()
                .map(|(i, fmat)| {
                    let kernels = GpuKernels::new(device.stream(i % n_streams));
                    kernels.upload_bytes(8 * fmat.nrows() * fmat.ncols());
                    DualOperator::ExplicitGpu { f: fmat, kernels }
                })
                .collect();
            report.assembly_gpu_s = device.synchronize();
            ops
        }
    };

    PreparedDualOp {
        ops,
        factors,
        report,
    }
}

/// Measure the per-iteration cost of applying the global dual operator.
///
/// CPU approaches are wall-timed over `reps` applications; GPU approaches
/// report the simulated makespan per application.
pub fn measure_apply_cost(
    problem: &HeatProblem,
    prepared: &PreparedDualOp,
    approach: DualOpApproach,
    device: Option<&Arc<Device>>,
    reps: usize,
) -> ApplyCost {
    let p: Vec<f64> = (0..problem.n_lambda)
        .map(|i| ((i % 13) as f64) - 6.0) // sc-analyze: allow(precision-discipline)
        .collect();
    let apply_once = || {
        let locals: Vec<Vec<f64>> = problem
            .subdomains
            .par_iter()
            .enumerate()
            .map(|(i, sd)| {
                let pl: Vec<f64> = sd.lambda_ids.iter().map(|&gl| p[gl]).collect();
                let mut ql = vec![0.0; sd.n_lambda()];
                match approach {
                    DualOpApproach::ImplMkl | DualOpApproach::ImplCholmod => {
                        apply_implicit(&prepared.factors[i], &pl, &mut ql)
                    }
                    _ => prepared.ops[i].apply(&pl, &mut ql),
                }
                ql
            })
            .collect();
        std::hint::black_box(&locals);
    };

    if approach.uses_gpu() {
        let device = device.expect("GPU approach needs a device");
        device.reset();
        for _ in 0..reps {
            apply_once();
        }
        ApplyCost {
            per_iteration_s: device.synchronize() / reps as f64, // sc-analyze: allow(precision-discipline)
        }
    } else {
        let t = Instant::now();
        for _ in 0..reps {
            apply_once();
        }
        ApplyCost {
            per_iteration_s: t.elapsed().as_secs_f64() / reps as f64, // sc-analyze: allow(precision-discipline)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_fem::Gluing;
    use sc_gpu::DeviceSpec;

    fn small_problem() -> HeatProblem {
        HeatProblem::build_2d(3, (2, 2), Gluing::Redundant)
    }

    #[test]
    fn all_approaches_produce_equivalent_operators() {
        let problem = small_problem();
        let device = Device::new(DeviceSpec::a100(), 2);
        let mut reference: Option<Vec<Vec<f64>>> = None;
        for approach in DualOpApproach::ALL {
            let prepared = preprocess_approach(&problem, approach, Some(&device));
            // apply to a fixed vector per subdomain and compare across
            // approaches
            let outs: Vec<Vec<f64>> = problem
                .subdomains
                .iter()
                .enumerate()
                .map(|(i, sd)| {
                    let m = sd.n_lambda();
                    let pl: Vec<f64> = (0..m).map(|k| ((k % 5) as f64) - 2.0).collect();
                    let mut ql = vec![0.0; m];
                    match approach {
                        DualOpApproach::ImplMkl | DualOpApproach::ImplCholmod => {
                            apply_implicit(&prepared.factors[i], &pl, &mut ql)
                        }
                        _ => prepared.ops[i].apply(&pl, &mut ql),
                    }
                    ql
                })
                .collect();
            match &reference {
                None => reference = Some(outs),
                Some(r) => {
                    for (a, b) in r.iter().zip(&outs) {
                        for (x, y) in a.iter().zip(b) {
                            assert!(
                                (x - y).abs() < 1e-7,
                                "{} deviates: {x} vs {y}",
                                approach.paper_name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gpu_approaches_report_simulated_time() {
        let problem = small_problem();
        let device = Device::new(DeviceSpec::a100(), 2);
        let prepared = preprocess_approach(&problem, DualOpApproach::ExplGpuOpt, Some(&device));
        assert!(prepared.report.assembly_gpu_s > 0.0);
        assert_eq!(prepared.report.assembly_cpu_s, 0.0);
        let cost = measure_apply_cost(
            &problem,
            &prepared,
            DualOpApproach::ExplGpuOpt,
            Some(&device),
            3,
        );
        assert!(cost.per_iteration_s > 0.0);
    }

    #[test]
    fn implicit_approaches_skip_assembly() {
        let problem = small_problem();
        let prepared = preprocess_approach(&problem, DualOpApproach::ImplCholmod, None);
        assert_eq!(prepared.report.assembly_cpu_s, 0.0);
        assert_eq!(prepared.report.assembly_gpu_s, 0.0);
        assert!(prepared.report.factorization_s > 0.0);
    }
}
